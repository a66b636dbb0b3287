// aim_perfbench: runs one benchmark workload in this process and prints
// one JSON object on its last line of standard output.
//
//   aim_perfbench --workload tpch-validate --seed 1 --seconds 10 --trace 0
//                 [--small] [--trace-out spans.json]
//
// The object carries run_meta, attempted/failed, the output checks, the
// metrics (end-to-end untraced, per-layer traced) and the deterministic
// counts that must repeat for one workload and seed. run.py builds this
// binary, runs it, and turns the object into the benchmark's result line.
#include <malloc.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>

#include "common.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

template <typename Map, typename Fn>
std::string Object(const Map& m, Fn&& value) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ", ";
    s += Quote(k) + ": " + value(v);
  }
  return s + "}";
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return stamp;
}

int Usage() {
  std::fprintf(stderr,
               "usage: aim_perfbench --workload "
               "tpch-validate|fleet-steady|tpcc-online --seed N "
               "--seconds S --trace 0|1 [--small] [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator settings: freed memory stays in the process (no trim
  // of the heap top) and blocks up to 32 MiB come from the heap rather
  // than from fresh mappings. Repeated intervals then reuse pages they have
  // already touched instead of faulting them in again, and the cost of a
  // page fault on a virtual machine moves with the host's load.
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--small") {
      opt.small = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_path = argv[++i];
    } else {
      return Usage();
    }
  }

  if (opt.workload != "tpch-validate" && opt.workload != "fleet-steady" &&
      opt.workload != "tpcc-online") {
    return Usage();
  }
  perfbench::LatencyProbe probe;
  RunResult r;
  if (opt.workload == "tpch-validate") {
    r = perfbench::RunTpchValidate(opt, &probe);
  } else if (opt.workload == "fleet-steady") {
    r = perfbench::RunFleetSteady(opt, &probe);
  } else {
    r = perfbench::RunTpccOnline(opt, &probe);
  }

  if (!opt.trace) {
    r.Metric("ok_frac",
             r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                                   static_cast<double>(r.attempted)
                             : 0.0,
             "fraction");
    // The probe's buffer is resident all run long; it is not the workload's.
    r.Metric("peak_rss_mb",
             perfbench::PeakRssMb() -
                 static_cast<double>(perfbench::LatencyProbe::kBytes >> 20),
             "MB");
  }
  bool correct = !r.checks.empty();
  for (const auto& [name, ok] : r.checks) correct = correct && ok;

  std::string line = "{";
  line += "\"workload\": " + Quote(opt.workload);
  line += ", \"seed\": " + std::to_string(opt.seed);
  line += ", \"trace\": " + std::to_string(opt.trace ? 1 : 0);
  line += ", \"run_meta\": {\"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"threads\": " + std::to_string(r.threads) +
          ", \"timestamp_utc\": " + Quote(UtcNow()) + "}";
  line += ", \"correct\": " + std::string(correct ? "true" : "false");
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"checks\": " +
          Object(r.checks, [](bool ok) { return ok ? "true" : "false"; });
  line += ", \"metrics\": " + Object(r.metrics, [](const auto& m) {
            return "{\"value\": " + Num(m.first) +
                   ", \"unit\": " + Quote(m.second) + "}";
          });
  line += ", \"counts\": " + Object(r.counts, Num);
  line += ", \"info\": " + Object(r.info, Num) + "}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
