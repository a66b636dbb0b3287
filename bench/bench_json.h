#ifndef AIM_BENCH_BENCH_JSON_H_
#define AIM_BENCH_BENCH_JSON_H_

// Minimal machine-readable results output for the benchmark drivers.
// Each benchmark records its numbers under one top-level key of
// BENCH_results.json; WriteJsonSection merges sections so the benches can
// run in any order (and re-runs replace only their own section).

#include <cctype>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace aim::bench {

/// Raw JSON dump of the global metrics registry, for embedding as a
/// nested section: `.AddRaw("obs_metrics", MetricsJson())`. This is the
/// same registry the pipeline's PhaseTimers and counters feed, so bench
/// output and runtime observability report from one system.
inline std::string MetricsJson() {
  std::ostringstream out;
  obs::MetricsRegistry::Global()->WriteJson(out);
  return out.str();
}

/// Streams one JSON object with insertion-ordered keys. Values are
/// numbers, booleans, strings, or raw nested JSON.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return AddRaw(key, buf);
  }
  JsonObject& Add(const std::string& key, uint64_t value) {
    return AddRaw(key, std::to_string(value));
  }
  JsonObject& Add(const std::string& key, int value) {
    return AddRaw(key, std::to_string(value));
  }
  JsonObject& Add(const std::string& key, bool value) {
    return AddRaw(key, value ? "true" : "false");
  }
  JsonObject& Add(const std::string& key, const std::string& value) {
    return AddRaw(key, '"' + Escaped(value) + '"');
  }
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  /// Nested object / array: `raw` must itself be valid JSON.
  JsonObject& AddRaw(const std::string& key, const std::string& raw) {
    fields_.emplace_back(key, raw);
    return *this;
  }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += Escaped(fields_[i].first);
      out += "\": ";
      out += fields_[i].second;
    }
    return out + "}";
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Uniform run metadata every bench embeds in its section as `run_meta`
/// (`.AddRaw("run_meta", RunMetadataJson(threads))`): the machine's
/// hardware concurrency, the worker-thread count the bench actually ran
/// with (0 = serial / not thread-parameterized), and the UTC run
/// timestamp. Threshold gates (tools/bench_check.py) condition speedup
/// expectations on `hardware_concurrency`, so results from single-core
/// CI boxes and many-core dev machines are interpreted correctly.
inline std::string RunMetadataJson(int threads_used = 0) {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  JsonObject o;
  o.Add("hardware_concurrency",
        static_cast<int>(std::thread::hardware_concurrency()))
      .Add("threads", threads_used)
      .Add("timestamp_utc", std::string(stamp));
  return o.ToString();
}

namespace internal {

/// Splits the top level of a JSON object produced by this header into
/// (key, raw value) pairs. Good enough for files we wrote ourselves;
/// anything unparsable yields an empty list (the file is rewritten).
inline std::vector<std::pair<std::string, std::string>> TopLevelFields(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> fields;
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  auto read_string = [&](std::string* out) {
    if (i >= text.size() || text[i] != '"') return false;
    ++i;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) ++i;
      out->push_back(text[i]);
      ++i;
    }
    if (i >= text.size()) return false;
    ++i;  // closing quote
    return true;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return fields;
  ++i;
  while (true) {
    skip_ws();
    if (i < text.size() && text[i] == '}') break;
    std::string key;
    if (!read_string(&key)) return {};
    skip_ws();
    if (i >= text.size() || text[i] != ':') return {};
    ++i;
    skip_ws();
    // Raw value: scan to the next top-level ',' or '}' tracking nesting
    // depth and strings.
    const size_t value_begin = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) break;
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    if (i > text.size()) return {};
    std::string value = text.substr(value_begin, i - value_begin);
    while (!value.empty() &&
           std::isspace(static_cast<unsigned char>(value.back()))) {
      value.pop_back();
    }
    fields.emplace_back(std::move(key), std::move(value));
    if (i < text.size() && text[i] == ',') ++i;
  }
  return fields;
}

}  // namespace internal

/// Writes (or replaces) the `section` key of the JSON object in `path`,
/// preserving every other benchmark's section. Returns false on I/O
/// failure.
inline bool WriteJsonSection(const std::string& path,
                             const std::string& section,
                             const JsonObject& value) {
  std::vector<std::pair<std::string, std::string>> fields;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      fields = internal::TopLevelFields(buf.str());
    }
  }
  bool replaced = false;
  for (auto& [key, raw] : fields) {
    if (key == section) {
      raw = value.ToString();
      replaced = true;
    }
  }
  if (!replaced) fields.emplace_back(section, value.ToString());

  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\n";
  for (size_t i = 0; i < fields.size(); ++i) {
    out << "  \"" << fields[i].first << "\": " << fields[i].second;
    out << (i + 1 < fields.size() ? ",\n" : "\n");
  }
  out << "}\n";
  return out.good();
}

}  // namespace aim::bench

#endif  // AIM_BENCH_BENCH_JSON_H_
