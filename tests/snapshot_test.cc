// Snapshot-file suite (`ctest -L snapshot`): the CRC-32C and reader units
// of common/snapshot_file, and a fuzz over both snapshot loaders — the
// what-if cache's and the exploration gate's. Every single-bit flip,
// every truncation, appended bytes and seeded garbage must be a cold
// start that leaves the loader's prior state untouched, and the clean
// file must round-trip exactly. These loaders parse bytes from outside
// the program: run the label under AIM_SANITIZE="address;undefined".
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/snapshot_file.h"
#include "core/exploration.h"
#include "optimizer/what_if_cache.h"

namespace aim {
namespace {

// ---------------------------------------------------------------------------
// The file layer

TEST(SnapshotFileTest, Crc32cKnownAnswer) {
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(SnapshotFileTest, ReaderChecksKindAndFailureStaysSet) {
  SnapshotWriter out(SnapshotKind::kWhatIfCache);
  out.Put(uint32_t{7});
  out.PutString("ab");
  const std::string image = std::move(out).Finish();

  EXPECT_FALSE(SnapshotReader(SnapshotKind::kExplorationGate, image).ok());

  SnapshotReader in(SnapshotKind::kWhatIfCache, image);
  uint32_t v = 0;
  std::string s;
  ASSERT_TRUE(in.Get(&v));
  EXPECT_EQ(v, 7u);
  ASSERT_TRUE(in.GetString(&s));
  EXPECT_EQ(s, "ab");
  EXPECT_TRUE(in.done());
  uint64_t past_end = 0;
  EXPECT_FALSE(in.Get(&past_end));
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.done());

  // A failed read poisons the reader even when a smaller read would fit.
  SnapshotReader again(SnapshotKind::kWhatIfCache, image);
  uint64_t too_big[2] = {};
  EXPECT_FALSE(again.Get(&too_big));
  EXPECT_FALSE(again.Get(&v));
}

TEST(SnapshotFileTest, WriteThenReadReturnsTheImage) {
  const std::string path = ::testing::TempDir() + "/snapshot_file_test.bin";
  std::remove(path.c_str());
  EXPECT_FALSE(ReadSnapshotFile(path).has_value());
  const std::string image("\0\1\2 snapshot \xff", 15);
  ASSERT_TRUE(WriteSnapshotFile(path, image).ok());
  EXPECT_EQ(ReadSnapshotFile(path).value_or(""), image);
  EXPECT_FALSE(ReadSnapshotFile(SnapshotTempPath(path)).has_value());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Loader fuzz

/// Runs `load` on every corruption of `image` — each single-bit flip, each
/// truncation length, appended bytes, seeded garbage (raw, and behind a
/// valid magic and version) — and returns how many it adopted; 0 is the
/// contract.
size_t CountAdoptedCorruptions(
    const std::string& image,
    const std::function<bool(const std::string&)>& load) {
  size_t adopted = 0;
  auto attempt = [&](const std::string& bytes, const char* what,
                     size_t at) {
    if (load(bytes)) {
      ++adopted;
      ADD_FAILURE() << what << " at " << at << " was adopted";
    }
  };
  for (size_t i = 0; i < image.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = image;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      attempt(flipped, "bit flip", i * 8 + bit);
    }
  }
  for (size_t len = 0; len < image.size(); ++len) {
    attempt(image.substr(0, len), "truncation", len);
  }
  Rng rng(2024);
  for (size_t extra = 1; extra <= 16; ++extra) {
    attempt(image + std::string(extra, '\0'), "zeros appended", extra);
    std::string tail;
    for (size_t k = 0; k < extra; ++k) {
      tail.push_back(static_cast<char>(rng.Uniform(256)));
    }
    attempt(image + tail, "bytes appended", extra);
  }
  for (size_t trial = 0; trial < 256; ++trial) {
    std::string garbage =
        trial % 2 == 0 ? std::string() : image.substr(0, 12);
    const size_t len = rng.Uniform(2 * image.size() + 1);
    for (size_t k = 0; k < len; ++k) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    attempt(garbage, "garbage trial", trial);
  }
  return adopted;
}

/// The image saved to a file and read back.
std::string ThroughFile(const std::string& image, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(WriteSnapshotFile(path, image).ok());
  const std::optional<std::string> bytes = ReadSnapshotFile(path);
  std::remove(path.c_str());
  EXPECT_TRUE(bytes.has_value());
  return bytes.value_or(std::string());
}

/// A cache of `n` seeded entries (random keys, costs across magnitudes).
void Populate(optimizer::WhatIfCache* cache, uint64_t seed, size_t n) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double cost = rng.NextDouble() * static_cast<double>(1 << (i % 20));
    ASSERT_TRUE(cache
                    ->GetOrCompute({rng.Next(), rng.Next()},
                                   [cost] { return Result<double>(cost); })
                    .ok());
  }
}

TEST(SnapshotFuzzTest, WhatIfCacheLoaderColdStartsOnEveryCorruption) {
  constexpr uint64_t kFingerprint = 0x5eed5eed;
  optimizer::WhatIfCache source(64);
  Populate(&source, /*seed=*/11, 40);
  const std::string image =
      ThroughFile(source.SaveTo(kFingerprint), "fuzz_whatif_cache.bin");

  // The clean file round-trips exactly: entries, costs and recency order.
  optimizer::WhatIfCache clean(64);
  Result<bool> adopted = clean.LoadFrom(image, kFingerprint);
  ASSERT_TRUE(adopted.ok());
  ASSERT_TRUE(adopted.ValueOrDie());
  EXPECT_EQ(clean.size(), 40u);
  EXPECT_EQ(clean.SaveTo(kFingerprint), image);

  // A cache with state of its own keeps it through every rejected load.
  optimizer::WhatIfCache target(64);
  Populate(&target, /*seed=*/12, 8);
  const std::string prior = target.SaveTo(kFingerprint);
  const size_t adopted_count =
      CountAdoptedCorruptions(image, [&](const std::string& bytes) {
        Result<bool> r = target.LoadFrom(bytes, kFingerprint);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        return r.ok() && r.ValueOrDie();
      });
  EXPECT_EQ(adopted_count, 0u);
  EXPECT_EQ(target.SaveTo(kFingerprint), prior);
  EXPECT_EQ(target.stats().hits, 0u);
}

/// A gate with seeded arms, measured rewards and quarantine entries.
core::ExplorationGate PopulatedGate(uint64_t seed, uint64_t fingerprint) {
  Rng rng(seed);
  core::ExplorationOptions options;
  options.quarantine_after_offenses = 2;
  options.regret_budget_seconds = 0.0;
  core::ExplorationGate gate(options);
  gate.SyncFingerprint(fingerprint);
  gate.ObserveFleetBenefit(rng.NextDouble());
  std::vector<core::CandidateIndex> candidates;
  core::CloneValidationResult validation;
  for (int i = 0; i < 6; ++i) {
    core::CandidateIndex c;
    c.def.table = static_cast<catalog::TableId>(rng.Uniform(3));
    c.def.columns = {static_cast<catalog::ColumnId>(rng.Uniform(9)),
                     static_cast<catalog::ColumnId>(10 + i)};
    c.def.name = "ix_";
    c.def.name += std::to_string(i);
    c.benefit = rng.NextDouble();
    c.maintenance = 0.01 * rng.NextDouble();
    c.benefiting_queries = {static_cast<uint64_t>(100 + i)};
    candidates.push_back(c);
    core::QueryValidation q;
    q.fingerprint = 100 + i;
    q.cpu_before = 1.0 + rng.NextDouble();
    q.cpu_after = rng.NextDouble();
    validation.per_query.push_back(q);
  }
  gate.Admit(candidates);
  gate.ObserveValidation(candidates, validation);
  // Candidates 0-2 offend twice each (quarantined), 3 once (not yet).
  for (int i = 0; i < 7; ++i) {
    gate.ObserveRegression(candidates[i < 6 ? i % 3 : 3].def);
  }
  return gate;
}

TEST(SnapshotFuzzTest, ExplorationGateLoaderColdStartsOnEveryCorruption) {
  constexpr uint64_t kFingerprint = 0xfeedf00d;
  const core::ExplorationGate source = PopulatedGate(21, kFingerprint);
  ASSERT_FALSE(source.quarantined_keys().empty());
  const std::string image =
      ThroughFile(source.SaveTo(), "fuzz_exploration_gate.bin");

  core::ExplorationGate clean;
  ASSERT_TRUE(clean.LoadFrom(image, kFingerprint));
  EXPECT_EQ(clean.SaveTo(), image);
  EXPECT_EQ(clean.quarantined_keys(), source.quarantined_keys());
  EXPECT_EQ(clean.arms().size(), source.arms().size());
  // Recorded under another fingerprint: a cold start too.
  core::ExplorationGate drifted;
  EXPECT_FALSE(drifted.LoadFrom(image, kFingerprint + 1));
  EXPECT_TRUE(drifted.arms().empty());

  core::ExplorationGate target = PopulatedGate(22, kFingerprint);
  const std::string prior = target.SaveTo();
  const size_t adopted_count =
      CountAdoptedCorruptions(image, [&](const std::string& bytes) {
        return target.LoadFrom(bytes, kFingerprint);
      });
  EXPECT_EQ(adopted_count, 0u);
  EXPECT_EQ(target.SaveTo(), prior);
}

// A well-formed frame around a random payload (what a writer bug, not a
// disk, would produce): the decoders must neither crash nor half-load.
TEST(SnapshotFuzzTest, DecodersSurviveSealedGarbage) {
  constexpr uint64_t kFingerprint = 77;
  optimizer::WhatIfCache cache(16);
  Populate(&cache, /*seed=*/31, 4);
  const std::string cache_prior = cache.SaveTo(kFingerprint);
  core::ExplorationGate gate = PopulatedGate(32, kFingerprint);
  const std::string gate_prior = gate.SaveTo();
  Rng rng(33);
  for (int trial = 0; trial < 2000; ++trial) {
    const SnapshotKind kind = trial % 2 == 0
                                  ? SnapshotKind::kWhatIfCache
                                  : SnapshotKind::kExplorationGate;
    SnapshotWriter out(kind);
    out.Put(kFingerprint);
    if (kind == SnapshotKind::kExplorationGate) out.Put(1.0);
    out.Put(static_cast<uint64_t>(rng.Uniform(4)));  // a small count
    const size_t len = rng.Uniform(200);
    for (size_t k = 0; k < len; ++k) {
      out.Put(static_cast<uint8_t>(rng.Uniform(256)));
    }
    const std::string image = std::move(out).Finish();
    if (kind == SnapshotKind::kWhatIfCache) {
      Result<bool> r = cache.LoadFrom(image, kFingerprint);
      ASSERT_TRUE(r.ok());
      if (!r.ValueOrDie()) {
        ASSERT_EQ(cache.SaveTo(kFingerprint), cache_prior) << trial;
      } else {
        ASSERT_TRUE(cache.LoadFrom(cache_prior, kFingerprint).ValueOrDie());
      }
    } else if (!gate.LoadFrom(image, kFingerprint)) {
      ASSERT_EQ(gate.SaveTo(), gate_prior) << trial;
    } else {
      ASSERT_TRUE(gate.LoadFrom(gate_prior, kFingerprint));
    }
  }
}

}  // namespace
}  // namespace aim
