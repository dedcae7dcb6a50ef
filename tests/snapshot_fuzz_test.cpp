// Structure-aware .rpsn mutation harness: seeded mutations of a valid
// selector-stack snapshot — header-field flips, CRC-repaired payload and
// aux-offset tampering (so corruption gets past the checksum gate and
// reaches the deep parsers), random byte flips, truncation, extension —
// asserting that the heap decoder and the mmap loader each either succeed
// or return a Status, never crash (run under ASan/UBSan in CI). When the
// mutation did not forge the checksum — i.e. anything a storage fault
// could actually produce — the two loaders must additionally agree bit
// for bit whenever both succeed; CRC-forging mutations model a hostile
// writer, where only the no-UB guarantee applies (the redundant model and
// aux sections are bound to each other by the writer, not the reader —
// see docs/ROBUSTNESS.md). Every assertion prints the failing case seed;
// rerun one case with
//   RPE_FUZZ_SEED=<seed> RPE_FUZZ_CASES=1 ./rpe_tests --gtest_filter='SnapshotFuzz*'
// Case count scales with RPE_FUZZ_CASES (default 300 locally, 10000 in
// the CI fuzz job).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/crc32.h"
#include "serving/mmap_arena.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::RandomRecords;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

size_t EnvCount(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return static_cast<size_t>(std::strtoull(env, nullptr, 10));
}

/// Per-process path: ctest runs each test of a suite in its own process,
/// concurrently under -j, and a suite fixture that writes (and maps) a
/// shared file would race its siblings.
std::string TempPath(const std::string& name) {
  return std::filesystem::temp_directory_path().string() + "/" +
         std::to_string(::getpid()) + "_" + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Bitwise equality for score vectors: "bit-identical" literally, so a
/// NaN produced by a tampered model payload (raw IEEE bits are data, not
/// UB) still compares equal to itself across loads.
bool BitEq(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Recompute the header CRC + payload-size fields after a payload or
/// aux-offset edit, so the mutation survives the checksum gate and
/// exercises the parsers behind it (header layout in snapshot.h).
void RepairCrc(std::string* bytes) {
  if (bytes->size() < 32) return;
  const uint64_t payload_size = bytes->size() - 32;
  uint32_t aux_offset = 0;
  std::memcpy(&aux_offset, bytes->data() + 28, 4);
  uint32_t crc = Crc32(&aux_offset, sizeof aux_offset);
  crc = Crc32(bytes->data() + 32, payload_size, crc);
  std::memcpy(bytes->data() + 16, &payload_size, 8);
  std::memcpy(bytes->data() + 24, &crc, 4);
}

/// One seeded structural mutation of valid snapshot bytes. Half the
/// classes repair the CRC afterwards — blind corruption tests the
/// checksum gate, repaired corruption tests everything behind it.
struct Mutation {
  std::string bytes;
  /// True when the CRC was recomputed over the tampered content. Such a
  /// file can only come from a hostile or buggy *writer* (the checksum
  /// binds the model and aux sections to each other only as far as the
  /// writer is honest), so the cross-loader bit-identity invariant is out
  /// of scope for it — only the no-UB/clean-Status invariant holds. See
  /// docs/ROBUSTNESS.md for the threat model.
  bool crc_repaired = false;
};

Mutation Mutate(const std::string& valid, uint64_t seed) {
  uint64_t rng = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  std::string bytes = valid;
  bool repaired = false;
  const int kind = static_cast<int>(SplitMix64(&rng) % 8);
  switch (kind) {
    case 0: {  // random byte flips, CRC left stale
      const size_t flips = 1 + SplitMix64(&rng) % 8;
      for (size_t i = 0; i < flips; ++i) {
        bytes[SplitMix64(&rng) % bytes.size()] ^=
            static_cast<char>(1 + SplitMix64(&rng) % 255);
      }
      break;
    }
    case 1: {  // header field <- random value (magic/version/kind/...)
      const size_t field = 4 * (SplitMix64(&rng) % 8);  // offsets 0..28
      const uint32_t value = static_cast<uint32_t>(SplitMix64(&rng));
      std::memcpy(bytes.data() + field, &value, 4);
      break;
    }
    case 2: {  // aux offset <- random, CRC repaired: steers both loaders
      const uint32_t aux = static_cast<uint32_t>(
          SplitMix64(&rng) % (2 * bytes.size()));
      std::memcpy(bytes.data() + 28, &aux, 4);
      RepairCrc(&bytes);
      repaired = true;
      break;
    }
    case 3: {  // payload byte flips, CRC repaired: reaches deep parsers
      const size_t flips = 1 + SplitMix64(&rng) % 16;
      for (size_t i = 0; i < flips; ++i) {
        bytes[32 + SplitMix64(&rng) % (bytes.size() - 32)] ^=
            static_cast<char>(1 + SplitMix64(&rng) % 255);
      }
      RepairCrc(&bytes);
      repaired = true;
      break;
    }
    case 4: {  // length-prefix-style tamper: overwrite an aligned u32 in
               // the payload with a huge value, CRC repaired
      const size_t at = 32 + 4 * (SplitMix64(&rng) % ((bytes.size() - 32) / 4));
      const uint32_t huge = 0x40000000u + static_cast<uint32_t>(
                                              SplitMix64(&rng) % 0x1000);
      std::memcpy(bytes.data() + at, &huge, 4);
      RepairCrc(&bytes);
      repaired = true;
      break;
    }
    case 5:  // truncate anywhere (possibly into the header)
      bytes.resize(SplitMix64(&rng) % bytes.size());
      break;
    case 6: {  // extend with random garbage, sometimes CRC repaired
      const size_t extra = 1 + SplitMix64(&rng) % 256;
      for (size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(SplitMix64(&rng)));
      }
      if (SplitMix64(&rng) % 2 == 0) {
        RepairCrc(&bytes);
        repaired = true;
      }
      break;
    }
    default: {  // swap two 8-byte slabs within the payload, CRC repaired
      if (bytes.size() > 32 + 16) {
        const size_t span = bytes.size() - 32 - 8;
        const size_t a = 32 + SplitMix64(&rng) % span;
        const size_t b = 32 + SplitMix64(&rng) % span;
        char tmp[8];
        std::memcpy(tmp, bytes.data() + a, 8);
        std::memcpy(bytes.data() + a, bytes.data() + b, 8);
        std::memcpy(bytes.data() + b, tmp, 8);
      }
      RepairCrc(&bytes);
      repaired = true;
      break;
    }
  }
  return {std::move(bytes), repaired};
}

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    probes_ = new std::vector<PipelineRecord>(RandomRecords(6, 41));
    MartParams params;
    params.num_trees = 10;
    params.tree.max_leaves = 8;
    params.seed = 7;
    valid_ = new std::string(EncodeSelectorStack(SelectorStack::Train(
        RandomRecords(60, 51), PoolOriginalThree(), params)));
    path_ = new std::string(TempPath("rpe_snapshot_fuzz.rpsn"));
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete probes_;
    delete valid_;
    delete path_;
    probes_ = nullptr;
    valid_ = nullptr;
    path_ = nullptr;
  }

  /// The harness invariant for one mutated buffer: both loaders return
  /// ok-or-Status (a crash fails the sanitizer run). With an unforged
  /// CRC the loaders must also agree bit for bit when both succeed; with
  /// a forged CRC (hostile-writer model) the mmap loader must still be
  /// deterministic — two loads of the same bytes score identically.
  static void CheckOneCase(const Mutation& m, uint64_t seed) {
    const auto heap = DecodeSelectorStack(m.bytes);
    ASSERT_NO_FATAL_FAILURE(WriteBytes(*path_, m.bytes)) << "seed=" << seed;
    const auto mapped = LoadSelectorStackMmap(*path_);
    if (!mapped.ok()) return;
    if (!m.crc_repaired && heap.ok()) {
      for (const PipelineRecord& r : *probes_) {
        ASSERT_TRUE(BitEq(
            heap->static_selector.PredictErrors(r.features),
            mapped->stack->static_selector.PredictErrors(r.features)))
            << "loaders disagree, seed=" << seed;
        ASSERT_TRUE(BitEq(
            heap->dynamic_selector.PredictErrors(r.features),
            mapped->stack->dynamic_selector.PredictErrors(r.features)))
            << "loaders disagree, seed=" << seed;
      }
    }
    const auto again = LoadSelectorStackMmap(*path_);
    ASSERT_TRUE(again.ok()) << "mmap load not deterministic, seed=" << seed;
    for (const PipelineRecord& r : *probes_) {
      ASSERT_TRUE(BitEq(
          again->stack->static_selector.PredictErrors(r.features),
          mapped->stack->static_selector.PredictErrors(r.features)))
          << "mmap load not deterministic, seed=" << seed;
    }
  }

  static std::vector<PipelineRecord>* probes_;
  static std::string* valid_;   ///< encoded valid stack, mutation base
  static std::string* path_;    ///< scratch file for the mmap loader
};

std::vector<PipelineRecord>* SnapshotFuzzTest::probes_ = nullptr;
std::string* SnapshotFuzzTest::valid_ = nullptr;
std::string* SnapshotFuzzTest::path_ = nullptr;

TEST_F(SnapshotFuzzTest, UnmutatedBaselineLoadsThroughBothPaths) {
  // Guards the harness itself: if the base bytes ever stopped loading,
  // every mutated case would pass vacuously.
  ASSERT_TRUE(DecodeSelectorStack(*valid_).ok());
  WriteBytes(*path_, *valid_);
  auto mapped = LoadSelectorStackMmap(*path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_FALSE(mapped->stack->static_selector.has_models());
  CheckOneCase({*valid_, false}, 0);
}

TEST_F(SnapshotFuzzTest, SeededMutationsNeverCrashEitherLoader) {
  const size_t cases = EnvCount("RPE_FUZZ_CASES", 300);
  const uint64_t base_seed = EnvCount("RPE_FUZZ_SEED", 1);
  for (size_t i = 0; i < cases; ++i) {
    const uint64_t seed = base_seed + i;
    const Mutation mutated = Mutate(*valid_, seed);
    ASSERT_NO_FATAL_FAILURE(CheckOneCase(mutated, seed))
        << "rerun: RPE_FUZZ_SEED=" << seed << " RPE_FUZZ_CASES=1";
  }
}

TEST_F(SnapshotFuzzTest, MutatedRecordBatchesNeverCrashTheDecoder) {
  // The record-batch payload shares the container but has its own parser;
  // give it the same treatment on a smaller budget.
  const size_t cases = EnvCount("RPE_FUZZ_CASES", 300) / 4 + 1;
  const uint64_t base_seed = EnvCount("RPE_FUZZ_SEED", 1) + 0x10000000ull;
  const std::string valid = EncodeRecordBatch(RandomRecords(20, 61));
  for (size_t i = 0; i < cases; ++i) {
    const uint64_t seed = base_seed + i;
    const Mutation mutated = Mutate(valid, seed);
    const auto decoded = DecodeRecordBatch(mutated.bytes);
    if (decoded.ok()) continue;  // surviving a benign mutation is fine
    EXPECT_FALSE(decoded.status().ToString().empty()) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace rpe
