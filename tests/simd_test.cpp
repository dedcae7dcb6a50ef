// Differential bit-exactness suite for the SIMD dispatch layer
// (common/simd.h) and its three kernels: the PCLMUL CRC-32
// (common/crc32.h), the run-detecting histogram accumulator
// (mart/tree.h AccumulateColumnDense), and the AVX2 batched QuickScorer
// (mart/flat_ensemble.h PredictAllBatch). The repo's determinism contract
// says a SIMD tier may only change throughput, never a bit of output —
// every test here forces each tier in turn and asserts the vector path is
// bitwise identical to the always-compiled scalar reference, on seeded
// random inputs plus the adversarial shapes (empty/tail sizes, NaN, ±inf,
// denormals, constant and 255-bin columns).
//
// Randomized cases are replayable like the fuzz suites: every assertion
// prints its case seed, and
//   RPE_FUZZ_SEED=<seed> RPE_FUZZ_CASES=1 ./rpe_tests --gtest_filter='Simd*'
// reruns exactly that case. The suite also verifies the dispatch facade
// itself (RPE_SIMD parsing, forced-tier kernel reports), which is what
// the RPE_SIMD=off CI leg leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/simd.h"
#include "mart/flat_ensemble.h"
#include "mart/tree.h"
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

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

/// Uniform double in [0, 1) from the replay PRNG.
double NextUnit(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

/// Force a tier for one scope, restoring the previous binding on exit so
/// test order never leaks a tier into another test (or into the RPE_SIMD
/// startup state the EnvOverride test asserts on).
class TierGuard {
 public:
  explicit TierGuard(simd::Tier tier) : prev_(simd::ActiveTier()) {
    simd::ForceTier(tier);
  }
  ~TierGuard() { simd::ForceTier(prev_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  simd::Tier prev_;
};

const simd::Tier kAllTiers[] = {simd::Tier::kScalar, simd::Tier::kSse42,
                                simd::Tier::kAvx2};

bool BitEq(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Bit-equality with NaNs compared as a class. NaN *payload/sign* bits
/// are outside the determinism contract: IEEE 754 leaves NaN propagation
/// through `+` unspecified — x86 addsd keeps the first operand's payload,
/// and which operand the compiler puts first for a commutative `+`
/// differs even between -O0 and -O2 builds of the same scalar loop (seen
/// live: quiet_NaN vs the -NaN from inf + -inf surviving a histogram
/// sum). Every NaN compares unequal everywhere downstream regardless of
/// payload, and nothing the repo serializes contains NaNs, so the
/// differential contract for sums over hostile inputs is: bit-equal,
/// except any NaN matches any NaN.
bool BitEqModuloNaN(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Dispatch facade
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ParseTierAcceptsTheDocumentedNames) {
  simd::Tier tier;
  ASSERT_TRUE(simd::ParseTier("off", &tier));
  EXPECT_EQ(tier, simd::Tier::kScalar);
  ASSERT_TRUE(simd::ParseTier("scalar", &tier));
  EXPECT_EQ(tier, simd::Tier::kScalar);
  ASSERT_TRUE(simd::ParseTier("sse42", &tier));
  EXPECT_EQ(tier, simd::Tier::kSse42);
  ASSERT_TRUE(simd::ParseTier("avx2", &tier));
  EXPECT_EQ(tier, simd::Tier::kAvx2);
  EXPECT_FALSE(simd::ParseTier("", &tier));
  EXPECT_FALSE(simd::ParseTier("AVX2", &tier));
  EXPECT_FALSE(simd::ParseTier("sse4.2", &tier));
  EXPECT_FALSE(simd::ParseTier("neon", &tier));
}

TEST(SimdDispatch, ForceTierClampsToDetectedAndRebindsEveryKernel) {
  const simd::Tier detected = simd::DetectedTier();
  for (simd::Tier tier : kAllTiers) {
    TierGuard guard(tier);
    const simd::Tier want = std::min(tier, detected);
    EXPECT_EQ(simd::ActiveTier(), want);
    const std::string report = simd::KernelReport();
    EXPECT_EQ(report.find(std::string("tier=") + simd::TierName(want)), 0u)
        << report;
    // Every registered kernel must appear in the report with a concrete
    // implementation name (the registrar wiring, not string cosmetics).
    for (const char* kernel : {"accumulate=", "batch_score=", "crc32="}) {
      EXPECT_NE(report.find(kernel), std::string::npos)
          << "missing " << kernel << " in: " << report;
    }
    if (want == simd::Tier::kScalar) {
      EXPECT_NE(report.find("accumulate=scalar"), std::string::npos)
          << report;
      EXPECT_NE(report.find("batch_score=scalar"), std::string::npos)
          << report;
      EXPECT_NE(report.find("crc32=slice8"), std::string::npos) << report;
    }
    if (want >= simd::Tier::kSse42) {
      EXPECT_NE(report.find("crc32=pclmul"), std::string::npos) << report;
    }
    if (want == simd::Tier::kAvx2) {
      EXPECT_NE(report.find("accumulate=avx2"), std::string::npos) << report;
      EXPECT_NE(report.find("batch_score=avx2"), std::string::npos)
          << report;
    }
  }
}

/// With RPE_SIMD set in the environment (the CI `RPE_SIMD=off` leg), the
/// startup parse must actually have taken effect — this is the test that
/// proves the off-leg really ran scalar code and wasn't a no-op.
TEST(SimdDispatch, EnvOverrideIsRespectedAtStartup) {
  const char* env = std::getenv("RPE_SIMD");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "RPE_SIMD not set";
  }
  simd::Tier want;
  if (!simd::ParseTier(env, &want)) {
    GTEST_SKIP() << "RPE_SIMD='" << env << "' is not a valid tier "
                 << "(startup warned and fell back to detected)";
  }
  EXPECT_EQ(simd::ActiveTier(), std::min(want, simd::DetectedTier()));
}

// ---------------------------------------------------------------------------
// Crc32
// ---------------------------------------------------------------------------

/// Known-answer vectors for CRC-32/ISO-HDLC (the zlib crc32), generated
/// with python3 zlib — both the scalar reference and every dispatched
/// tier must produce these exact words.
struct CrcKat {
  std::string data;
  uint32_t crc;
};

std::vector<CrcKat> CrcKats() {
  return {
      {"", 0x00000000u},
      {"a", 0xE8B7BE43u},
      {"abc", 0x352441C2u},
      {"123456789", 0xCBF43926u},
      {"The quick brown fox jumps over the lazy dog", 0x414FA339u},
      {std::string(32, '\0'), 0x190A55ADu},
  };
}

TEST(SimdCrc32, KnownAnswersOnEveryTier) {
  auto kats = CrcKats();
  {
    std::string bytes(256, '\0');
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<char>(i);
    }
    kats.push_back({bytes, 0x29058C73u});
  }
  for (const CrcKat& kat : kats) {
    EXPECT_EQ(Crc32Scalar(kat.data.data(), kat.data.size()), kat.crc)
        << "scalar, len " << kat.data.size();
    for (simd::Tier tier : kAllTiers) {
      TierGuard guard(tier);
      EXPECT_EQ(Crc32(kat.data.data(), kat.data.size()), kat.crc)
          << "tier " << simd::TierName(simd::ActiveTier()) << ", len "
          << kat.data.size();
    }
  }
}

TEST(SimdCrc32, DifferentialAgainstScalarAcrossSizesAndOffsets) {
  const uint64_t base_seed = EnvU64("RPE_FUZZ_SEED", 0xC5C32025ull);
  // Sizes straddle every kernel boundary: sub-8 scalar tail, sub-64
  // fold cutoff, 16-byte fold granularity, and large buffers.
  const size_t sizes[] = {0,  1,  7,   8,   15,  16,   63,  64,
                         65, 80, 100, 255, 256, 1000, 4096};
  const size_t num_cases = EnvU64("RPE_FUZZ_CASES", 4);
  for (size_t c = 0; c < num_cases; ++c) {
    const uint64_t case_seed = base_seed + c;
    uint64_t state = case_seed;
    std::vector<unsigned char> buf(4096 + 9);
    for (auto& b : buf) {
      b = static_cast<unsigned char>(SplitMix64(&state));
    }
    for (size_t size : sizes) {
      for (size_t offset : {size_t{0}, size_t{1}, size_t{9}}) {
        const unsigned char* p = buf.data() + offset;
        const uint32_t seed32 =
            static_cast<uint32_t>(SplitMix64(&state));
        const uint32_t want = Crc32Scalar(p, size, seed32);
        for (simd::Tier tier : kAllTiers) {
          TierGuard guard(tier);
          EXPECT_EQ(Crc32(p, size, seed32), want)
              << "case seed " << case_seed << ", tier "
              << simd::TierName(simd::ActiveTier()) << ", size " << size
              << ", offset " << offset;
        }
      }
    }
  }
}

TEST(SimdCrc32, ChainedMultiSlabEqualsOneShotOnEveryTier) {
  const uint64_t case_seed = EnvU64("RPE_FUZZ_SEED", 0xABCDull);
  uint64_t state = case_seed;
  std::vector<unsigned char> buf(10000);
  for (auto& b : buf) b = static_cast<unsigned char>(SplitMix64(&state));
  // Slab cuts land mid-word, mid-fold-block, and at zero-length slabs —
  // the snapshot writer checksums section by section exactly like this.
  const size_t cuts[] = {0, 3, 3, 64, 91, 1000, 1001, 4096, 10000};
  for (simd::Tier tier : kAllTiers) {
    TierGuard guard(tier);
    const uint32_t one_shot = Crc32(buf.data(), buf.size());
    uint32_t chained = 0;
    size_t prev = 0;
    for (size_t cut : cuts) {
      chained = Crc32(buf.data() + prev, cut - prev, chained);
      prev = cut;
    }
    EXPECT_EQ(chained, one_shot)
        << "case seed " << case_seed << ", tier "
        << simd::TierName(simd::ActiveTier());
  }
}

// ---------------------------------------------------------------------------
// AccumulateColumnDense
// ---------------------------------------------------------------------------

/// Build a residual with hostile values sprinkled in: NaN, ±inf, and
/// denormals all flow through histogram sums in real training when a
/// feature extractor misbehaves, and the vector path must reproduce the
/// scalar sums bit for bit — modulo NaN payloads, which no build of the
/// scalar loop pins down either (see BitEqModuloNaN).
std::vector<double> HostileResiduals(size_t n, uint64_t* state) {
  std::vector<double> res(n);
  for (size_t i = 0; i < n; ++i) {
    switch (SplitMix64(state) % 16) {
      case 0:
        res[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        res[i] = std::numeric_limits<double>::infinity();
        break;
      case 2:
        res[i] = -std::numeric_limits<double>::infinity();
        break;
      case 3:
        res[i] = std::numeric_limits<double>::denorm_min() *
                 static_cast<double>(1 + SplitMix64(state) % 7);
        break;
      default:
        res[i] = NextUnit(state) * 2.0 - 1.0;
    }
  }
  return res;
}

void ExpectAccumulateMatchesScalar(const std::vector<uint8_t>& col,
                                   const std::vector<double>& res,
                                   size_t num_bins, uint64_t case_seed,
                                   const char* what) {
  ASSERT_EQ(col.size(), res.size());
  std::vector<double> want_sum(num_bins, 0.0);
  std::vector<uint32_t> want_cnt(num_bins, 0);
  AccumulateColumnDenseScalar(col.data(), res.data(), col.size(),
                              want_sum.data(), want_cnt.data());
  for (simd::Tier tier : kAllTiers) {
    TierGuard guard(tier);
    std::vector<double> sum(num_bins, 0.0);
    std::vector<uint32_t> cnt(num_bins, 0);
    AccumulateColumnDense(col.data(), res.data(), col.size(), sum.data(),
                          cnt.data());
    EXPECT_TRUE(BitEqModuloNaN(sum, want_sum))
        << what << ": sums diverge, case seed " << case_seed << ", tier "
        << simd::TierName(simd::ActiveTier()) << ", n " << col.size();
    EXPECT_EQ(cnt, want_cnt)
        << what << ": counts diverge, case seed " << case_seed << ", tier "
        << simd::TierName(simd::ActiveTier()) << ", n " << col.size();
  }
}

TEST(SimdAccumulate, DifferentialAcrossColumnShapes) {
  const uint64_t base_seed = EnvU64("RPE_FUZZ_SEED", 0xACC00ull);
  const size_t num_cases = EnvU64("RPE_FUZZ_CASES", 6);
  // Straddle the 32-byte chunk size and its tails.
  const size_t sizes[] = {0, 1, 7, 31, 32, 33, 63, 64, 100, 257, 1000};
  constexpr size_t kBins = 256;
  for (size_t c = 0; c < num_cases; ++c) {
    const uint64_t case_seed = base_seed + c;
    for (size_t n : sizes) {
      uint64_t state = case_seed ^ (n * 0x9E37ull);
      const std::vector<double> res = HostileResiduals(n, &state);
      std::vector<uint8_t> col(n);

      // Random bins: defeats the run detector, exercising the mixed-chunk
      // scalar fallback inside the vector kernel.
      for (auto& b : col) b = static_cast<uint8_t>(SplitMix64(&state));
      ExpectAccumulateMatchesScalar(col, res, kBins, case_seed, "random");

      // All bins equal (single maximal run), including the 255 edge bin.
      std::fill(col.begin(), col.end(), uint8_t{255});
      ExpectAccumulateMatchesScalar(col, res, kBins, case_seed, "const255");
      std::fill(col.begin(), col.end(), uint8_t{0});
      ExpectAccumulateMatchesScalar(col, res, kBins, case_seed, "const0");

      // Sorted bins (a binned monotone feature): long runs with
      // boundaries that move every case.
      for (size_t i = 0; i < n; ++i) {
        col[i] = static_cast<uint8_t>((i * kBins) / (n + 1));
      }
      ExpectAccumulateMatchesScalar(col, res, kBins, case_seed, "sorted");

      // Short alternating runs: uniform probe passes on some chunks,
      // fails on others.
      for (size_t i = 0; i < n; ++i) {
        col[i] = static_cast<uint8_t>((i / 40) % 3);
      }
      ExpectAccumulateMatchesScalar(col, res, kBins, case_seed, "runs40");
    }
  }
}

// ---------------------------------------------------------------------------
// Batched QuickScorer
// ---------------------------------------------------------------------------

FlatEnsembleSet SmallTrainedSet(uint64_t seed, size_t num_models) {
  const size_t nf = 6;
  std::vector<MartModel> models;
  Rng rng(seed);
  for (size_t m = 0; m < num_models; ++m) {
    Dataset data(nf);
    std::vector<double> x(nf);
    for (size_t i = 0; i < 400; ++i) {
      for (auto& v : x) v = rng.NextDouble();
      const double y = x[0] * 0.7 + (x[1] > 0.4 ? 0.5 : -0.2) +
                       x[2] * x[3] + 0.1 * rng.NextGaussian();
      RPE_CHECK_OK(data.AddExample(x, y));
    }
    MartParams params;
    params.num_trees = 25;
    params.seed = seed + m;
    models.push_back(MartModel::Train(data, params));
  }
  return FlatEnsembleSet::Compile(models);
}

/// Feature rows for the batch differential: mostly in-distribution, with
/// NaN / ±inf / denormal / far-out-of-range lanes mixed in so NaN-lane
/// handling and threshold compares at the extremes are all exercised.
std::vector<std::vector<double>> HostileRows(size_t num_rows, size_t nf,
                                             uint64_t* state) {
  std::vector<std::vector<double>> rows(num_rows);
  for (auto& row : rows) {
    row.resize(nf);
    for (auto& v : row) {
      switch (SplitMix64(state) % 12) {
        case 0:
          v = std::numeric_limits<double>::quiet_NaN();
          break;
        case 1:
          v = std::numeric_limits<double>::infinity();
          break;
        case 2:
          v = -std::numeric_limits<double>::infinity();
          break;
        case 3:
          v = std::numeric_limits<double>::denorm_min();
          break;
        case 4:
          v = (NextUnit(state) - 0.5) * 1e300;
          break;
        default:
          v = NextUnit(state) * 2.0 - 0.5;
      }
    }
  }
  return rows;
}

TEST(SimdBatchScore, DifferentialAgainstPerRowScoring) {
  const uint64_t base_seed = EnvU64("RPE_FUZZ_SEED", 0xBA7C4ull);
  const size_t num_cases = EnvU64("RPE_FUZZ_CASES", 3);
  // Batch sizes around the 8-row tile: empty, sub-tile tails, exact
  // tiles, and multi-tile with a tail.
  const size_t batch_sizes[] = {0, 1, 7, 8, 9, 64, 67};
  for (size_t c = 0; c < num_cases; ++c) {
    const uint64_t case_seed = base_seed + c;
    const FlatEnsembleSet set = SmallTrainedSet(case_seed, 3);
    const size_t nm = set.num_models();
    uint64_t state = case_seed;
    for (size_t num_rows : batch_sizes) {
      const auto rows = HostileRows(num_rows, 6, &state);
      std::vector<const double*> ptrs(num_rows);
      for (size_t r = 0; r < num_rows; ++r) ptrs[r] = rows[r].data();

      // Per-row reference, computed once (PredictAll is itself pinned
      // bit-exact to the tree walk by flat_ensemble_test).
      std::vector<double> want(num_rows * nm);
      for (size_t r = 0; r < num_rows; ++r) {
        set.PredictAll(rows[r],
                       std::span<double>(want.data() + r * nm, nm));
      }

      for (simd::Tier tier : kAllTiers) {
        TierGuard guard(tier);
        std::vector<double> got(num_rows * nm, -1.0);
        set.PredictAllBatch(ptrs, got);
        EXPECT_TRUE(BitEq(got, want))
            << "case seed " << case_seed << ", tier "
            << simd::TierName(simd::ActiveTier()) << ", rows " << num_rows;

        std::vector<size_t> argmin(num_rows, ~size_t{0});
        set.ArgMinBatch(ptrs, argmin);
        for (size_t r = 0; r < num_rows; ++r) {
          EXPECT_EQ(argmin[r], set.ArgMin(rows[r]))
              << "case seed " << case_seed << ", tier "
              << simd::TierName(simd::ActiveTier()) << ", row " << r;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end tier independence: training, serialization, snapshots
// ---------------------------------------------------------------------------

/// Training runs the accumulate kernel millions of times; if any tier
/// perturbed one bit of one histogram sum, the fitted trees — and hence
/// the serialized stack — would diverge. Byte-equal encodes across tiers
/// is the whole-pipeline form of the differential tests above.
TEST(SimdEndToEnd, TrainedStackEncodesIdenticallyOnEveryTier) {
  const auto records = RandomRecords(40, 77);
  std::string reference;
  for (simd::Tier tier : kAllTiers) {
    TierGuard guard(tier);
    MartParams params = EstimatorSelector::DefaultParams();
    params.num_trees = 10;
    const SelectorStack stack =
        SelectorStack::Train(records, PoolOriginalThree(), params);
    const std::string encoded = EncodeSelectorStack(stack);
    if (reference.empty()) {
      reference = encoded;
    } else {
      EXPECT_EQ(encoded, reference)
          << "tier " << simd::TierName(simd::ActiveTier())
          << " trained or encoded a different stack";
    }
  }
  ASSERT_FALSE(reference.empty());
}

/// Snapshot round trip pinned to each tier: a stack saved under one CRC
/// implementation must load (CRC-verify) under every other, through both
/// the heap decoder and the zero-copy mmap arena, and score identically.
TEST(SimdEndToEnd, SnapshotRoundTripsAcrossTiers) {
  const auto records = RandomRecords(30, 99);
  MartParams params = EstimatorSelector::DefaultParams();
  params.num_trees = 8;
  const SelectorStack stack =
      SelectorStack::Train(records, PoolOriginalThree(), params);
  const std::string path =
      std::filesystem::temp_directory_path().string() + "/simd_stack.rpsn";

  const std::vector<double> probe = records[0].features;
  const std::vector<double> want =
      stack.dynamic_selector.PredictErrors(probe);

  for (simd::Tier save_tier : kAllTiers) {
    {
      TierGuard guard(save_tier);
      ASSERT_TRUE(SaveSelectorStack(stack, path).ok());
    }
    for (simd::Tier load_tier : kAllTiers) {
      TierGuard guard(load_tier);
      auto loaded = LoadSelectorStack(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_TRUE(
          BitEq(loaded.ValueOrDie().dynamic_selector.PredictErrors(probe),
                want));
      auto mapped = LoadSelectorStackMmap(path);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      EXPECT_FALSE(
          mapped.ValueOrDie().stack->dynamic_selector.has_models());
      EXPECT_TRUE(BitEq(
          mapped.ValueOrDie().stack->dynamic_selector.PredictErrors(probe),
          want));
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rpe
