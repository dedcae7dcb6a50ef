// Zero-copy snapshot arena tests: mmap-loaded stacks must score
// bit-identically to heap-loaded ones, and every flavor of damage — a
// missing or misaligned aux section, truncation, corruption, hostile
// compiled tables — must be rejected with a Status, never UB.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "mart/flat_ensemble.h"
#include "serving/mmap_arena.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::RandomRecords;

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

/// Patch the header of raw snapshot bytes after a payload edit: payload
/// size, CRC (over the aux-offset field, then the payload), aux offset
/// (header layout documented in snapshot.h).
void ReframeHeader(std::string* bytes, uint32_t aux_offset) {
  const uint64_t payload_size = bytes->size() - 32;
  const uint32_t crc = Crc32(bytes->data() + 32, payload_size,
                             Crc32(&aux_offset, sizeof aux_offset));
  std::memcpy(bytes->data() + 16, &payload_size, 8);
  std::memcpy(bytes->data() + 24, &crc, 4);
  std::memcpy(bytes->data() + 28, &aux_offset, 4);
}

uint32_t ReadAuxOffset(const std::string& bytes) {
  uint32_t aux = 0;
  std::memcpy(&aux, bytes.data() + 28, 4);
  return aux;
}

class MmapArenaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<PipelineRecord>(RandomRecords(80, 11));
    MartParams params;
    params.num_trees = 12;
    params.tree.max_leaves = 8;
    params.seed = 7;
    stack_ = new SelectorStack(
        SelectorStack::Train(*records_, PoolOriginalThree(), params));
    path_ = new std::string(TempPath("rpe_mmap_arena_test.rpsn"));
    RPE_CHECK_OK(SaveSelectorStack(*stack_, *path_));
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete records_;
    delete stack_;
    delete path_;
    records_ = nullptr;
    stack_ = nullptr;
    path_ = nullptr;
  }

  static void ExpectScoresMatchOriginal(const SelectorStack& loaded) {
    for (const auto& pair :
         {std::make_pair(&stack_->static_selector, &loaded.static_selector),
          std::make_pair(&stack_->dynamic_selector,
                         &loaded.dynamic_selector)}) {
      EXPECT_EQ(pair.first->pool(), pair.second->pool());
      for (const PipelineRecord& r : *records_) {
        // Bit-identical, not approximately equal.
        ASSERT_EQ(pair.first->PredictErrors(r.features),
                  pair.second->PredictErrors(r.features));
        ASSERT_EQ(pair.first->SelectForRecord(r),
                  pair.second->SelectForRecord(r));
      }
    }
  }

  static std::vector<PipelineRecord>* records_;
  static SelectorStack* stack_;
  static std::string* path_;
};

std::vector<PipelineRecord>* MmapArenaTest::records_ = nullptr;
SelectorStack* MmapArenaTest::stack_ = nullptr;
std::string* MmapArenaTest::path_ = nullptr;

TEST_F(MmapArenaTest, ZeroCopyLoadScoresBitIdentically) {
  auto loaded = LoadSelectorStackMmap(*path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded->mapped_bytes, 0u);
  // Model-free: the arena stack is a scoring artifact.
  EXPECT_FALSE(loaded->stack->static_selector.has_models());
  EXPECT_FALSE(loaded->stack->dynamic_selector.has_models());
  ExpectScoresMatchOriginal(*loaded->stack);

  // The heap loader over the same file agrees bit for bit too.
  auto heap = LoadSelectorStack(*path_);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  for (const PipelineRecord& r : *records_) {
    ASSERT_EQ(heap->static_selector.PredictErrors(r.features),
              loaded->stack->static_selector.PredictErrors(r.features));
    ASSERT_EQ(heap->dynamic_selector.PredictErrors(r.features),
              loaded->stack->dynamic_selector.PredictErrors(r.features));
  }

  // FeatureImportance survives the model-free rebuild via persisted gains.
  EXPECT_EQ(stack_->static_selector.FeatureImportance(),
            loaded->stack->static_selector.FeatureImportance());
  EXPECT_EQ(stack_->dynamic_selector.FeatureImportance(),
            loaded->stack->dynamic_selector.FeatureImportance());
}

TEST_F(MmapArenaTest, ArenaOutlivesLoaderScope) {
  std::shared_ptr<const SelectorStack> stack;
  {
    auto loaded = LoadSelectorStackMmap(*path_);
    ASSERT_TRUE(loaded.ok());
    stack = loaded->stack;
  }
  // The ArenaStackLoad is gone; the aliased shared_ptr must keep the
  // mapping alive (scoring reads mapped bytes).
  ExpectScoresMatchOriginal(*stack);
}

TEST_F(MmapArenaTest, MisalignedAuxSectionIsRejected) {
  // Shift the aux section by 4 bytes: every 8-aligned slab is now
  // misaligned. The model payload is untouched, yet both loaders must
  // refuse the file — there is no copy fallback.
  std::string bytes = EncodeSelectorStack(*stack_);
  const uint32_t aux = ReadAuxOffset(bytes);
  ASSERT_GT(aux, 0u);
  bytes.insert(32 + aux, 4, '\0');
  ReframeHeader(&bytes, aux + 4);
  const std::string path = TempPath("rpe_mmap_arena_misaligned.rpsn");
  WriteBytes(path, bytes);

  auto loaded = LoadSelectorStackMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("misaligned"), std::string::npos)
      << loaded.status().ToString();
  auto heap = LoadSelectorStack(path);
  ASSERT_FALSE(heap.ok());
  EXPECT_EQ(heap.status().message(), loaded.status().message());
  std::remove(path.c_str());
}

TEST_F(MmapArenaTest, TruncatedFilesAreRejected) {
  std::string bytes = EncodeSelectorStack(*stack_);
  const std::string path = TempPath("rpe_mmap_arena_trunc.rpsn");
  for (size_t keep : {size_t{0}, size_t{16}, size_t{32}, bytes.size() / 2,
                      bytes.size() - 1}) {
    WriteBytes(path, bytes.substr(0, keep));
    auto loaded = LoadSelectorStackMmap(path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes loaded";
  }
  std::remove(path.c_str());
}

TEST_F(MmapArenaTest, CorruptedAuxPayloadIsRejected) {
  std::string bytes = EncodeSelectorStack(*stack_);
  bytes[bytes.size() - 5] ^= 0x5A;  // inside the aux section
  const std::string path = TempPath("rpe_mmap_arena_crc.rpsn");
  WriteBytes(path, bytes);
  auto loaded = LoadSelectorStackMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST_F(MmapArenaTest, BogusAuxOffsetIsRejected) {
  std::string bytes = EncodeSelectorStack(*stack_);
  const uint32_t aux = ReadAuxOffset(bytes);
  const std::string path = TempPath("rpe_mmap_arena_auxoff.rpsn");

  // A flipped aux-offset byte without a matching CRC is corruption: the
  // v2 CRC covers the offset field, so this must read as a CRC mismatch.
  {
    std::string bad = bytes;
    bad[28] ^= 0x01;
    WriteBytes(path, bad);
    auto loaded = LoadSelectorStackMmap(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos)
        << loaded.status().ToString();
  }
  // Consistently re-framed but past the payload: bounded at unframe time.
  {
    std::string bad = bytes;
    // 8-aligned, so the bound (not the alignment check) is what trips.
    ReframeHeader(&bad, static_cast<uint32_t>(bad.size() + 7) & ~7u);
    WriteBytes(path, bad);
    EXPECT_FALSE(LoadSelectorStackMmap(path).ok());
  }
  // Consistently re-framed without an aux section: every selector stack
  // carries one, so both loaders refuse it at unframe time.
  {
    std::string bad = bytes;
    ReframeHeader(&bad, 0);
    WriteBytes(path, bad);
    auto loaded = LoadSelectorStackMmap(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("without an aux section"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_FALSE(DecodeSelectorStack(bad).ok());
  }
  // Consistently re-framed but pointing mid-section (8-aligned, so it
  // gets past the alignment check): the flat magic check trips.
  {
    std::string bad = bytes;
    ReframeHeader(&bad, aux + 8);
    WriteBytes(path, bad);
    auto loaded = LoadSelectorStackMmap(path);
    EXPECT_FALSE(loaded.ok());
  }
  std::remove(path.c_str());
}

TEST_F(MmapArenaTest, MissingAndEmptyFilesAreErrors) {
  EXPECT_FALSE(LoadSelectorStackMmap(TempPath("rpe_no_such_file.rpsn")).ok());
  const std::string path = TempPath("rpe_mmap_arena_empty.rpsn");
  WriteBytes(path, "");
  EXPECT_FALSE(LoadSelectorStackMmap(path).ok());
  std::remove(path.c_str());
}

TEST_F(MmapArenaTest, EncodingModelFreeStackDies) {
  auto loaded = LoadSelectorStackMmap(*path_);
  ASSERT_TRUE(loaded.ok());
  // A zero-copy stack has nothing to persist; re-encoding it must be a
  // loud programming error, not a silent empty model section.
  EXPECT_DEATH(EncodeSelectorStack(*loaded->stack), "model-free");
}

// ---------------------------------------------------------------------------
// FlatEnsembleSet::FromParts: the structural gate hostile compiled tables
// must not get past. Parts are cloned from a genuinely compiled set and
// then damaged one table at a time.

class FromPartsTest : public ::testing::Test {
 protected:
  static flat_internal::MergedQuickScorer CloneParts(
      const FlatEnsembleSet& set) {
    flat_internal::MergedQuickScorer parts = set.merged();
    // FromParts expects a persisted leaf table, which carries the 64-slot
    // guard tail the snapshot writer appends.
    parts.leaf_value.vec().resize(parts.leaf_value.size() + kQsLeafGuard,
                                  0.0);
    return parts;
  }

  static void SetUpTestSuite() {
    Dataset data(4);
    Rng rng(3);
    std::vector<double> x(4);
    for (size_t i = 0; i < 400; ++i) {
      for (auto& v : x) v = rng.NextDouble();
      RPE_CHECK_OK(data.AddExample(x, x[0] + 0.3 * x[2]));
    }
    MartParams params;
    params.num_trees = 8;
    params.tree.max_leaves = 6;
    std::vector<MartModel> models;
    for (int m = 0; m < 3; ++m) {
      params.seed = static_cast<uint64_t>(m + 1);
      models.push_back(MartModel::Train(data, params));
    }
    set_ = new FlatEnsembleSet(FlatEnsembleSet::Compile(models));
  }
  static void TearDownTestSuite() {
    delete set_;
    set_ = nullptr;
  }

  static FlatEnsembleSet* set_;
  static constexpr size_t kInputs = 4;
};

FlatEnsembleSet* FromPartsTest::set_ = nullptr;

TEST_F(FromPartsTest, IntactPartsRebuildAndScoreIdentically) {
  auto rebuilt = FlatEnsembleSet::FromParts(CloneParts(*set_), kInputs);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  Rng rng(19);
  std::vector<double> x(kInputs);
  std::vector<double> a(set_->num_models()), b(set_->num_models());
  for (int trial = 0; trial < 100; ++trial) {
    for (auto& v : x) v = rng.NextDouble() * 2.0 - 0.5;
    set_->PredictAll(x, a);
    rebuilt->PredictAll(x, b);
    ASSERT_EQ(a, b);
    ASSERT_EQ(set_->ArgMin(x), rebuilt->ArgMin(x));
  }
}

TEST_F(FromPartsTest, HostileTablesAreRejected) {
  {  // model tree ranges not covering the per-tree tables
    auto parts = CloneParts(*set_);
    parts.model_tree_begin.vec().back() += 1;
    EXPECT_FALSE(FlatEnsembleSet::FromParts(std::move(parts), kInputs).ok());
  }
  {  // split feature beyond the input width
    auto parts = CloneParts(*set_);
    EXPECT_FALSE(FlatEnsembleSet::FromParts(std::move(parts), 1).ok());
  }
  {  // entry pointing at a tree that does not exist
    auto parts = CloneParts(*set_);
    ASSERT_FALSE(parts.entry_tree.empty());
    parts.entry_tree.vec()[0] = static_cast<int32_t>(parts.init_mask.size());
    EXPECT_FALSE(FlatEnsembleSet::FromParts(std::move(parts), kInputs).ok());
  }
  {  // thresholds that do not ascend within a feature (the early exit
     // would then skip entries that fire)
    auto parts = CloneParts(*set_);
    ASSERT_GE(parts.feat_begin[1], 2u);
    parts.threshold.vec()[0] = parts.threshold[1] + 1.0;
    EXPECT_FALSE(FlatEnsembleSet::FromParts(std::move(parts), kInputs).ok());
  }
  {  // leaf base past the (guarded) leaf table
    auto parts = CloneParts(*set_);
    parts.leaf_base.vec()[0] = static_cast<int32_t>(parts.leaf_value.size());
    EXPECT_FALSE(FlatEnsembleSet::FromParts(std::move(parts), kInputs).ok());
  }
  {  // missing guard tail on the leaf table
    auto parts = CloneParts(*set_);
    parts.leaf_value.vec().resize(parts.leaf_value.size() - kQsLeafGuard);
    EXPECT_FALSE(FlatEnsembleSet::FromParts(std::move(parts), kInputs).ok());
  }
}

}  // namespace
}  // namespace rpe
