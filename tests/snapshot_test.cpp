// Snapshot tests: binary snapshot round-trips (bit-exact scores and
// byte-exact re-encodes) and corruption/truncation rejection. The
// MonitorService session tests live in shard_test.cpp, beside the id-keyed
// router they drive.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/crc32.h"
#include "common/random.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::RandomRecords;

SelectorStack TrainSmallStack(const std::vector<PipelineRecord>& records,
                              uint64_t seed) {
  MartParams params;
  params.num_trees = 10;
  params.tree.max_leaves = 8;
  params.seed = seed;
  return SelectorStack::Train(records, PoolOriginalThree(), params);
}

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<PipelineRecord>(RandomRecords(80, 11));
    stack_ = new SelectorStack(TrainSmallStack(*records_, 7));
  }
  static void TearDownTestSuite() {
    delete records_;
    delete stack_;
    records_ = nullptr;
    stack_ = nullptr;
  }

  static std::vector<PipelineRecord>* records_;
  static SelectorStack* stack_;
};

std::vector<PipelineRecord>* SnapshotTest::records_ = nullptr;
SelectorStack* SnapshotTest::stack_ = nullptr;

TEST_F(SnapshotTest, RecordBatchRoundTripIsByteIdentical) {
  const std::string bytes = EncodeRecordBatch(*records_).ValueOrDie();
  auto decoded = DecodeRecordBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), records_->size());
  for (size_t i = 0; i < records_->size(); ++i) {
    const PipelineRecord& a = (*records_)[i];
    const PipelineRecord& b = (*decoded)[i];
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.query, b.query);
    EXPECT_EQ(a.pipeline_id, b.pipeline_id);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.total_n, b.total_n);  // bit-exact, not approximate
    EXPECT_EQ(a.features, b.features);
    EXPECT_EQ(a.l1, b.l1);
    EXPECT_EQ(a.l2, b.l2);
  }
  // Re-encoding the decoded batch reproduces the file byte for byte.
  EXPECT_EQ(EncodeRecordBatch(*decoded).ValueOrDie(), bytes);
}

TEST_F(SnapshotTest, EmptyRecordBatchRoundTrips) {
  const std::string bytes = EncodeRecordBatch({}).ValueOrDie();
  auto decoded = DecodeRecordBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->empty());
}

TEST_F(SnapshotTest, SelectorStackRoundTripIsBitExact) {
  const std::string bytes = EncodeSelectorStack(*stack_);
  auto decoded = DecodeSelectorStack(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const SelectorStack& stack = **decoded;

  for (const auto& pair :
       {std::make_pair(&stack_->static_selector, &stack.static_selector),
        std::make_pair(&stack_->dynamic_selector, &stack.dynamic_selector)}) {
    const EstimatorSelector& original = *pair.first;
    const EstimatorSelector& loaded = *pair.second;
    EXPECT_EQ(original.pool(), loaded.pool());
    EXPECT_EQ(original.uses_dynamic_features(),
              loaded.uses_dynamic_features());
    EXPECT_EQ(original.feature_gains(), loaded.feature_gains());
    // Scoring is bit-exact: the loaded tables are the compiled ones.
    for (const PipelineRecord& r : *records_) {
      EXPECT_EQ(original.PredictErrors(r.features),
                loaded.PredictErrors(r.features));
      EXPECT_EQ(original.SelectForRecord(r), loaded.SelectForRecord(r));
    }
  }
  // Re-encode reproduces the snapshot byte for byte.
  EXPECT_EQ(EncodeSelectorStack(stack), bytes);
}

TEST_F(SnapshotTest, CorruptedPayloadIsRejected) {
  std::string bytes = EncodeRecordBatch(*records_).ValueOrDie();
  bytes[bytes.size() / 2] ^= 0x5A;  // flip bits mid-payload
  auto decoded = DecodeRecordBatch(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("CRC"), std::string::npos)
      << decoded.status().ToString();
}

TEST_F(SnapshotTest, CorruptedModelPayloadIsRejected) {
  std::string bytes = EncodeSelectorStack(*stack_);
  bytes[bytes.size() - 9] ^= 0xFF;
  EXPECT_FALSE(DecodeSelectorStack(bytes).ok());
}

TEST_F(SnapshotTest, TruncatedSnapshotIsRejected) {
  const std::string bytes = EncodeRecordBatch(*records_).ValueOrDie();
  // Every strict prefix must be rejected — header-only, mid-payload, and
  // one-byte-short truncations alike.
  for (size_t keep : {size_t{0}, size_t{16}, size_t{31}, size_t{32},
                      bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeRecordBatch(bytes.substr(0, keep)).ok())
        << "prefix of " << keep << " bytes decoded";
  }
}

TEST_F(SnapshotTest, BadMagicAndVersionAreRejected) {
  std::string bytes = EncodeRecordBatch(*records_).ValueOrDie();
  {
    std::string bad = bytes;
    bad[0] = 'X';
    auto decoded = DecodeRecordBatch(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
  }
  {
    std::string bad = bytes;
    bad[4] = 99;  // future format version
    auto decoded = DecodeRecordBatch(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
  }
  // Earlier formats with a valid CRC under their own rule (v1 over the
  // payload only, v2 to v4 over the aux offset, then the payload): no
  // longer readable, and the error names both versions.
  const std::string stack_bytes = EncodeSelectorStack(*stack_);
  for (const uint32_t version : {1u, 2u, 3u, 4u}) {
    std::string old = stack_bytes;
    uint32_t aux_offset = 0;
    if (version >= 2) std::memcpy(&aux_offset, old.data() + 28, 4);
    std::memcpy(old.data() + 28, &aux_offset, 4);
    const uint32_t seed =
        version == 1 ? 0 : Crc32(&aux_offset, sizeof aux_offset);
    const uint32_t crc = Crc32(old.data() + 32, old.size() - 32, seed);
    std::memcpy(old.data() + 4, &version, 4);
    std::memcpy(old.data() + 24, &crc, 4);
    auto decoded = DecodeSelectorStack(old);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().message(),
              "unsupported snapshot version " + std::to_string(version) +
                  " (this build reads 5)");
  }
  // A v4 record batch (its own record layout, not the v5 record element)
  // is rejected by its version, never parsed as elements.
  std::string v4_batch = bytes;
  const uint32_t v4 = 4;
  std::memcpy(v4_batch.data() + 4, &v4, 4);
  auto decoded = DecodeRecordBatch(v4_batch);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
      << decoded.status().ToString();
}

TEST_F(SnapshotTest, MismatchedKindIsRejected) {
  const std::string stack_bytes = EncodeSelectorStack(*stack_);
  EXPECT_FALSE(DecodeRecordBatch(stack_bytes).ok());
  const std::string record_bytes =
      EncodeRecordBatch(*records_).ValueOrDie();
  EXPECT_FALSE(DecodeSelectorStack(record_bytes).ok());
  auto kind = PeekSnapshotKind(stack_bytes);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, SnapshotKind::kSelectorStack);
}

TEST_F(SnapshotTest, FileRoundTrip) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string record_path = dir + "/rpe_snapshot_test_records.rpsn";
  const std::string stack_path = dir + "/rpe_snapshot_test_stack.rpsn";

  ASSERT_TRUE(SaveRecordBatch(*records_, record_path).ok());
  auto records = LoadRecordBatch(record_path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(EncodeRecordBatch(*records).ValueOrDie(),
            EncodeRecordBatch(*records_).ValueOrDie());

  ASSERT_TRUE(SaveSelectorStack(*stack_, stack_path).ok());
  auto stack = LoadSelectorStack(stack_path);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  EXPECT_EQ(EncodeSelectorStack(**stack), EncodeSelectorStack(*stack_));

  auto kind = PeekSnapshotFileKind(record_path);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, SnapshotKind::kRecordBatch);

  std::remove(record_path.c_str());
  std::remove(stack_path.c_str());
}

}  // namespace
}  // namespace rpe
