// The record element (selection/record.h) is the one encoding of a
// PipelineRecord: wire ingest frames carry it and .rpsn record batches
// store it. One table of malformed elements goes through both transports
// — a kIngestRecord frame and a record batch with a valid header and CRC —
// and each must be rejected by both, with the field named. The batch
// encoder must refuse every such record up front rather than write a file
// that cannot be read back.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/byte_io.h"
#include "common/crc32.h"
#include "serving/snapshot.h"
#include "serving/wire.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

std::string ElementBytes(const PipelineRecord& record) {
  std::string out;
  ByteWriter w(&out);
  PutRecordElement(record, &w);
  return out;
}

/// An .rpsn record batch of `count` followed by `elements` as given, under
/// a valid header and CRC: what a faulty or hostile writer could leave on
/// disk (header layout in serving/snapshot.h).
std::string RawBatch(uint64_t count, const std::string& elements) {
  std::string payload;
  ByteWriter w(&payload);
  w.Put(count);
  w.PutBytes(elements);
  std::string file = EncodeRecordBatch({}).ValueOrDie().substr(0, 32);
  const uint64_t size = payload.size();
  const uint32_t aux_offset = 0;
  const uint32_t crc = Crc32(payload.data(), payload.size(),
                             Crc32(&aux_offset, sizeof aux_offset));
  std::memcpy(file.data() + 16, &size, sizeof size);
  std::memcpy(file.data() + 24, &crc, sizeof crc);
  return file + payload;
}

/// The payload of one kIngestRecord frame carrying `element`, reassembled
/// by the FrameDecoder exactly as the server receives it.
Result<IngestRecordRequest> DecodeOverWire(const std::string& element) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(MsgType::kIngestRecord, 0, element));
  WireFrame frame;
  auto next = decoder.Next(&frame);
  EXPECT_TRUE(next.ok() && *next);
  EXPECT_EQ(frame.type, MsgType::kIngestRecord);
  return DecodeIngestRecordRequest(frame.payload);
}

struct HostileCase {
  const char* name;
  const char* field;  ///< must appear in every rejection's message
  std::function<void(PipelineRecord*)> corrupt;
};

std::vector<HostileCase> HostileCases() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::string over_cap(kMaxIngestStringBytes + 1, 'x');
  return {
      {"over-cap workload", "workload",
       [=](PipelineRecord* r) { r->workload = over_cap; }},
      {"over-cap query", "query",
       [=](PipelineRecord* r) { r->query = over_cap; }},
      {"over-cap tag", "tag", [=](PipelineRecord* r) { r->tag = over_cap; }},
      {"NaN total_n", "total_n", [=](PipelineRecord* r) { r->total_n = nan; }},
      {"Inf total_n", "total_n", [=](PipelineRecord* r) { r->total_n = inf; }},
      {"NaN feature", "features",
       [=](PipelineRecord* r) { r->features.back() = nan; }},
      {"-Inf feature", "features",
       [=](PipelineRecord* r) { r->features[0] = -inf; }},
      {"NaN l1", "l1", [=](PipelineRecord* r) { r->l1[1] = nan; }},
      {"Inf l1", "l1", [=](PipelineRecord* r) { r->l1.back() = inf; }},
      {"NaN l2", "l2", [=](PipelineRecord* r) { r->l2[0] = nan; }},
      {"Inf l2", "l2", [=](PipelineRecord* r) { r->l2.back() = inf; }},
      {"short features", "features",
       [](PipelineRecord* r) { r->features.pop_back(); }},
      {"long features", "features",
       [](PipelineRecord* r) { r->features.push_back(0.5); }},
      {"short l1", "l1", [](PipelineRecord* r) { r->l1.pop_back(); }},
      {"long l1", "l1", [](PipelineRecord* r) { r->l1.push_back(0.1); }},
      {"short l2", "l2", [](PipelineRecord* r) { r->l2.pop_back(); }},
      {"long l2", "l2", [](PipelineRecord* r) { r->l2.push_back(0.1); }},
  };
}

TEST(RecordElementTest, HostileElementsAreRejectedOnBothTransports) {
  const PipelineRecord valid = testing::RandomRecords(1, 33)[0];
  const std::string good = ElementBytes(valid);
  ASSERT_EQ(good.size(), RecordElementBytes(valid));

  // The unmodified element passes both transports, bit for bit.
  auto over_wire = DecodeOverWire(good);
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  EXPECT_EQ(ElementBytes(over_wire->record), good);
  auto from_file = DecodeRecordBatch(RawBatch(1, good));
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_EQ(from_file->size(), 1u);
  EXPECT_EQ(ElementBytes(from_file->front()), good);

  const auto names = [](const Status& st, const std::string& what) {
    return st.code() == StatusCode::kInvalidArgument &&
           st.message().find(what) != std::string::npos;
  };
  const std::string path = ::testing::TempDir() + "/rpe_hostile_" +
                           std::to_string(::getpid()) + ".rpsn";
  for (const HostileCase& c : HostileCases()) {
    SCOPED_TRACE(c.name);
    PipelineRecord bad = valid;
    c.corrupt(&bad);
    const std::string element = ElementBytes(bad);

    const auto wire = DecodeOverWire(element);
    ASSERT_FALSE(wire.ok());
    EXPECT_TRUE(names(wire.status(), c.field)) << wire.status().ToString();

    const auto file = DecodeRecordBatch(RawBatch(1, element));
    ASSERT_FALSE(file.ok());
    EXPECT_TRUE(names(file.status(), c.field)) << file.status().ToString();

    // The encoder refuses the record, naming the field, and writes nothing.
    const auto encoded = EncodeRecordBatch({valid, bad});
    ASSERT_FALSE(encoded.ok());
    EXPECT_TRUE(names(encoded.status(), c.field))
        << encoded.status().ToString();
    EXPECT_TRUE(names(encoded.status(), "record 1"))
        << encoded.status().ToString();
    EXPECT_FALSE(SaveRecordBatch({bad}, path).ok());
    EXPECT_FALSE(std::filesystem::exists(path));
  }

  // An over-cap label names the cap as well as the field.
  PipelineRecord long_tag = valid;
  long_tag.tag.assign(300, 'x');
  EXPECT_TRUE(names(EncodeRecordBatch({long_tag}).status(), "256-byte cap"));

  // A cut element: every strict prefix is rejected on both transports.
  for (size_t keep : {size_t{0}, size_t{1}, good.size() / 2, good.size() - 1}) {
    SCOPED_TRACE("cut to " + std::to_string(keep) + " bytes");
    const std::string cut = good.substr(0, keep);
    EXPECT_FALSE(DecodeOverWire(cut).ok());
    const auto file = DecodeRecordBatch(RawBatch(1, cut));
    ASSERT_FALSE(file.ok());
    EXPECT_TRUE(names(file.status(), "truncated")) << file.status().ToString();
  }
  // So is a batch whose count claims more elements than it holds, or
  // fewer (trailing bytes).
  EXPECT_FALSE(DecodeRecordBatch(RawBatch(2, good)).ok());
  EXPECT_FALSE(DecodeRecordBatch(RawBatch(1, good + good)).ok());
}

}  // namespace
}  // namespace rpe
