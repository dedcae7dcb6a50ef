// Structure-aware wire-protocol fuzz harness: seeded mutations of valid
// frame streams pushed through FrameDecoder and every typed decoder —
// hostile lengths, truncation, type/status/reserved garbage, spliced and
// duplicated frames, random chunk boundaries — asserting the codec
// either yields frames or returns Status, never UB (run under ASan/UBSan
// in CI, same job as the snapshot fuzz). Every assertion prints the
// failing case seed; rerun one case with
//   RPE_FUZZ_SEED=<seed> RPE_FUZZ_CASES=1 ./rpe_tests --gtest_filter='WireFuzz*'
// Case count scales with RPE_FUZZ_CASES (default 300 locally, 10000 in
// the CI fuzz job).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "progress/estimator.h"
#include "selection/features.h"
#include "serving/wire.h"

namespace rpe {
namespace {

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

/// A decodable wire record: schema-arity features, estimator-table-arity
/// l1/l2, every double finite — the base the ingest mutations corrupt.
PipelineRecord FuzzRecord(uint64_t* rng) {
  PipelineRecord r;
  r.workload = "fuzz";
  r.query = "q" + std::to_string(SplitMix64(rng) % 9);
  r.pipeline_id = static_cast<int>(SplitMix64(rng) % 5);
  r.tag = (SplitMix64(rng) % 2 == 0) ? "even" : "odd";
  r.total_n = 1.0 + static_cast<double>(SplitMix64(rng) % 4096);
  r.features.resize(FeatureSchema::Get().num_features());
  for (double& f : r.features) {
    f = static_cast<double>(SplitMix64(rng) % 1000) / 1000.0;
  }
  r.l1.resize(static_cast<size_t>(kNumEstimatorKinds));
  r.l2.resize(static_cast<size_t>(kNumEstimatorKinds));
  for (size_t i = 0; i < r.l1.size(); ++i) {
    r.l1[i] = static_cast<double>(SplitMix64(rng) % 300) / 1000.0;
    r.l2[i] = static_cast<double>(SplitMix64(rng) % 300) / 1000.0;
  }
  return r;
}

/// A valid multi-frame stream covering every message type — the mutation
/// base, so corruptions land on real structure rather than noise.
std::string ValidStream(uint64_t* rng) {
  std::string out;
  out += EncodeOpenRequest({static_cast<uint32_t>(SplitMix64(rng))});
  OpenResponse opened;
  opened.session_id = SplitMix64(rng);
  opened.run_index = static_cast<uint32_t>(SplitMix64(rng) % 64);
  opened.num_observations = static_cast<uint32_t>(SplitMix64(rng) % 4096);
  out += EncodeOpenResponse(opened);
  AdvanceRequest advance;
  advance.session_id = SplitMix64(rng);
  advance.max_steps =
      1 + static_cast<uint32_t>(SplitMix64(rng) % kMaxAdvanceSteps);
  out += EncodeAdvanceRequest(advance);
  AdvanceResponse stepped;
  stepped.progress =
      static_cast<double>(SplitMix64(rng)) / 1e18;
  stepped.steps = static_cast<uint32_t>(SplitMix64(rng));
  stepped.done = static_cast<uint8_t>(SplitMix64(rng) % 2);
  out += EncodeAdvanceResponse(stepped);
  out += EncodeProgressRequest({SplitMix64(rng)});
  ProgressResponse progress;
  progress.progress = static_cast<double>(SplitMix64(rng)) / 1e18;
  progress.done = static_cast<uint8_t>(SplitMix64(rng) % 2);
  out += EncodeProgressResponse(progress);
  out += EncodeCloseRequest({SplitMix64(rng)});
  out += EncodeCloseResponse();
  out += EncodeStatsRequest();
  WireStats stats;
  stats.sessions_opened = SplitMix64(rng);
  stats.bytes_sent = SplitMix64(rng);
  stats.records_ingest_shed = SplitMix64(rng);
  stats.ingest_pushed = SplitMix64(rng);
  stats.p50_replay_ms = static_cast<double>(SplitMix64(rng)) / 1e12;
  out += EncodeStatsResponse(stats);
  IngestRecordRequest single;
  single.record = FuzzRecord(rng);
  out += EncodeIngestRecordRequest(single);
  IngestBatchRequest batch;
  const size_t batch_records = 1 + SplitMix64(rng) % 3;
  for (size_t i = 0; i < batch_records; ++i) {
    batch.records.push_back(FuzzRecord(rng));
  }
  out += EncodeIngestBatchRequest(batch);
  IngestResponse ingested;
  ingested.accepted = static_cast<uint32_t>(SplitMix64(rng));
  ingested.dropped = static_cast<uint32_t>(SplitMix64(rng));
  out += EncodeIngestResponse(
      SplitMix64(rng) % 2 == 0 ? MsgType::kIngestRecord
                               : MsgType::kIngestBatch,
      ingested);
  const Status error = Status::NotFound("fuzz error payload");
  out += EncodeErrorFrame(
      static_cast<MsgType>(1 + SplitMix64(rng) % kMaxMsgType), error);
  return out;
}

/// One seeded structural mutation of a valid frame stream.
std::string Mutate(std::string bytes, uint64_t* rng) {
  switch (SplitMix64(rng) % 8) {
    case 0: {  // random byte flips anywhere (headers included)
      const size_t flips = 1 + SplitMix64(rng) % 16;
      for (size_t i = 0; i < flips; ++i) {
        bytes[SplitMix64(rng) % bytes.size()] ^=
            static_cast<char>(1 + SplitMix64(rng) % 255);
      }
      break;
    }
    case 1: {  // length-prefix tamper: rewrite a u32 at a frame-ish offset
      if (bytes.size() > 4) {  // stacked truncation can leave < 5 bytes
        const size_t at = SplitMix64(rng) % (bytes.size() - 4);
        const uint32_t lie = static_cast<uint32_t>(SplitMix64(rng));
        std::memcpy(bytes.data() + at, &lie, 4);
      }
      break;
    }
    case 2:  // truncate anywhere (mid-header, mid-payload)
      bytes.resize(SplitMix64(rng) % bytes.size());
      break;
    case 3: {  // extend with garbage
      const size_t extra = 1 + SplitMix64(rng) % 512;
      for (size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(SplitMix64(rng)));
      }
      break;
    }
    case 4: {  // splice: drop a random middle section (frame desync)
      const size_t from = SplitMix64(rng) % bytes.size();
      const size_t len = SplitMix64(rng) % (bytes.size() - from);
      bytes.erase(from, len);
      break;
    }
    case 5: {  // duplicate a random slice into a random position
      const size_t from = SplitMix64(rng) % bytes.size();
      const size_t len =
          1 + SplitMix64(rng) % (bytes.size() - from);
      const std::string slice = bytes.substr(from, len);
      bytes.insert(SplitMix64(rng) % bytes.size(), slice);
      break;
    }
    case 6: {  // type/status/reserved garbage in the first header
      if (bytes.size() >= kFrameHeaderBytes) {
        bytes[4] = static_cast<char>(SplitMix64(rng));
        bytes[5] = static_cast<char>(SplitMix64(rng));
        bytes[6] = static_cast<char>(SplitMix64(rng));
        bytes[7] = static_cast<char>(SplitMix64(rng));
      }
      break;
    }
    default:  // pure noise replacing the whole stream
      for (char& b : bytes) b = static_cast<char>(SplitMix64(rng));
      break;
  }
  return bytes;
}

/// Payload-interior mutation of a single ingest frame. Unlike Mutate(),
/// the frame header's length is re-stamped afterwards so the framing
/// layer accepts the frame and the lie lands squarely on the record
/// decoders: u16 string/vector length lies, truncated records, spliced
/// record boundaries, non-finite doubles.
std::string MutateIngestPayload(std::string frame_bytes, uint64_t* rng) {
  const size_t payload_size = frame_bytes.size() - kFrameHeaderBytes;
  switch (SplitMix64(rng) % 4) {
    case 0: {  // u16 length lie anywhere in the payload
      const size_t at =
          kFrameHeaderBytes + SplitMix64(rng) % (payload_size - 1);
      const uint16_t lie = static_cast<uint16_t>(SplitMix64(rng));
      std::memcpy(frame_bytes.data() + at, &lie, 2);
      break;
    }
    case 1:  // truncate the record mid-field
      frame_bytes.resize(kFrameHeaderBytes + SplitMix64(rng) % payload_size);
      break;
    case 2: {  // splice out a middle section (record-boundary desync)
      const size_t from = kFrameHeaderBytes + SplitMix64(rng) % payload_size;
      const size_t len = SplitMix64(rng) % (frame_bytes.size() - from);
      frame_bytes.erase(from, len);
      break;
    }
    default: {  // plant a non-finite double on an 8-byte window
      if (payload_size >= 8) {
        const size_t at =
            kFrameHeaderBytes + SplitMix64(rng) % (payload_size - 7);
        const double bad = SplitMix64(rng) % 2 == 0
                               ? std::numeric_limits<double>::quiet_NaN()
                               : std::numeric_limits<double>::infinity();
        std::memcpy(frame_bytes.data() + at, &bad, 8);
      }
      break;
    }
  }
  // Re-stamp the header length so the frame still reassembles and the
  // corruption reaches DecodeIngest*Request, not the framing layer.
  const uint32_t new_len =
      static_cast<uint32_t>(frame_bytes.size() - kFrameHeaderBytes);
  std::memcpy(frame_bytes.data(), &new_len, 4);
  return frame_bytes;
}

/// Push one mutated stream through the decoder in random chunk sizes,
/// running the matching typed decoder on every complete frame. The
/// invariant: frames or Status, never a crash; after a header-level
/// rejection the decoder stays rejecting (no resurrection mid-garbage).
void DrainOneCase(const std::string& stream, uint64_t seed) {
  uint64_t rng = seed ^ 0xA5A5A5A5A5A5A5A5ull;
  FrameDecoder decoder;
  size_t fed = 0;
  bool poisoned = false;
  size_t frames = 0;
  while (fed < stream.size()) {
    const size_t chunk =
        1 + SplitMix64(&rng) % std::min<size_t>(stream.size() - fed, 4096);
    decoder.Feed(stream.data() + fed, chunk);
    fed += chunk;
    while (true) {
      WireFrame frame;
      const auto next = decoder.Next(&frame);
      if (!next.ok()) {
        ASSERT_FALSE(next.status().ToString().empty()) << "seed=" << seed;
        poisoned = true;
        break;
      }
      if (!*next) break;
      ASSERT_FALSE(poisoned)
          << "decoder yielded a frame after rejecting the stream, seed="
          << seed;
      ++frames;
      // Typed decoders on attacker-shaped payloads: ok or Status only.
      switch (frame.type) {
        case MsgType::kOpen:
          (void)DecodeOpenRequest(frame.payload);
          (void)DecodeOpenResponse(frame.payload);
          break;
        case MsgType::kAdvance:
          (void)DecodeAdvanceRequest(frame.payload);
          (void)DecodeAdvanceResponse(frame.payload);
          break;
        case MsgType::kProgress:
          (void)DecodeProgressRequest(frame.payload);
          (void)DecodeProgressResponse(frame.payload);
          break;
        case MsgType::kClose:
          (void)DecodeCloseRequest(frame.payload);
          break;
        case MsgType::kStats:
          (void)DecodeStatsResponse(frame.payload);
          break;
        case MsgType::kIngestRecord:
          (void)DecodeIngestRecordRequest(frame.payload);
          (void)DecodeIngestResponse(frame.payload);
          break;
        case MsgType::kIngestBatch:
          (void)DecodeIngestBatchRequest(frame.payload);
          (void)DecodeIngestResponse(frame.payload);
          break;
        case MsgType::kMetricsDump:
          // Empty request, exposition-text response: nothing typed to
          // decode.
          break;
      }
    }
    if (poisoned) break;
  }
  // Replaying identical bytes in one shot must reproduce the verdict —
  // chunking can never change what the decoder accepts.
  FrameDecoder replay;
  replay.Feed(stream);
  size_t replay_frames = 0;
  while (true) {
    WireFrame frame;
    const auto next = replay.Next(&frame);
    if (!next.ok()) {
      ASSERT_TRUE(poisoned)
          << "one-shot decode rejected what chunked decode accepted, seed="
          << seed;
      return;
    }
    if (!*next) break;
    ++replay_frames;
  }
  ASSERT_FALSE(poisoned)
      << "one-shot decode accepted what chunked decode rejected, seed="
      << seed;
  ASSERT_EQ(replay_frames, frames) << "seed=" << seed;
}

TEST(WireFuzzTest, UnmutatedStreamYieldsFourteenFrames) {
  // Guards the harness: if the base stream stopped decoding, every
  // mutated case would pass vacuously.
  uint64_t rng = 99;
  FrameDecoder decoder;
  decoder.Feed(ValidStream(&rng));
  size_t frames = 0;
  while (true) {
    WireFrame frame;
    auto next = decoder.Next(&frame);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!*next) break;
    ++frames;
  }
  EXPECT_EQ(frames, 14u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireFuzzTest, SeededMutationsNeverCrashTheCodec) {
  const size_t cases = EnvCount("RPE_FUZZ_CASES", 300);
  const uint64_t base_seed = EnvCount("RPE_FUZZ_SEED", 1);
  for (size_t i = 0; i < cases; ++i) {
    const uint64_t seed = base_seed + i;
    uint64_t rng = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
    std::string stream = ValidStream(&rng);
    // Stack 1..3 mutations so desyncs compound.
    const size_t rounds = 1 + SplitMix64(&rng) % 3;
    for (size_t m = 0; m < rounds && !stream.empty(); ++m) {
      stream = Mutate(std::move(stream), &rng);
    }
    if (stream.empty()) continue;
    ASSERT_NO_FATAL_FAILURE(DrainOneCase(stream, seed))
        << "rerun: RPE_FUZZ_SEED=" << seed << " RPE_FUZZ_CASES=1";
  }
}

TEST(WireFuzzTest, IngestPayloadMutationsNeverCrashTheRecordDecoders) {
  // Satellite of the ingest path: the frame stays structurally valid
  // (header length re-stamped) so every corruption exercises the record
  // decoders' bounds checks. DrainOneCase still enforces the
  // chunked-vs-one-shot verdict equivalence on top.
  const size_t cases = EnvCount("RPE_FUZZ_CASES", 300);
  const uint64_t base_seed = EnvCount("RPE_FUZZ_SEED", 1) + 0x40000000ull;
  for (size_t i = 0; i < cases; ++i) {
    const uint64_t seed = base_seed + i;
    uint64_t rng = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
    std::string stream;
    if (SplitMix64(&rng) % 2 == 0) {
      IngestRecordRequest single;
      single.record = FuzzRecord(&rng);
      stream = EncodeIngestRecordRequest(single);
    } else {
      IngestBatchRequest batch;
      const size_t batch_records = 1 + SplitMix64(&rng) % 4;
      for (size_t r = 0; r < batch_records; ++r) {
        batch.records.push_back(FuzzRecord(&rng));
      }
      stream = EncodeIngestBatchRequest(batch);
    }
    const size_t rounds = 1 + SplitMix64(&rng) % 2;
    for (size_t m = 0; m < rounds; ++m) {
      if (stream.size() <= kFrameHeaderBytes + 1) break;
      stream = MutateIngestPayload(std::move(stream), &rng);
    }
    ASSERT_NO_FATAL_FAILURE(DrainOneCase(stream, seed))
        << "rerun: RPE_FUZZ_SEED=" << seed << " RPE_FUZZ_CASES=1";
  }
}

TEST(WireFuzzTest, PureGarbageStreamsAreAlwaysRejectedOrIncomplete) {
  const size_t cases = EnvCount("RPE_FUZZ_CASES", 300) / 4 + 1;
  const uint64_t base_seed = EnvCount("RPE_FUZZ_SEED", 1) + 0x20000000ull;
  for (size_t i = 0; i < cases; ++i) {
    const uint64_t seed = base_seed + i;
    uint64_t rng = seed;
    std::string garbage(8 + SplitMix64(&rng) % 512, '\0');
    for (char& b : garbage) b = static_cast<char>(SplitMix64(&rng));
    ASSERT_NO_FATAL_FAILURE(DrainOneCase(garbage, seed))
        << "rerun: RPE_FUZZ_SEED=" << seed << " RPE_FUZZ_CASES=1";
  }
}

}  // namespace
}  // namespace rpe
