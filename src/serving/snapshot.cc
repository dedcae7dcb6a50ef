#include "serving/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/byte_io.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "selection/features.h"
#include "serving/mmap_arena.h"

namespace rpe {
namespace {

static_assert(std::endian::native == std::endian::little,
              "snapshot encode/decode assumes a little-endian host");

constexpr size_t kHeaderSize = 32;

/// How a ByteReader names snapshot bytes in its errors.
constexpr char kPayload[] = "snapshot payload";

// ---------------------------------------------------------------------------
// Container framing.

/// Container CRC: the aux-offset header field, then the payload. The
/// offset steers the decode, so a bit flip there must read as
/// corruption, not as a confusing structural error deep in the aux parser.
uint32_t FrameCrc(uint32_t aux_offset, std::string_view payload) {
  return Crc32(payload.data(), payload.size(),
               Crc32(&aux_offset, sizeof aux_offset));
}

/// A snapshot buffer to encode a payload into: a header placeholder that
/// SealFrame fills in, so the payload is written once, in place. The
/// header is 32 bytes, so padding relative to the buffer is padding
/// relative to the payload.
std::string OpenFrame(size_t payload_bytes) {
  std::string out;
  out.reserve(kHeaderSize + payload_bytes);
  out.resize(kHeaderSize);
  return out;
}

std::string SealFrame(SnapshotKind kind, std::string out,
                      uint32_t aux_offset = 0) {
  const std::string_view payload = std::string_view(out).substr(kHeaderSize);
  std::string header;
  ByteWriter w(&header);
  w.Put(kSnapshotMagic);
  w.Put(kSnapshotVersion);
  w.Put(static_cast<uint32_t>(kind));
  w.Put(uint32_t{0});
  w.Put(static_cast<uint64_t>(payload.size()));
  w.Put(FrameCrc(aux_offset, payload));
  w.Put(aux_offset);
  out.replace(0, kHeaderSize, header);
  return out;
}

Result<std::string_view> UnframeAs(SnapshotKind want, std::string_view bytes) {
  RPE_ASSIGN_OR_RETURN(SnapshotFrame frame, UnframeSnapshot(bytes));
  if (frame.kind != want) {
    return Status::InvalidArgument("snapshot holds a different payload kind");
  }
  return frame.payload;
}

// Feature metadata: the snapshot pins the schema it was trained under; a
// load into a binary whose FeatureSchema differs (renamed, reordered or
// recounted features) must fail rather than silently mis-index.
void EncodeSchema(ByteWriter* w) {
  const FeatureSchema& schema = FeatureSchema::Get();
  w->Put(static_cast<uint32_t>(schema.num_features()));
  w->Put(static_cast<uint32_t>(schema.num_static_features()));
  for (const std::string& name : schema.names()) {
    w->Put(static_cast<uint32_t>(name.size()));
    w->PutBytes(name);
  }
}

Status DecodeAndCheckSchema(ByteReader* r) {
  const FeatureSchema& schema = FeatureSchema::Get();
  uint32_t num_features = 0, num_static = 0;
  RPE_RETURN_NOT_OK(r->Get(&num_features));
  RPE_RETURN_NOT_OK(r->Get(&num_static));
  if (num_features != schema.num_features() ||
      num_static != schema.num_static_features()) {
    return Status::InvalidArgument(
        "snapshot feature schema disagrees with this binary: " +
        std::to_string(num_features) + "/" + std::to_string(num_static) +
        " features vs " + std::to_string(schema.num_features()) + "/" +
        std::to_string(schema.num_static_features()));
  }
  for (size_t f = 0; f < schema.num_features(); ++f) {
    uint32_t len = 0;
    std::string name;
    RPE_RETURN_NOT_OK(r->Get(&len));
    RPE_RETURN_NOT_OK(r->GetBytes(&name, len));
    if (name != schema.name(f)) {
      return Status::InvalidArgument("snapshot feature " + std::to_string(f) +
                                     " is '" + name + "', expected '" +
                                     schema.name(f) + "'");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Compiled tables ("RPFL" section, one per selector): header, pool,
// per-model training gains, then the FlatEnsembleSet's merged QuickScorer
// tables, every slab 8-aligned so the reader borrows them in place.

void EncodeFlatSet(const EstimatorSelector& selector, ByteWriter* w) {
  const FlatEnsembleSet& flat = selector.flat();
  w->Pad8();
  w->Put(kFlatSectionMagic);
  w->Put(uint32_t{selector.uses_dynamic_features() ? 1u : 0u});
  const FeatureSchema& schema = FeatureSchema::Get();
  w->Put(static_cast<uint64_t>(flat.num_models()));
  w->Put(static_cast<uint64_t>(selector.uses_dynamic_features()
                                   ? schema.num_features()
                                   : schema.num_static_features()));
  w->AlignedSlab(Slab<uint64_t>(
      std::vector<uint64_t>(selector.pool().begin(), selector.pool().end())));
  // Per-model training gains (small, copied at load) for
  // FeatureImportance: per-model lengths, then the concatenation.
  {
    std::vector<uint64_t> lens;
    std::vector<double> concat;
    for (const std::vector<double>& gains : selector.feature_gains()) {
      lens.push_back(gains.size());
      concat.insert(concat.end(), gains.begin(), gains.end());
    }
    w->AlignedSlab(Slab<uint64_t>(std::move(lens)));
    w->AlignedSlab(Slab<double>(std::move(concat)));
  }
  const flat_internal::MergedQuickScorer& merged = flat.merged();
  w->Put(static_cast<int32_t>(merged.num_features));
  w->AlignedSlab(merged.feat_begin);
  w->AlignedSlab(merged.threshold);
  w->AlignedSlab(merged.entry_tree);
  w->AlignedSlab(merged.entry_mask);
  w->AlignedSlab(merged.init_mask);
  w->AlignedSlab(merged.leaf_base);
  w->AlignedSlab(merged.leaf_value);  // guard tail included
  w->AlignedSlab(merged.model_tree_begin);
  w->AlignedSlab(merged.bias);
}

/// One selector's RPFL section -> an EstimatorSelector whose scoring slabs
/// borrow the reader's bytes. Structural validation happens in
/// FlatEnsembleSet::FromParts / EstimatorSelector::FromFlat.
Result<EstimatorSelector> DecodeFlatSelector(ByteReader* r,
                                             bool expect_dynamic) {
  RPE_RETURN_NOT_OK(r->Align8());
  uint32_t magic = 0, use_dynamic = 0;
  uint64_t num_models = 0, num_inputs = 0;
  RPE_RETURN_NOT_OK(r->Get(&magic));
  if (magic != kFlatSectionMagic) {
    return Status::InvalidArgument("flat snapshot section has bad magic");
  }
  RPE_RETURN_NOT_OK(r->Get(&use_dynamic));
  if ((use_dynamic != 0) != expect_dynamic) {
    return Status::InvalidArgument(
        "flat snapshot section has the wrong feature mode");
  }
  RPE_RETURN_NOT_OK(r->Get(&num_models));
  RPE_RETURN_NOT_OK(r->Get(&num_inputs));
  const FeatureSchema& schema = FeatureSchema::Get();
  const size_t expected_inputs = expect_dynamic
                                     ? schema.num_features()
                                     : schema.num_static_features();
  if (num_models > 4096 || num_inputs != expected_inputs) {
    return Status::InvalidArgument(
        "flat snapshot section model count or input width out of range");
  }

  Slab<uint64_t> pool_slab;
  RPE_RETURN_NOT_OK(r->BorrowSlab(&pool_slab));
  if (pool_slab.size() != num_models) {
    return Status::InvalidArgument("flat snapshot pool size mismatch");
  }

  Slab<uint64_t> gain_lens;
  Slab<double> gain_concat;
  RPE_RETURN_NOT_OK(r->BorrowSlab(&gain_lens));
  RPE_RETURN_NOT_OK(r->BorrowSlab(&gain_concat));

  flat_internal::MergedQuickScorer tables;
  RPE_RETURN_NOT_OK(r->Get(&tables.num_features));
  RPE_RETURN_NOT_OK(r->BorrowSlab(&tables.feat_begin));
  RPE_RETURN_NOT_OK(r->BorrowSlab(&tables.threshold));
  RPE_RETURN_NOT_OK(r->BorrowSlab(&tables.entry_tree));
  RPE_RETURN_NOT_OK(r->BorrowSlab(&tables.entry_mask));
  RPE_RETURN_NOT_OK(r->BorrowSlab(&tables.init_mask));
  RPE_RETURN_NOT_OK(r->BorrowSlab(&tables.leaf_base));
  RPE_RETURN_NOT_OK(r->BorrowSlab(&tables.leaf_value));
  RPE_RETURN_NOT_OK(r->BorrowSlab(&tables.model_tree_begin));
  RPE_RETURN_NOT_OK(r->BorrowSlab(&tables.bias));

  // Gains are tiny (one double per feature per model): copy them out so
  // FeatureImportance needs no backing bookkeeping.
  if (gain_lens.size() != num_models) {
    return Status::InvalidArgument("flat snapshot gain table mismatch");
  }
  std::vector<std::vector<double>> gains;
  size_t gain_pos = 0;
  for (uint64_t m = 0; m < num_models; ++m) {
    const uint64_t len = gain_lens[m];
    if (len > gain_concat.size() - gain_pos) {
      return Status::InvalidArgument("flat snapshot gain table mismatch");
    }
    gains.emplace_back(gain_concat.begin() + gain_pos,
                       gain_concat.begin() + gain_pos + len);
    gain_pos += len;
  }
  if (gain_pos != gain_concat.size()) {
    return Status::InvalidArgument("flat snapshot gain table mismatch");
  }

  RPE_ASSIGN_OR_RETURN(
      FlatEnsembleSet flat,
      FlatEnsembleSet::FromParts(std::move(tables), expected_inputs));
  std::vector<size_t> pool(pool_slab.begin(), pool_slab.end());
  return EstimatorSelector::FromFlat(std::move(pool), expect_dynamic,
                                     std::move(flat), std::move(gains));
}

/// Keeps the decoded bytes alive exactly as long as the stack that
/// borrows them: the public shared_ptr<const SelectorStack> aliases
/// `stack` while owning this holder.
struct BackedStack {
  std::shared_ptr<const void> backing;
  SelectorStack stack;
};

/// The one selector-stack decode. `bytes` must be 8-aligned and live in
/// `backing`, which the returned stack co-owns.
Result<std::shared_ptr<const SelectorStack>> DecodeStackOver(
    std::shared_ptr<const void> backing, std::string_view bytes) {
  RPE_ASSIGN_OR_RETURN(SnapshotFrame frame, UnframeSnapshot(bytes));
  if (frame.kind != SnapshotKind::kSelectorStack) {
    return Status::InvalidArgument("snapshot holds a different payload kind");
  }
  ByteReader r(frame.payload, kPayload);
  RPE_RETURN_NOT_OK(DecodeAndCheckSchema(&r));
  RPE_RETURN_NOT_OK(r.Align8());
  if (r.pos() != frame.aux_offset) {
    return Status::InvalidArgument(
        "snapshot aux section does not follow the schema block");
  }
  auto holder = std::make_shared<BackedStack>();
  holder->backing = std::move(backing);
  RPE_ASSIGN_OR_RETURN(holder->stack.static_selector,
                       DecodeFlatSelector(&r, /*expect_dynamic=*/false));
  RPE_ASSIGN_OR_RETURN(holder->stack.dynamic_selector,
                       DecodeFlatSelector(&r, /*expect_dynamic=*/true));
  if (r.remaining() != 0) {
    return Status::InvalidArgument("flat snapshot section has trailing bytes");
  }
  return std::shared_ptr<const SelectorStack>(holder, &holder->stack);
}

/// Publish `bytes` at `path` by writing a temp file in the same directory
/// and renaming it over `path`. A stack loaded from `path` maps the file,
/// so rewriting it in place would change or cut the bytes under a live
/// mapping (torn scores, SIGBUS); after a rename the old inode lives on
/// until its last mapping goes. Any failure leaves no temp file behind.
Status WriteFile(const std::string& path, const std::string& bytes) {
  if (RPE_INJECT_FAULT("snapshot.write")) {
    return Status::IOError("injected failure: snapshot.write (" + path + ")");
  }
  static std::atomic<uint64_t> next_tmp{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(next_tmp.fetch_add(1));
  // open(2) rather than mkstemp(3): the file gets the usual 0666 & ~umask
  // mode, as the file it replaces did.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0666);
  if (fd < 0) return Status::IOError("cannot open for write: " + path);
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<size_t>(n);
  }
  const bool closed = ::close(fd) == 0;
  if (written != bytes.size() || !closed ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  if (RPE_INJECT_FAULT("snapshot.read")) {
    return Status::IOError("injected failure: snapshot.read (" + path + ")");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = std::move(buf).str();
  // "snapshot.read.short": the tail of the file never arrives — the frame
  // checks downstream must reject the truncation, never decode part of it.
  if (RPE_INJECT_FAULT("snapshot.read.short")) bytes.resize(bytes.size() / 2);
  return bytes;
}

}  // namespace

Result<SnapshotFrame> UnframeSnapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("snapshot shorter than its header");
  }
  ByteReader r(bytes.substr(0, kHeaderSize), "snapshot header");
  uint32_t magic = 0, version = 0, kind = 0, reserved = 0, crc = 0;
  uint32_t aux_offset = 0;
  uint64_t payload_size = 0;
  RPE_RETURN_NOT_OK(r.Get(&magic));
  RPE_RETURN_NOT_OK(r.Get(&version));
  RPE_RETURN_NOT_OK(r.Get(&kind));
  RPE_RETURN_NOT_OK(r.Get(&reserved));
  RPE_RETURN_NOT_OK(r.Get(&payload_size));
  RPE_RETURN_NOT_OK(r.Get(&crc));
  RPE_RETURN_NOT_OK(r.Get(&aux_offset));
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("bad snapshot magic");
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads " + std::to_string(kSnapshotVersion) + ")");
  }
  if (payload_size != bytes.size() - kHeaderSize) {
    return Status::InvalidArgument(
        "snapshot payload size mismatch (truncated or padded file)");
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  // "snapshot.crc": the stored checksum reads back wrong — corruption on
  // the wire or at rest, detected exactly like a real bit flip.
  if (FrameCrc(aux_offset, payload) != crc ||
      RPE_INJECT_FAULT("snapshot.crc")) {
    return Status::InvalidArgument("snapshot payload CRC mismatch");
  }
  if (kind != static_cast<uint32_t>(SnapshotKind::kSelectorStack) &&
      kind != static_cast<uint32_t>(SnapshotKind::kRecordBatch)) {
    return Status::InvalidArgument("unknown snapshot kind " +
                                   std::to_string(kind));
  }
  // The CRC vouches for the aux offset; still bound it so no reader
  // chases a hand-crafted offset past the payload or onto a misaligned
  // slab. Every selector stack carries the aux section; record batches
  // have none.
  if (kind == static_cast<uint32_t>(SnapshotKind::kRecordBatch)) {
    if (aux_offset != 0) {
      return Status::InvalidArgument("record snapshot with an aux section");
    }
  } else if (aux_offset == 0) {
    return Status::InvalidArgument(
        "selector-stack snapshot without an aux section");
  } else if (aux_offset % 8 != 0) {
    return Status::InvalidArgument("snapshot aux section is misaligned");
  } else if (aux_offset >= payload.size()) {
    return Status::InvalidArgument("snapshot aux offset past the payload");
  }
  SnapshotFrame frame;
  frame.kind = static_cast<SnapshotKind>(kind);
  frame.aux_offset = aux_offset;
  frame.payload = payload;
  return frame;
}

SelectorStack SelectorStack::Train(const std::vector<PipelineRecord>& records,
                                   std::vector<size_t> pool,
                                   const MartParams& params) {
  SelectorStack stack;
  stack.static_selector = EstimatorSelector::Train(
      records, pool, /*use_dynamic_features=*/false, params);
  stack.dynamic_selector = EstimatorSelector::Train(
      records, std::move(pool), /*use_dynamic_features=*/true, params);
  return stack;
}

std::string EncodeSelectorStack(const SelectorStack& stack) {
  RPE_CHECK(!stack.static_selector.uses_dynamic_features());
  RPE_CHECK(stack.dynamic_selector.uses_dynamic_features());
  std::string out = OpenFrame(0);
  ByteWriter w(&out);
  EncodeSchema(&w);
  w.Pad8();
  const uint64_t aux_offset = out.size() - kHeaderSize;
  RPE_CHECK_LE(aux_offset, std::numeric_limits<uint32_t>::max());
  EncodeFlatSet(stack.static_selector, &w);
  EncodeFlatSet(stack.dynamic_selector, &w);
  return SealFrame(SnapshotKind::kSelectorStack, std::move(out),
                   static_cast<uint32_t>(aux_offset));
}

Result<std::shared_ptr<const SelectorStack>> DecodeSelectorStack(
    std::string_view bytes) {
  // An owned copy at 8-byte alignment, so the slabs can be borrowed in
  // place exactly as from a mapping.
  auto buffer = std::make_shared<std::vector<uint64_t>>((bytes.size() + 7) / 8);
  if (!bytes.empty()) std::memcpy(buffer->data(), bytes.data(), bytes.size());
  const std::string_view owned(reinterpret_cast<const char*>(buffer->data()),
                               bytes.size());
  return DecodeStackOver(std::move(buffer), owned);
}

Result<std::string> EncodeRecordBatch(
    const std::vector<PipelineRecord>& records) {
  size_t bytes = sizeof(uint64_t);
  for (size_t i = 0; i < records.size(); ++i) {
    const Status valid = ValidateRecordElement(records[i]);
    if (!valid.ok()) {
      return Status::InvalidArgument("cannot encode record " +
                                     std::to_string(i) + ": " +
                                     valid.message());
    }
    bytes += RecordElementBytes(records[i]);
  }
  std::string out = OpenFrame(bytes);
  ByteWriter w(&out);
  w.Put(static_cast<uint64_t>(records.size()));
  for (const PipelineRecord& r : records) PutRecordElement(r, &w);
  return SealFrame(SnapshotKind::kRecordBatch, std::move(out));
}

Result<std::vector<PipelineRecord>> DecodeRecordBatch(std::string_view bytes) {
  RPE_ASSIGN_OR_RETURN(std::string_view payload,
                       UnframeAs(SnapshotKind::kRecordBatch, bytes));
  ByteReader r(payload, kPayload);
  uint64_t count = 0;
  RPE_RETURN_NOT_OK(r.Get(&count));
  std::vector<PipelineRecord> records;
  records.reserve(static_cast<size_t>(std::min<uint64_t>(count, 65536)));
  for (uint64_t i = 0; i < count; ++i) {
    const Status element = GetRecordElement(&r, &records.emplace_back());
    if (!element.ok()) {
      return Status::InvalidArgument("record batch element " +
                                     std::to_string(i) + ": " +
                                     element.message());
    }
  }
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return records;
}

Result<SnapshotKind> PeekSnapshotKind(std::string_view bytes) {
  RPE_ASSIGN_OR_RETURN(SnapshotFrame frame, UnframeSnapshot(bytes));
  return frame.kind;
}

Result<SnapshotKind> PeekSnapshotFileKind(const std::string& path) {
  RPE_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return PeekSnapshotKind(bytes);
}

Result<std::string> ReadSnapshotFile(const std::string& path) {
  return ReadFile(path);
}

Status SaveSelectorStack(const SelectorStack& stack, const std::string& path) {
  return WriteFile(path, EncodeSelectorStack(stack));
}

Result<std::shared_ptr<const SelectorStack>> LoadSelectorStack(
    const std::string& path) {
  RPE_ASSIGN_OR_RETURN(std::shared_ptr<MmapArena> arena, MmapArena::Map(path));
  std::string_view bytes = arena->bytes();
  // "arena.short_map": the mapping comes up shorter than the file (disk
  // shrank underneath us, or a short read on a copying filesystem). The
  // frame's payload-size check must reject it before anything decodes.
  if (RPE_INJECT_FAULT("arena.short_map")) {
    bytes = bytes.substr(0, bytes.size() / 2);
  }
  return DecodeStackOver(std::move(arena), bytes);
}

Status SaveRecordBatch(const std::vector<PipelineRecord>& records,
                       const std::string& path) {
  RPE_ASSIGN_OR_RETURN(std::string bytes, EncodeRecordBatch(records));
  return WriteFile(path, bytes);
}

Result<std::vector<PipelineRecord>> LoadRecordBatch(const std::string& path) {
  RPE_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return DecodeRecordBatch(bytes);
}

}  // namespace rpe
