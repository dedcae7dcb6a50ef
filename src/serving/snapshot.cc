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

constexpr size_t kMaxSlabElems = size_t{1} << 28;

// ---------------------------------------------------------------------------
// Byte-level writer/reader. The writer appends POD scalars and slabs to a
// growing string; the reader is bounds-checked and returns Status on any
// out-of-range access, so a truncated or hostile payload can never read
// past the buffer. Scalars may sit unaligned (both sides memcpy them);
// the aligned slabs of the compiled tables are padded to 8 bytes relative
// to the payload start, which itself sits 8-aligned in memory (file
// offset 32 of a page-aligned mapping or of an 8-aligned owned copy), so
// the reader can borrow them in place on their natural alignment.

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I32(int32_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Pad8() { out_->append((8 - out_->size() % 8) % 8, '\0'); }

  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  /// u32 count, then the raw elements (read back by copy).
  template <typename T>
  void Slab(const std::vector<T>& xs) {
    static_assert(std::is_trivially_copyable_v<T>);
    U32(static_cast<uint32_t>(xs.size()));
    Raw(xs.data(), xs.size() * sizeof(T));
  }

  /// u64 count, padding to 8, then the raw elements (read back in place).
  template <typename T>
  void AlignedSlab(const rpe::Slab<T>& s) {
    static_assert(alignof(T) <= 8);
    U64(s.size());
    Pad8();
    Raw(s.data(), s.size() * sizeof(T));
  }

 private:
  void Raw(const void* data, size_t size) {
    out_->append(static_cast<const char*>(data), size);
  }
  std::string* out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  Status U32(uint32_t* v) { return Raw(v, sizeof *v); }
  Status U64(uint64_t* v) { return Raw(v, sizeof *v); }
  Status I32(int32_t* v) { return Raw(v, sizeof *v); }
  Status F64(double* v) { return Raw(v, sizeof *v); }

  Status Align8() {
    const size_t aligned = (pos_ + 7) & ~size_t{7};
    if (aligned > bytes_.size()) return Truncated();
    pos_ = aligned;
    return Status::OK();
  }

  Status Str(std::string* s) {
    uint32_t size = 0;
    RPE_RETURN_NOT_OK(U32(&size));
    if (size > Remaining()) return Truncated();
    s->assign(bytes_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }

  template <typename T>
  Status Slab(std::vector<T>* xs) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint32_t count = 0;
    RPE_RETURN_NOT_OK(U32(&count));
    if (count > kMaxSlabElems || count * sizeof(T) > Remaining()) {
      return Truncated();
    }
    xs->resize(count);
    return Raw(xs->data(), count * sizeof(T));
  }

  /// An AlignedSlab, viewed in place: the result borrows the bytes, which
  /// the caller keeps alive.
  template <typename T>
  Status BorrowSlab(rpe::Slab<T>* out) {
    static_assert(alignof(T) <= 8);
    uint64_t count = 0;
    RPE_RETURN_NOT_OK(U64(&count));
    RPE_RETURN_NOT_OK(Align8());
    if (count > kMaxSlabElems || count * sizeof(T) > Remaining()) {
      return Truncated();
    }
    const char* p = bytes_.data() + pos_;
    RPE_DCHECK(reinterpret_cast<uintptr_t>(p) % alignof(T) == 0);
    *out = rpe::Slab<T>::Borrow(reinterpret_cast<const T*>(p),
                                static_cast<size_t>(count));
    pos_ += static_cast<size_t>(count) * sizeof(T);
    return Status::OK();
  }

  size_t Remaining() const { return bytes_.size() - pos_; }
  size_t pos() const { return pos_; }

 private:
  Status Raw(void* v, size_t size) {
    if (size > Remaining()) return Truncated();
    // An empty slab decodes to a vector whose data() may be null; memcpy
    // requires non-null pointers even for size 0.
    if (size != 0) std::memcpy(v, bytes_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }
  static Status Truncated() {
    return Status::InvalidArgument("snapshot payload truncated");
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Container framing.

/// Container CRC: the aux-offset header field, then the payload. The
/// offset steers the decode, so a bit flip there must read as
/// corruption, not as a confusing structural error deep in the aux parser.
uint32_t FrameCrc(uint32_t aux_offset, std::string_view payload) {
  return Crc32(payload.data(), payload.size(),
               Crc32(&aux_offset, sizeof aux_offset));
}

std::string Frame(SnapshotKind kind, std::string payload,
                  uint32_t aux_offset = 0) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  Writer w(&out);
  w.U32(kSnapshotMagic);
  w.U32(kSnapshotVersion);
  w.U32(static_cast<uint32_t>(kind));
  w.U32(0);
  w.U64(payload.size());
  w.U32(FrameCrc(aux_offset, payload));
  w.U32(aux_offset);
  out += payload;
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
void EncodeSchema(Writer* w) {
  const FeatureSchema& schema = FeatureSchema::Get();
  w->U32(static_cast<uint32_t>(schema.num_features()));
  w->U32(static_cast<uint32_t>(schema.num_static_features()));
  for (const std::string& name : schema.names()) w->Str(name);
}

Status DecodeAndCheckSchema(Reader* r) {
  const FeatureSchema& schema = FeatureSchema::Get();
  uint32_t num_features = 0, num_static = 0;
  RPE_RETURN_NOT_OK(r->U32(&num_features));
  RPE_RETURN_NOT_OK(r->U32(&num_static));
  if (num_features != schema.num_features() ||
      num_static != schema.num_static_features()) {
    return Status::InvalidArgument(
        "snapshot feature schema disagrees with this binary: " +
        std::to_string(num_features) + "/" + std::to_string(num_static) +
        " features vs " + std::to_string(schema.num_features()) + "/" +
        std::to_string(schema.num_static_features()));
  }
  for (size_t f = 0; f < schema.num_features(); ++f) {
    std::string name;
    RPE_RETURN_NOT_OK(r->Str(&name));
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

void EncodeFlatSet(const EstimatorSelector& selector, Writer* w) {
  const FlatEnsembleSet& flat = selector.flat();
  w->Pad8();
  w->U32(kFlatSectionMagic);
  w->U32(selector.uses_dynamic_features() ? 1 : 0);
  w->U64(flat.num_models());
  w->U64(selector.uses_dynamic_features()
             ? FeatureSchema::Get().num_features()
             : FeatureSchema::Get().num_static_features());
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
  w->I32(merged.num_features);
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
Result<EstimatorSelector> DecodeFlatSelector(Reader* r, bool expect_dynamic) {
  RPE_RETURN_NOT_OK(r->Align8());
  uint32_t magic = 0, use_dynamic = 0;
  uint64_t num_models = 0, num_inputs = 0;
  RPE_RETURN_NOT_OK(r->U32(&magic));
  if (magic != kFlatSectionMagic) {
    return Status::InvalidArgument("flat snapshot section has bad magic");
  }
  RPE_RETURN_NOT_OK(r->U32(&use_dynamic));
  if ((use_dynamic != 0) != expect_dynamic) {
    return Status::InvalidArgument(
        "flat snapshot section has the wrong feature mode");
  }
  RPE_RETURN_NOT_OK(r->U64(&num_models));
  RPE_RETURN_NOT_OK(r->U64(&num_inputs));
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
  RPE_RETURN_NOT_OK(r->I32(&tables.num_features));
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
  Reader r(frame.payload);
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
  if (r.Remaining() != 0) {
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
  Reader r(bytes.substr(0, kHeaderSize));
  uint32_t magic = 0, version = 0, kind = 0, reserved = 0, crc = 0;
  uint32_t aux_offset = 0;
  uint64_t payload_size = 0;
  RPE_RETURN_NOT_OK(r.U32(&magic));
  RPE_RETURN_NOT_OK(r.U32(&version));
  RPE_RETURN_NOT_OK(r.U32(&kind));
  RPE_RETURN_NOT_OK(r.U32(&reserved));
  RPE_RETURN_NOT_OK(r.U64(&payload_size));
  RPE_RETURN_NOT_OK(r.U32(&crc));
  RPE_RETURN_NOT_OK(r.U32(&aux_offset));
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
  std::string payload;
  Writer w(&payload);
  EncodeSchema(&w);
  w.Pad8();
  const uint64_t aux_offset = payload.size();
  RPE_CHECK_LE(aux_offset, std::numeric_limits<uint32_t>::max());
  EncodeFlatSet(stack.static_selector, &w);
  EncodeFlatSet(stack.dynamic_selector, &w);
  return Frame(SnapshotKind::kSelectorStack, std::move(payload),
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

std::string EncodeRecordBatch(const std::vector<PipelineRecord>& records) {
  const FeatureSchema& schema = FeatureSchema::Get();
  const size_t arity =
      records.empty() ? static_cast<size_t>(kNumEstimatorKinds)
                      : records.front().l1.size();
  std::string payload;
  Writer w(&payload);
  w.U32(static_cast<uint32_t>(schema.num_features()));
  w.U32(static_cast<uint32_t>(arity));
  w.U64(records.size());
  for (const PipelineRecord& r : records) {
    RPE_CHECK_EQ(r.features.size(), schema.num_features());
    RPE_CHECK_EQ(r.l1.size(), arity);
    RPE_CHECK_EQ(r.l2.size(), arity);
    w.Str(r.workload);
    w.Str(r.query);
    w.I32(r.pipeline_id);
    w.Str(r.tag);
    w.F64(r.total_n);
    w.Slab(r.features);
    w.Slab(r.l1);
    w.Slab(r.l2);
  }
  return Frame(SnapshotKind::kRecordBatch, std::move(payload));
}

Result<std::vector<PipelineRecord>> DecodeRecordBatch(std::string_view bytes) {
  RPE_ASSIGN_OR_RETURN(std::string_view payload,
                       UnframeAs(SnapshotKind::kRecordBatch, bytes));
  Reader r(payload);
  const FeatureSchema& schema = FeatureSchema::Get();
  uint32_t num_features = 0, arity = 0;
  uint64_t num_records = 0;
  RPE_RETURN_NOT_OK(r.U32(&num_features));
  RPE_RETURN_NOT_OK(r.U32(&arity));
  RPE_RETURN_NOT_OK(r.U64(&num_records));
  if (num_features != schema.num_features()) {
    return Status::InvalidArgument(
        "record snapshot feature count disagrees with this binary");
  }
  if (arity != static_cast<size_t>(kNumEstimatorKinds)) {
    return Status::InvalidArgument(
        "record snapshot estimator arity " + std::to_string(arity) +
        " disagrees with this binary's estimator table (" +
        std::to_string(kNumEstimatorKinds) + ")");
  }
  std::vector<PipelineRecord> records;
  records.reserve(static_cast<size_t>(std::min<uint64_t>(num_records, 65536)));
  for (uint64_t i = 0; i < num_records; ++i) {
    PipelineRecord rec;
    RPE_RETURN_NOT_OK(r.Str(&rec.workload));
    RPE_RETURN_NOT_OK(r.Str(&rec.query));
    RPE_RETURN_NOT_OK(r.I32(&rec.pipeline_id));
    RPE_RETURN_NOT_OK(r.Str(&rec.tag));
    RPE_RETURN_NOT_OK(r.F64(&rec.total_n));
    RPE_RETURN_NOT_OK(r.Slab(&rec.features));
    RPE_RETURN_NOT_OK(r.Slab(&rec.l1));
    RPE_RETURN_NOT_OK(r.Slab(&rec.l2));
    if (rec.features.size() != num_features || rec.l1.size() != arity ||
        rec.l2.size() != arity) {
      return Status::InvalidArgument("record snapshot row " +
                                     std::to_string(i) +
                                     " has mismatched arity");
    }
    records.push_back(std::move(rec));
  }
  if (r.Remaining() != 0) {
    return Status::InvalidArgument("snapshot has trailing payload bytes");
  }
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
  return WriteFile(path, EncodeRecordBatch(records));
}

Result<std::vector<PipelineRecord>> LoadRecordBatch(const std::string& path) {
  RPE_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return DecodeRecordBatch(bytes);
}

}  // namespace rpe
