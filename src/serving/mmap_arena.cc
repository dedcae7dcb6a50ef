#include "serving/mmap_arena.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <iostream>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "mart/flat_ensemble.h"
#include "selection/features.h"

namespace rpe {

Result<std::shared_ptr<MmapArena>> MmapArena::Map(const std::string& path) {
  const int fd = RPE_INJECT_FAULT("arena.open") ? -1
                                                : ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open for mmap: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument("cannot mmap empty snapshot: " + path);
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (RPE_INJECT_FAULT("arena.mmap")) {
    if (addr != MAP_FAILED) ::munmap(addr, size);
    addr = MAP_FAILED;
  }
  if (addr == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path);
  }
  // Prefault hint: the loader CRC-sweeps the whole file immediately, so
  // ask the kernel to read it ahead instead of faulting page by page.
  // Advisory only — a refusal costs throughput, not correctness.
  const bool prefaulted = !RPE_INJECT_FAULT("arena.madvise") &&
                          ::madvise(addr, size, MADV_WILLNEED) == 0;
  if (!prefaulted) {
    std::cerr << "madvise(MADV_WILLNEED) failed for " << path
              << "; continuing without prefault\n";
  }
  return std::shared_ptr<MmapArena>(new MmapArena(addr, size, prefaulted));
}

MmapArena::~MmapArena() { ::munmap(addr_, size_); }

namespace {

constexpr size_t kMaxSlabElems = size_t{1} << 28;

/// Bounds-checked cursor over the aux section, mirroring the writer in
/// snapshot.cc (AuxWriter): scalars are memcpy'd (they may be unaligned),
/// slab data is 8-aligned relative to the payload start and borrowed in
/// place. Callers only construct a cursor over an 8-aligned payload base
/// with an 8-aligned aux offset (anything else is rejected up front), so
/// Align8 keeps every borrowed slab on its natural alignment by
/// construction.
class AuxCursor {
 public:
  AuxCursor(std::string_view payload, size_t pos)
      : payload_(payload), pos_(pos) {}

  Status U32(uint32_t* v) { return Raw(v, sizeof *v); }
  Status U64(uint64_t* v) { return Raw(v, sizeof *v); }
  Status I32(int32_t* v) { return Raw(v, sizeof *v); }
  Status F64(double* v) { return Raw(v, sizeof *v); }

  Status Align8() {
    const size_t aligned = (pos_ + 7) & ~size_t{7};
    if (aligned > payload_.size()) return Truncated();
    pos_ = aligned;
    return Status::OK();
  }

  template <typename T>
  Status BorrowSlab(Slab<T>* out) {
    static_assert(alignof(T) <= 8);
    uint64_t count = 0;
    RPE_RETURN_NOT_OK(U64(&count));
    RPE_RETURN_NOT_OK(Align8());
    if (count > kMaxSlabElems || count * sizeof(T) > Remaining()) {
      return Truncated();
    }
    const char* p = payload_.data() + pos_;
    RPE_DCHECK(reinterpret_cast<uintptr_t>(p) % alignof(T) == 0);
    *out = Slab<T>::Borrow(reinterpret_cast<const T*>(p),
                           static_cast<size_t>(count));
    pos_ += static_cast<size_t>(count) * sizeof(T);
    return Status::OK();
  }

  size_t Remaining() const { return payload_.size() - pos_; }
  size_t pos() const { return pos_; }

 private:
  Status Raw(void* v, size_t size) {
    if (size > Remaining()) return Truncated();
    if (size != 0) std::memcpy(v, payload_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }
  static Status Truncated() {
    return Status::InvalidArgument("flat snapshot section truncated");
  }

  std::string_view payload_;
  size_t pos_;
};

/// One selector's flat section → a model-free EstimatorSelector whose
/// scoring slabs alias the mapping. Structural validation happens in
/// FlatEnsembleSet::FromParts / EstimatorSelector::FromFlat.
Result<EstimatorSelector> DecodeFlatSelector(AuxCursor* c,
                                             bool expect_dynamic) {
  RPE_RETURN_NOT_OK(c->Align8());
  uint32_t magic = 0, use_dynamic = 0;
  uint64_t num_models = 0, num_inputs = 0;
  RPE_RETURN_NOT_OK(c->U32(&magic));
  if (magic != kFlatSectionMagic) {
    return Status::InvalidArgument("flat snapshot section has bad magic");
  }
  RPE_RETURN_NOT_OK(c->U32(&use_dynamic));
  if ((use_dynamic != 0) != expect_dynamic) {
    return Status::InvalidArgument(
        "flat snapshot section has the wrong feature mode");
  }
  RPE_RETURN_NOT_OK(c->U64(&num_models));
  RPE_RETURN_NOT_OK(c->U64(&num_inputs));
  const FeatureSchema& schema = FeatureSchema::Get();
  const size_t expected_inputs = expect_dynamic
                                     ? schema.num_features()
                                     : schema.num_static_features();
  if (num_models > 4096 || num_inputs != expected_inputs) {
    return Status::InvalidArgument(
        "flat snapshot section model count or input width out of range");
  }

  Slab<uint64_t> pool_slab;
  RPE_RETURN_NOT_OK(c->BorrowSlab(&pool_slab));
  if (pool_slab.size() != num_models) {
    return Status::InvalidArgument("flat snapshot pool size mismatch");
  }

  Slab<uint64_t> gain_lens;
  Slab<double> gain_concat;
  RPE_RETURN_NOT_OK(c->BorrowSlab(&gain_lens));
  RPE_RETURN_NOT_OK(c->BorrowSlab(&gain_concat));

  flat_internal::MergedQuickScorer tables;
  RPE_RETURN_NOT_OK(c->I32(&tables.num_features));
  RPE_RETURN_NOT_OK(c->BorrowSlab(&tables.feat_begin));
  RPE_RETURN_NOT_OK(c->BorrowSlab(&tables.threshold));
  RPE_RETURN_NOT_OK(c->BorrowSlab(&tables.entry_tree));
  RPE_RETURN_NOT_OK(c->BorrowSlab(&tables.entry_mask));
  RPE_RETURN_NOT_OK(c->BorrowSlab(&tables.init_mask));
  RPE_RETURN_NOT_OK(c->BorrowSlab(&tables.leaf_base));
  RPE_RETURN_NOT_OK(c->BorrowSlab(&tables.leaf_value));
  RPE_RETURN_NOT_OK(c->BorrowSlab(&tables.model_tree_begin));
  RPE_RETURN_NOT_OK(c->BorrowSlab(&tables.bias));

  // Gains are tiny (one double per feature per model): copy them out of
  // the mapping so FeatureImportance needs no arena bookkeeping.
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

/// Keeps the mapping alive exactly as long as the aliased stack: the
/// public shared_ptr<const SelectorStack> aliases `stack` while owning
/// this holder.
struct ArenaBackedStack {
  std::shared_ptr<MmapArena> arena;
  SelectorStack stack;
};

}  // namespace

Result<ArenaStackLoad> LoadSelectorStackMmap(const std::string& path) {
  RPE_ASSIGN_OR_RETURN(std::shared_ptr<MmapArena> arena, MmapArena::Map(path));
  std::string_view bytes = arena->bytes();
  // "arena.short_map": the mapping comes up shorter than the file (disk
  // shrank underneath us, or a short read on a copying filesystem). The
  // frame's payload-size check must reject it before anything decodes.
  if (RPE_INJECT_FAULT("arena.short_map")) bytes = bytes.substr(0, bytes.size() / 2);
  RPE_ASSIGN_OR_RETURN(SnapshotFrame frame, UnframeSnapshot(bytes));
  if (frame.kind != SnapshotKind::kSelectorStack) {
    return Status::InvalidArgument("snapshot holds a different payload kind");
  }

  // UnframeSnapshot guarantees an 8-aligned aux offset, and the mapping
  // is page-aligned (payload at +32); with both, every slab the cursor
  // borrows is on its natural alignment by construction.
  RPE_RETURN_NOT_OK(snapshot_internal::CheckSchemaPrefix(frame.payload));
  auto holder = std::make_shared<ArenaBackedStack>();
  holder->arena = arena;
  AuxCursor cursor(frame.payload, frame.aux_offset);
  RPE_ASSIGN_OR_RETURN(holder->stack.static_selector,
                       DecodeFlatSelector(&cursor, /*expect_dynamic=*/false));
  RPE_ASSIGN_OR_RETURN(holder->stack.dynamic_selector,
                       DecodeFlatSelector(&cursor, /*expect_dynamic=*/true));
  if (cursor.Remaining() != 0) {
    return Status::InvalidArgument("flat snapshot section has trailing bytes");
  }
  ArenaStackLoad out;
  out.stack = std::shared_ptr<const SelectorStack>(holder, &holder->stack);
  out.mapped_bytes = arena->size();
  return out;
}

}  // namespace rpe
