// Zero-copy snapshot loading: MmapArena maps an .rpsn selector-stack file
// read-only and LoadSelectorStackMmap rebuilds the SelectorStack with the
// compiled scoring tables (FlatEnsembleSet) pointing straight into the
// mapping — no tree decode, no slab memcpy, no recompilation. This is the
// warm-restart / hot-publish path the serving tier uses when model slabs
// are large enough that copying them through the heap dominates load time.
//
// How it works: every selector-stack snapshot carries an aux section with
// each selector's merged QuickScorer tables as 8-aligned slabs (see
// serving/snapshot.h for the layout). The loader CRC-validates the
// container, checks the feature schema, then constructs
// Slab<T>::Borrow views over the mapped bytes and passes them through the
// untrusted-input gates (FlatEnsembleSet::FromParts,
// EstimatorSelector::FromFlat) — a truncated, corrupt, or hostile file
// yields a Status, never UB.
//
// Ownership and lifetime: the returned shared_ptr<const SelectorStack>
// aliases a holder that co-owns the MmapArena, so the mapping lives
// exactly as long as any reference to the stack — a MonitorService that
// holds the stack (published, or being decided against at open)
// transitively holds the mapping, and the file is unmapped when the last
// reference lets go. The mapping is private and
// read-only; mutating the file on disk while mapped is the caller's
// responsibility to avoid (publish by writing a new file + atomic rename,
// never by rewriting in place).
//
// No fallback: this loader always aliases the mapping. Any other format
// version, a missing or misaligned aux section, and structural damage (bad
// magic, CRC mismatch, truncation, out-of-range tables) are errors.
//
// Model-free stacks: an mmap-loaded selector has no MartModels
// (EstimatorSelector::has_models() == false). It scores bit-identically
// to the heap-loaded stack, but it cannot be re-encoded or re-trained
// from; treat it as a scoring artifact.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "serving/snapshot.h"

namespace rpe {

/// \brief A read-only private memory mapping of a whole file. Thread-safe
/// after construction (the mapping is immutable).
class MmapArena {
 public:
  /// Map `path` read-only. IOError when the file cannot be opened or
  /// mapped; InvalidArgument for an empty file (shorter than any header).
  /// A successful mapping is advised with madvise(MADV_WILLNEED) so the
  /// kernel prefaults the snapshot ahead of the CRC sweep instead of one
  /// 4 KiB page per fault; madvise is advisory, so a failure (failpoint
  /// `arena.madvise`) degrades to a warning and `prefaulted() == false`,
  /// never an error.
  static Result<std::shared_ptr<MmapArena>> Map(const std::string& path);

  ~MmapArena();
  MmapArena(const MmapArena&) = delete;
  MmapArena& operator=(const MmapArena&) = delete;

  std::string_view bytes() const {
    return {static_cast<const char*>(addr_), size_};
  }
  size_t size() const { return size_; }
  /// True when the MADV_WILLNEED advice was accepted at Map time.
  bool prefaulted() const { return prefaulted_; }

 private:
  MmapArena(void* addr, size_t size, bool prefaulted)
      : addr_(addr), size_(size), prefaulted_(prefaulted) {}

  void* addr_;
  size_t size_;
  bool prefaulted_;
};

/// \brief Result of LoadSelectorStackMmap.
struct ArenaStackLoad {
  /// The loaded stack; it transitively owns the mapping.
  std::shared_ptr<const SelectorStack> stack;
  size_t mapped_bytes = 0;
};

/// Map an .rpsn selector-stack snapshot and rebuild it zero-copy. All
/// validation is performed before the stack is returned; the result
/// scores bit-identically to LoadSelectorStack on the same file.
Result<ArenaStackLoad> LoadSelectorStackMmap(const std::string& path);

}  // namespace rpe
