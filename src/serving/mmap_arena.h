// MmapArena: a read-only private mapping of a whole snapshot file, the
// backing LoadSelectorStack (serving/snapshot.h) decodes in place. The
// decoded stack's compiled scoring tables are slab views into the mapping
// (no slab memcpy, no recompilation), and the stack co-owns the arena, so
// the mapping lives exactly as long as any reference to the stack — a
// MonitorService that holds the stack (published, or being decided
// against at open) transitively holds the mapping, and the file is
// unmapped when the last reference lets go.
//
// The mapping is private and read-only, but it still shows the file's
// current bytes: a file must never be rewritten in place while mapped.
// The snapshot writer enforces this by writing a temp file and renaming
// it over the target, so a mapped reader keeps the old inode.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

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
  /// True when the MADV_WILLNEED advice was accepted at Map time.
  bool prefaulted() const { return prefaulted_; }

 private:
  MmapArena(void* addr, size_t size, bool prefaulted)
      : addr_(addr), size_(size), prefaulted_(prefaulted) {}

  void* addr_;
  size_t size_;
  bool prefaulted_;
};

}  // namespace rpe
