#include "serving/mmap_arena.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <iostream>

#include "common/failpoint.h"

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

}  // namespace rpe
