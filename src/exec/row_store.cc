#include "exec/row_store.h"

#include <sys/mman.h>

namespace rpe {
namespace {

/// log2 of the number of rows of `width` values a chunk holds: the
/// largest power of two that fits, and at least one.
int RowsPerChunkLog2(size_t width) {
  const size_t fit = RowStore::kChunkBytes / sizeof(int64_t) /
                     std::max<size_t>(width, 1);
  return std::countr_zero(std::bit_floor(std::max<size_t>(fit, 1)));
}

}  // namespace

RowStore::RowStore(size_t width)
    : width_(width),
      shift_(RowsPerChunkLog2(width)),
      mask_((size_t{1} << shift_) - 1) {
  RPE_CHECK_LE(width * sizeof(int64_t), kChunkBytes)
      << "row wider than a chunk";
}

RowStore::~RowStore() {
  for (int64_t* chunk : chunks_) munmap(chunk, kChunkBytes);
}

void RowStore::AddChunk() {
  void* chunk = mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  RPE_CHECK(chunk != MAP_FAILED) << "cannot map a row chunk";
  chunks_.push_back(static_cast<int64_t*>(chunk));
}

}  // namespace rpe
