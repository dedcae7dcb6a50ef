// Flat storage for the rows a materializing operator holds (sort buffers,
// hash-join build sides, merge-join groups, aggregation groups): rows of
// one width copied at exact size into fixed-size chunks, plus an
// open-addressing index from hashed keys to dense group ids. Neither
// allocates per row, and a stored row never moves.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include <sys/mman.h>

#include "common/logging.h"

namespace rpe {

/// \brief Rows of `width` values each, stored back to back in chunks of
/// kChunkBytes. A chunk holds the largest power-of-two number of rows that
/// fits (at least one) and is never reallocated, so a row's address is
/// stable until Clear. Chunks are mapped straight from the OS and unmapped
/// when the store dies: a large sort or build buffer leaves the process as
/// soon as its operator is destroyed, instead of staying behind as a hole
/// in a malloc arena that raises the process's peak resident size.
class RowStore {
 public:
  static constexpr size_t kChunkBytes = 64 * 1024;

  explicit RowStore(size_t width);
  ~RowStore();
  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  size_t width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Copy `row` (exactly width() values) in; returns its index.
  size_t Append(std::span<const int64_t> row) {
    RPE_DCHECK(row.size() == width_);
    if ((size_ >> shift_) == chunks_.size()) AddChunk();
    std::copy(row.begin(), row.end(), mutable_row(size_));
    return size_++;
  }

  std::span<const int64_t> row(size_t i) const {
    return {chunks_[i >> shift_] + (i & mask_) * width_, width_};
  }
  int64_t* mutable_row(size_t i) {
    return chunks_[i >> shift_] + (i & mask_) * width_;
  }

  /// Forget every row; the chunks stay mapped for the next rows.
  void Clear() { size_ = 0; }

 private:
  void AddChunk();

  size_t width_;
  int shift_;    ///< log2 of the rows per chunk
  size_t mask_;  ///< rows per chunk - 1
  size_t size_ = 0;
  std::vector<int64_t*> chunks_;
};

/// \brief Open-addressing index from a caller-hashed key to a dense group
/// id (0, 1, 2, ... in first-insertion order). The caller keeps the keys:
/// it passes each lookup the key's hash and a test `same(id)` of whether
/// group `id` holds that key.
class GroupIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  size_t size() const { return hashes_.size(); }

  /// The group holding the key, or kNone.
  template <typename Same>
  uint32_t Find(uint64_t hash, Same same) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t s = hash & mask;; s = (s + 1) & mask) {
      const uint32_t id = slots_[s];
      if (id == kNone) return kNone;
      if (hashes_[id] == hash && same(id)) return id;
    }
  }

  /// The group holding the key; a new group (id size()) when there is
  /// none, with `*inserted` telling which.
  template <typename Same>
  uint32_t FindOrInsert(uint64_t hash, Same same, bool* inserted) {
    if (2 * (size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t s = hash & mask;
    for (;; s = (s + 1) & mask) {
      const uint32_t id = slots_[s];
      if (id == kNone) break;
      if (hashes_[id] == hash && same(id)) {
        *inserted = false;
        return id;
      }
    }
    const auto id = static_cast<uint32_t>(size());
    slots_[s] = id;
    hashes_.push_back(hash);
    *inserted = true;
    return id;
  }

  /// Forget every group; the slot array stays allocated.
  void Clear() {
    hashes_.clear();
    std::fill(slots_.begin(), slots_.end(), kNone);
  }

 private:
  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kNone);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      size_t s = hashes_[id] & mask;
      while (slots_[s] != kNone) s = (s + 1) & mask;
      slots_[s] = id;
    }
  }

  std::vector<uint32_t> slots_;   ///< group id per slot, kNone when empty
  std::vector<uint64_t> hashes_;  ///< hash per group id
};

/// Mix one key value into a running hash (splitmix64 finalizer).
inline uint64_t HashMix(uint64_t h, int64_t v) {
  uint64_t x = h ^ static_cast<uint64_t>(v);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace rpe
