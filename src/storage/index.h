// Secondary sorted index over one table column, supporting equality seeks
// and range scans. Presence/absence of these indexes is what distinguishes
// the paper's "untuned" / "partially tuned" / "fully tuned" physical designs
// (Table 1): the planner only emits IndexSeek / index-nested-loop plans when
// a matching index exists.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace rpe {

/// \brief Sorted (key, rowid) pairs over `table.column(col)`.
class SortedIndex {
 public:
  SortedIndex(const Table* table, size_t column);

  const Table* table() const { return table_; }
  size_t column() const { return column_; }
  uint64_t num_entries() const { return entries_.size(); }

  /// The (key, row id) entries whose key equals `key` (seek), in row-id
  /// order: a view into the index, allocating nothing. O(log n).
  std::span<const std::pair<int64_t, RowId>> SeekEqual(int64_t key) const;

  /// Row ids with key in [lo, hi], in key order.
  std::vector<RowId> SeekRange(int64_t lo, int64_t hi) const;

  /// Number of matching entries without materializing them.
  uint64_t CountEqual(int64_t key) const;
  uint64_t CountRange(int64_t lo, int64_t hi) const;

  /// All row ids in key order (ordered index scan).
  const std::vector<std::pair<int64_t, RowId>>& entries() const {
    return entries_;
  }

 private:
  const Table* table_;
  size_t column_;
  std::vector<std::pair<int64_t, RowId>> entries_;
};

}  // namespace rpe
