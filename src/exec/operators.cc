#include "exec/operators.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "exec/cost_model.h"

namespace rpe {

namespace {

/// Write a followed by b into `out`, reusing its buffer.
void ConcatRows(std::span<const int64_t> a, std::span<const int64_t> b,
                Row* out) {
  out->assign(a.begin(), a.end());
  out->insert(out->end(), b.begin(), b.end());
}

/// Sort the rows of `rows` into `order`, by the primary key column with a
/// full-row tiebreak. Rows that compare equal are identical, so the order
/// of the emitted values is fully determined.
void SortRows(const RowStore& rows, size_t key,
              std::vector<const int64_t*>* order) {
  order->clear();
  order->reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    order->push_back(rows.row(i).data());
  }
  const size_t width = rows.width();
  std::sort(order->begin(), order->end(),
            [key, width](const int64_t* a, const int64_t* b) {
              if (a[key] != b[key]) return a[key] < b[key];
              return std::lexicographical_compare(a, a + width, b, b + width);
            });
}

/// The single base table fed into an inner NLJ subtree (for the
/// matches-per-outer-row bound used in cardinality refinement).
const PlanNode* InnerLeaf(const PlanNode* node) {
  while (node->num_children() > 0) node = node->child(0);
  return node;
}

}  // namespace

Operator::Operator(const PlanNode* node, ExecContext* ctx)
    : node_(node),
      ctx_(ctx),
      width_(static_cast<double>(node->output_schema.row_width_bytes())) {}

void Operator::ReOpen() {
  Close();
  Open();
}

bool Operator::Next(Row* out) {
  if (!NextImpl(out)) return false;
  ctx_->OnRowProduced(node_->id, node_->op, width_);
  return true;
}

// --- TableScanOp ------------------------------------------------------------

TableScanOp::TableScanOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {}

void TableScanOp::Open() {
  table_ = *ctx_->catalog().GetTable(node_->table);
  pos_ = 0;
  if (!node_->nlj_inner) {
    // Driver-node input sizes are known exactly at pipeline start (§3.4).
    NodeCounters& c = counters();
    const double n = static_cast<double>(table_->num_rows());
    c.e = n;
    c.lb = std::max(c.lb, 0.0);
    c.ub = n;
  }
}

void TableScanOp::ReOpen() {
  // Rescan (naive nested-loop inner): position resets, counters accumulate.
  // A nested-loop join re-opens its inner subtree lazily, so the first
  // ReOpen may arrive before any Open.
  if (table_ == nullptr) {
    Open();
    return;
  }
  pos_ = 0;
}

bool TableScanOp::NextImpl(Row* out) {
  if (pos_ >= table_->num_rows()) return false;
  *out = table_->row(pos_++);
  ctx_->Charge(width_ * kReadCostPerByte);  // physical read
  return true;
}

// --- IndexScanOp ------------------------------------------------------------

IndexScanOp::IndexScanOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {}

void IndexScanOp::Open() {
  table_ = *ctx_->catalog().GetTable(node_->table);
  index_ = ctx_->catalog().GetIndex(node_->table, node_->index_column);
  RPE_CHECK(index_ != nullptr) << "missing index for IndexScan";
  pos_ = 0;
  if (!node_->nlj_inner) {
    NodeCounters& c = counters();
    const double n = static_cast<double>(index_->num_entries());
    c.e = n;
    c.ub = n;
  }
}

void IndexScanOp::ReOpen() {
  if (index_ == nullptr) {
    Open();
    return;
  }
  pos_ = 0;
}

bool IndexScanOp::NextImpl(Row* out) {
  if (pos_ >= index_->entries().size()) return false;
  *out = table_->row(index_->entries()[pos_++].second);
  ctx_->Charge(width_ * kReadCostPerByte);
  return true;
}

// --- IndexSeekOp ------------------------------------------------------------

IndexSeekOp::IndexSeekOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {}

void IndexSeekOp::Open() {
  if (index_ == nullptr) {
    // Resolved once: a nested-loop join re-opens the seek per outer row.
    table_ = *ctx_->catalog().GetTable(node_->table);
    index_ = ctx_->catalog().GetIndex(node_->table, node_->index_column);
    RPE_CHECK(index_ != nullptr) << "missing index for IndexSeek";
  }
  matches_ = index_->SeekEqual(ctx_->correlated_key());
  pos_ = 0;
  ctx_->Charge(kSeekOpenCost);  // B-tree descent
}

void IndexSeekOp::ReOpen() { Open(); }

bool IndexSeekOp::NextImpl(Row* out) {
  if (pos_ >= matches_.size()) return false;
  *out = table_->row(matches_[pos_++].second);
  ctx_->Charge(width_ * kReadCostPerByte);
  return true;
}

// --- FilterOp ---------------------------------------------------------------

FilterOp::FilterOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void FilterOp::Open() {
  child_->Open();
  // Capture the correlated parameter at open time: a nested-loop join deeper
  // in this subtree may overwrite the context's key while we are draining.
  param_ = ctx_->correlated_key();
}

void FilterOp::ReOpen() {
  child_->ReOpen();
  param_ = ctx_->correlated_key();
}

void FilterOp::Close() { child_->Close(); }

bool FilterOp::NextImpl(Row* out) {
  // The child fills the caller's row; a rejected row is overwritten.
  while (child_->Next(out)) {
    if (node_->pred.Eval(*out, param_)) return true;
  }
  return false;
}

// --- NestedLoopJoinOp -------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  outer_ = Operator::Create(node->child(0), ctx);
  inner_ = Operator::Create(node->child(1), ctx);
}

void NestedLoopJoinOp::Open() {
  outer_->Open();
  have_outer_ = false;
  // Bound on matches per outer row: the size of the inner base table.
  const PlanNode* leaf = InnerLeaf(node_->child(1));
  if (!leaf->table.empty()) {
    auto t = ctx_->catalog().GetTable(leaf->table);
    if (t.ok()) {
      counters().max_join_group = static_cast<double>((*t)->num_rows());
    }
  }
}

void NestedLoopJoinOp::Close() {
  outer_->Close();
  inner_->Close();
}

bool NestedLoopJoinOp::NextImpl(Row* out) {
  while (true) {
    if (!have_outer_) {
      if (!outer_->Next(&outer_row_)) return false;
      ctx_->SetCorrelatedKey(outer_row_[node_->left_key]);
      inner_->ReOpen();
      have_outer_ = true;
    }
    if (inner_->Next(&inner_row_)) {
      ConcatRows(outer_row_, inner_row_, out);
      return true;
    }
    have_outer_ = false;
  }
}

// --- HashJoinOp -------------------------------------------------------------

HashJoinOp::HashJoinOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx), rows_(node->child(0)->output_schema.num_columns()) {
  build_ = Operator::Create(node->child(0), ctx);
  probe_ = Operator::Create(node->child(1), ctx);
}

void HashJoinOp::Open() {
  rows_.Clear();
  index_.Clear();
  groups_.clear();
  next_.clear();
  match_ = GroupIndex::kNone;

  build_->Open();
  const double build_width =
      static_cast<double>(node_->child(0)->output_schema.row_width_bytes());
  const double mem_limit = ctx_->options().memory_limit_bytes;
  double build_bytes = 0.0;
  double spilled_rows = 0.0;
  double max_group = 0.0;
  while (build_->Next(&row_)) {
    const int64_t key = row_[node_->left_key];
    const auto index = static_cast<uint32_t>(rows_.Append(row_));
    next_.push_back(GroupIndex::kNone);
    bool inserted = false;
    const uint32_t g = index_.FindOrInsert(
        HashMix(0, key), [&](uint32_t id) { return groups_[id].key == key; },
        &inserted);
    if (inserted) {
      groups_.push_back({key, index, index, 0});
    } else {
      next_[groups_[g].tail] = index;
      groups_[g].tail = index;
    }
    max_group = std::max(max_group, static_cast<double>(++groups_[g].size));
    ctx_->Charge(BuildCostPerRow(OpType::kHashJoin));
    build_bytes += build_width;
    if (build_bytes > mem_limit) {
      // Spill: this row's partition goes to (virtual) disk.
      spilled_rows += 1.0;
      ctx_->ChargeWrite(node_->id, build_width);
    }
  }
  if (spilled_rows > 0.0) {
    // Re-read pass over spilled partitions; per §3.1 spills surface as
    // additional GetNext calls at the node.
    NodeCounters& c = counters();
    for (double i = 0.0; i < spilled_rows; i += 1.0) {
      c.k += 1.0;
      ctx_->ChargeRead(node_->id, build_width);
    }
  }
  NodeCounters& c = counters();
  c.max_join_group = max_group;
  c.input_done = true;

  probe_->Open();
}

void HashJoinOp::Close() {
  build_->Close();
  probe_->Close();
}

bool HashJoinOp::NextImpl(Row* out) {
  while (true) {
    if (match_ != GroupIndex::kNone) {
      ConcatRows(rows_.row(match_), probe_row_, out);
      match_ = next_[match_];
      return true;
    }
    if (!probe_->Next(&probe_row_)) return false;
    const int64_t key = probe_row_[node_->right_key];
    const uint32_t g = index_.Find(
        HashMix(0, key), [&](uint32_t id) { return groups_[id].key == key; });
    if (g != GroupIndex::kNone) match_ = groups_[g].head;
  }
}

// --- MergeJoinOp ------------------------------------------------------------

MergeJoinOp::MergeJoinOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx),
      right_group_(node->child(1)->output_schema.num_columns()) {
  left_ = Operator::Create(node->child(0), ctx);
  right_ = Operator::Create(node->child(1), ctx);
}

void MergeJoinOp::Open() {
  left_->Open();
  right_->Open();
  have_left_ = AdvanceLeft();
  have_right_ = AdvanceRight();
  right_group_.Clear();
  emitting_ = false;
}

void MergeJoinOp::Close() {
  left_->Close();
  right_->Close();
}

bool MergeJoinOp::AdvanceLeft() {
  have_left_ = left_->Next(&left_row_);
  return have_left_;
}

bool MergeJoinOp::AdvanceRight() {
  have_right_ = right_->Next(&right_row_);
  return have_right_;
}

bool MergeJoinOp::NextImpl(Row* out) {
  while (true) {
    if (emitting_) {
      if (group_pos_ < right_group_.size()) {
        ConcatRows(left_row_, right_group_.row(group_pos_++), out);
        return true;
      }
      emitting_ = false;
      if (!AdvanceLeft()) return false;
      if (left_row_[node_->left_key] == group_key_) {
        group_pos_ = 0;
        emitting_ = true;
        continue;
      }
    }
    if (!have_left_ || !have_right_) return false;
    const int64_t lk = left_row_[node_->left_key];
    const int64_t rk = right_row_[node_->right_key];
    if (lk < rk) {
      if (!AdvanceLeft()) return false;
    } else if (lk > rk) {
      if (!AdvanceRight()) return false;
    } else {
      group_key_ = lk;
      right_group_.Clear();
      while (have_right_ && right_row_[node_->right_key] == group_key_) {
        right_group_.Append(right_row_);
        AdvanceRight();
      }
      group_pos_ = 0;
      emitting_ = true;
    }
  }
}

// --- SortOp -----------------------------------------------------------------

SortOp::SortOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx), rows_(node->output_schema.num_columns()) {
  child_ = Operator::Create(node->child(0), ctx);
}

void SortOp::Open() {
  rows_.Clear();
  pos_ = 0;
  child_->Open();
  const double mem_limit = ctx_->options().memory_limit_bytes;
  double buffered_bytes = 0.0;
  while (child_->Next(&row_)) {
    rows_.Append(row_);
    ctx_->Charge(BuildCostPerRow(OpType::kSort));
    buffered_bytes += width_;
    if (buffered_bytes > mem_limit) {
      // External sort: run written to (virtual) disk.
      ctx_->ChargeWrite(node_->id, width_);
    }
  }
  SortRows(rows_, node_->sort_key, &order_);
  // Comparison work, charged in chunks so the observation sampler can see
  // time passing during long sorts.
  const double n = static_cast<double>(rows_.size());
  const double sort_cpu = 0.3 * n * std::log2(n + 2.0);
  const int chunks = 32;
  for (int i = 0; i < chunks; ++i) ctx_->Charge(sort_cpu / chunks);
  NodeCounters& c = counters();
  c.input_done = true;
  c.e = n;
  c.ub = n;
}

void SortOp::Close() {
  child_->Close();
  rows_.Clear();
  order_.clear();
}

bool SortOp::NextImpl(Row* out) {
  if (pos_ >= order_.size()) return false;
  const int64_t* row = order_[pos_++];
  out->assign(row, row + rows_.width());
  return true;
}

// --- BatchSortOp ------------------------------------------------------------

BatchSortOp::BatchSortOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx), batch_(node->output_schema.num_columns()) {
  child_ = Operator::Create(node->child(0), ctx);
}

void BatchSortOp::Open() {
  child_->Open();
  batch_.Clear();
  order_.clear();
  pos_ = 0;
  child_done_ = false;
}

void BatchSortOp::ReOpen() {
  child_->ReOpen();
  batch_.Clear();
  order_.clear();
  pos_ = 0;
  child_done_ = false;
}

void BatchSortOp::Close() {
  child_->Close();
  batch_.Clear();
  order_.clear();
}

bool BatchSortOp::Refill() {
  batch_.Clear();
  order_.clear();
  pos_ = 0;
  if (child_done_) return false;
  while (batch_.size() < node_->batch_size) {
    if (!child_->Next(&row_)) {
      child_done_ = true;
      break;
    }
    batch_.Append(row_);
    ctx_->Charge(BuildCostPerRow(OpType::kBatchSort));
  }
  if (batch_.empty()) return false;
  SortRows(batch_, node_->sort_key, &order_);
  return true;
}

bool BatchSortOp::NextImpl(Row* out) {
  if (pos_ >= order_.size()) {
    if (!Refill()) return false;
  }
  const int64_t* row = order_[pos_++];
  out->assign(row, row + batch_.width());
  return true;
}

// --- HashAggregateOp --------------------------------------------------------

HashAggregateOp::HashAggregateOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx), groups_(node->group_cols.size() + 1) {
  child_ = Operator::Create(node->child(0), ctx);
}

void HashAggregateOp::Open() {
  groups_.Clear();
  index_.Clear();
  order_.clear();
  pos_ = 0;
  child_->Open();
  const std::vector<size_t>& cols = node_->group_cols;
  group_.assign(cols.size() + 1, 0);
  while (child_->Next(&row_)) {
    uint64_t hash = 0;
    for (size_t i = 0; i < cols.size(); ++i) {
      group_[i] = row_[cols[i]];
      hash = HashMix(hash, group_[i]);
    }
    bool inserted = false;
    const uint32_t g = index_.FindOrInsert(
        hash,
        [&](uint32_t id) {
          return std::equal(group_.begin(), group_.end() - 1,
                            groups_.row(id).begin());
        },
        &inserted);
    if (inserted) groups_.Append(group_);
    groups_.mutable_row(g)[cols.size()] += 1;
    ctx_->Charge(BuildCostPerRow(OpType::kHashAggregate));
  }
  // Emit in ascending order of the group-by values, for a deterministic
  // order across platforms. Group-by values are unique per group, so
  // the full-row order is theirs.
  SortRows(groups_, 0, &order_);
  NodeCounters& c = counters();
  c.input_done = true;
  c.e = static_cast<double>(groups_.size());
  c.ub = c.e;
}

void HashAggregateOp::Close() {
  child_->Close();
  groups_.Clear();
  index_.Clear();
  order_.clear();
}

bool HashAggregateOp::NextImpl(Row* out) {
  if (pos_ >= order_.size()) return false;
  const int64_t* group = order_[pos_++];
  out->assign(group, group + groups_.width());
  return true;
}

// --- StreamAggregateOp ------------------------------------------------------

StreamAggregateOp::StreamAggregateOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void StreamAggregateOp::Open() {
  child_->Open();
  have_pending_ = false;
}

void StreamAggregateOp::ReOpen() {
  child_->ReOpen();
  have_pending_ = false;
}

void StreamAggregateOp::Close() { child_->Close(); }

bool StreamAggregateOp::NextImpl(Row* out) {
  if (!have_pending_) {
    if (!child_->Next(&pending_)) return false;
    have_pending_ = true;
  }
  const std::vector<size_t>& cols = node_->group_cols;
  const auto same_group = [&](const Row& a, const Row& b) {
    for (size_t col : cols) {
      if (a[col] != b[col]) return false;
    }
    return true;
  };
  // The output row: the pending row's group-by values, then the count.
  const auto emit = [&](int64_t count) {
    out->clear();
    for (size_t col : cols) out->push_back(pending_[col]);
    out->push_back(count);
  };
  int64_t count = 1;
  while (child_->Next(&row_)) {
    ctx_->Charge(0.4);  // per-input aggregation work
    if (same_group(row_, pending_)) {
      ++count;
    } else {
      emit(count);
      std::swap(pending_, row_);
      return true;
    }
  }
  have_pending_ = false;
  emit(count);
  return true;
}

// --- TopOp ------------------------------------------------------------------

TopOp::TopOp(const PlanNode* node, ExecContext* ctx) : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void TopOp::Open() {
  child_->Open();
  emitted_ = 0;
}

void TopOp::ReOpen() {
  child_->ReOpen();
  emitted_ = 0;
}

void TopOp::Close() { child_->Close(); }

bool TopOp::NextImpl(Row* out) {
  if (emitted_ >= node_->limit) return false;
  if (!child_->Next(out)) return false;
  ++emitted_;
  return true;
}

// --- Factory ----------------------------------------------------------------

std::unique_ptr<Operator> Operator::Create(const PlanNode* node,
                                           ExecContext* ctx) {
  switch (node->op) {
    case OpType::kTableScan: return std::make_unique<TableScanOp>(node, ctx);
    case OpType::kIndexScan: return std::make_unique<IndexScanOp>(node, ctx);
    case OpType::kIndexSeek: return std::make_unique<IndexSeekOp>(node, ctx);
    case OpType::kFilter: return std::make_unique<FilterOp>(node, ctx);
    case OpType::kNestedLoopJoin:
      return std::make_unique<NestedLoopJoinOp>(node, ctx);
    case OpType::kHashJoin: return std::make_unique<HashJoinOp>(node, ctx);
    case OpType::kMergeJoin: return std::make_unique<MergeJoinOp>(node, ctx);
    case OpType::kSort: return std::make_unique<SortOp>(node, ctx);
    case OpType::kBatchSort: return std::make_unique<BatchSortOp>(node, ctx);
    case OpType::kHashAggregate:
      return std::make_unique<HashAggregateOp>(node, ctx);
    case OpType::kStreamAggregate:
      return std::make_unique<StreamAggregateOp>(node, ctx);
    case OpType::kTop: return std::make_unique<TopOp>(node, ctx);
  }
  RPE_CHECK(false) << "unknown operator";
  return nullptr;
}

}  // namespace rpe
