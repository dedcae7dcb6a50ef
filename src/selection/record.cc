#include "selection/record.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"

namespace rpe {

size_t PipelineRecord::BestEstimator() const {
  // Only the selectable candidates compete; oracle-model entries (if
  // present at the tail) are excluded.
  const size_t n =
      std::min(l1.size(), static_cast<size_t>(kNumSelectableEstimators));
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (l1[i] < l1[best]) best = i;
  }
  return best;
}

double PipelineRecord::BestL1() const { return l1[BestEstimator()]; }

bool MakeRecord(const PipelineView& view, const std::string& workload,
                const std::string& query, const std::string& tag,
                PipelineRecord* out, size_t min_observations) {
  if (view.pipeline->first_obs < 0) return false;
  const size_t window = static_cast<size_t>(view.pipeline->last_obs -
                                            view.pipeline->first_obs) + 1;
  if (window < min_observations) return false;
  out->workload = workload;
  out->query = query;
  out->pipeline_id = view.pipeline->id;
  out->tag = tag;
  out->total_n = 0.0;
  for (int id : view.pipeline->nodes) {
    out->total_n += view.run->true_n[static_cast<size_t>(id)];
  }
  out->features = ExtractAllFeatures(view);
  const auto errors = EvaluateAllEstimators(view);
  out->l1.clear();
  out->l2.clear();
  for (const auto& e : errors) {
    out->l1.push_back(e.l1);
    out->l2.push_back(e.l2);
  }
  return true;
}

std::string RecordsToCsv(const std::vector<PipelineRecord>& records) {
  std::ostringstream out;
  // max_digits10 significant digits read back as the identical double.
  out.precision(std::numeric_limits<double>::max_digits10);
  const FeatureSchema& schema = FeatureSchema::Get();
  out << "workload,query,pipeline,tag,total_n";
  for (size_t f = 0; f < schema.num_features(); ++f) {
    out << "," << schema.name(f);
  }
  for (int e = 0; e < kNumEstimatorKinds; ++e) {
    out << ",l1_" << EstimatorName(static_cast<EstimatorKind>(e));
  }
  for (int e = 0; e < kNumEstimatorKinds; ++e) {
    out << ",l2_" << EstimatorName(static_cast<EstimatorKind>(e));
  }
  out << "\n";
  for (const auto& r : records) {
    out << r.workload << "," << r.query << "," << r.pipeline_id << ","
        << r.tag << "," << r.total_n;
    for (double f : r.features) out << "," << f;
    for (double v : r.l1) out << "," << v;
    for (double v : r.l2) out << "," << v;
    out << "\n";
  }
  return out.str();
}

namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      return cells;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

Status CsvRowError(size_t line_no, const std::string& what) {
  return Status::InvalidArgument("records CSV line " +
                                 std::to_string(line_no) + ": " + what);
}

Status ParseCell(const std::string& cell, size_t line_no,
                 const std::string& column, double* out) {
  try {
    size_t consumed = 0;
    *out = std::stod(cell, &consumed);
    if (consumed != cell.size()) throw std::invalid_argument(cell);
  } catch (const std::exception&) {
    return CsvRowError(line_no, "bad numeric value '" + cell + "' in column " +
                                    column);
  }
  return Status::OK();
}

Status ParseIntCell(const std::string& cell, size_t line_no,
                    const std::string& column, int* out) {
  try {
    size_t consumed = 0;
    const long long v = std::stoll(cell, &consumed);
    if (consumed != cell.size() || v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(cell);
    }
    *out = static_cast<int>(v);
  } catch (const std::exception&) {
    return CsvRowError(line_no, "bad integer value '" + cell +
                                    "' in column " + column);
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<PipelineRecord>> RecordsFromCsv(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty records CSV");
  }
  const size_t num_features = FeatureSchema::Get().num_features();
  const size_t num_est = static_cast<size_t>(kNumEstimatorKinds);
  // 4 label columns + total_n + features + l1/l2 per estimator kind. A row
  // whose l1/l2 arity disagrees with the estimator table (e.g. a record
  // set captured by a binary with a different SelectableEstimators list)
  // must be rejected, not silently re-indexed.
  const size_t expected = 5 + num_features + 2 * num_est;
  std::vector<PipelineRecord> records;
  size_t line_no = 1;  // the header was line 1
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF input
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() != expected) {
      return CsvRowError(
          line_no, "expected " + std::to_string(expected) + " columns (" +
                       std::to_string(num_features) + " features + l1/l2 of " +
                       std::to_string(num_est) + " estimators), got " +
                       std::to_string(cells.size()));
    }
    PipelineRecord r;
    r.workload = cells[0];
    r.query = cells[1];
    RPE_RETURN_NOT_OK(
        ParseIntCell(cells[2], line_no, "pipeline", &r.pipeline_id));
    r.tag = cells[3];
    RPE_RETURN_NOT_OK(ParseCell(cells[4], line_no, "total_n", &r.total_n));
    size_t c = 5;
    r.features.reserve(num_features);
    for (size_t f = 0; f < num_features; ++f, ++c) {
      double v = 0.0;
      RPE_RETURN_NOT_OK(
          ParseCell(cells[c], line_no, FeatureSchema::Get().name(f), &v));
      r.features.push_back(v);
    }
    r.l1.reserve(num_est);
    for (size_t e = 0; e < num_est; ++e, ++c) {
      double v = 0.0;
      RPE_RETURN_NOT_OK(ParseCell(cells[c], line_no, "l1", &v));
      r.l1.push_back(v);
    }
    r.l2.reserve(num_est);
    for (size_t e = 0; e < num_est; ++e, ++c) {
      double v = 0.0;
      RPE_RETURN_NOT_OK(ParseCell(cells[c], line_no, "l2", &v));
      r.l2.push_back(v);
    }
    records.push_back(std::move(r));
  }
  return records;
}

Status SaveRecords(const std::vector<PipelineRecord>& records,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << RecordsToCsv(records);
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Result<std::vector<PipelineRecord>> LoadRecords(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return RecordsFromCsv(buf.str());
}

}  // namespace rpe
