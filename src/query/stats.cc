#include "src/query/stats.h"

#include <algorithm>

namespace gdbmicro {
namespace query {

namespace {

double Ratio(double part, double whole) {
  if (whole <= 0.0) return 0.0;
  return std::min(1.0, part / whole);
}

}  // namespace

double CardinalityEstimator::SourceRows(const LogicalStep& s) const {
  switch (s.op) {
    case LogicalOp::kSourceV:
      return static_cast<double>(stats_.vertices);
    case LogicalOp::kSourceE:
      return static_cast<double>(stats_.edges);
    case LogicalOp::kSourceVId:
    case LogicalOp::kSourceEId:
      return 1.0;
    default:
      return 0.0;
  }
}

double CardinalityEstimator::Selectivity(const LogicalStep& s,
                                         RowKind in) const {
  // Filters drop value rows outright (operators.h), so their selectivity
  // over a value position is 0.
  switch (s.op) {
    case LogicalOp::kHasLabel:
      if (in == RowKind::kVertex) {
        return Ratio(static_cast<double>(stats_.VerticesWithLabel(s.key)),
                     static_cast<double>(stats_.vertices));
      }
      if (in == RowKind::kEdge) {
        return Ratio(static_cast<double>(stats_.EdgesWithLabel(s.key)),
                     static_cast<double>(stats_.edges));
      }
      return 0.0;
    case LogicalOp::kHas:
      if (in == RowKind::kVertex) {
        return Ratio(HasRows(s), static_cast<double>(stats_.vertices));
      }
      if (in == RowKind::kEdge) {
        const PropertyKeyStats* key = stats_.EdgeProperty(s.key);
        if (key == nullptr) return 0.0;
        return Ratio(key->EstimateEq(s.value),
                     static_cast<double>(stats_.edges));
      }
      return 0.0;
    case LogicalOp::kDegreeFilter:
      if (in != RowKind::kVertex) return 0.0;
      return stats_.FractionDegreeAtLeast(s.dir, s.id);
    default:
      return 1.0;
  }
}

double CardinalityEstimator::FilterCostPerRow(const LogicalStep& s) const {
  switch (s.op) {
    case LogicalOp::kHasLabel:
    case LogicalOp::kHas:
      return 1.0;  // one record fetch
    case LogicalOp::kDegreeFilter:
      // The inner it.xE.count() walks the whole neighborhood.
      return 1.0 + stats_.AvgDegree(s.dir);
    default:
      return 0.0;
  }
}

double CardinalityEstimator::Fanout(const LogicalStep& s) const {
  Direction dir = Direction::kBoth;
  switch (s.op) {
    case LogicalOp::kOut:
    case LogicalOp::kOutE:
      dir = Direction::kOut;
      break;
    case LogicalOp::kIn:
    case LogicalOp::kInE:
      dir = Direction::kIn;
      break;
    case LogicalOp::kBoth:
    case LogicalOp::kBothE:
      dir = Direction::kBoth;
      break;
    default:
      return 1.0;
  }
  // A label bound at Run time is unknown here. The catalog draws it from
  // the edges (Workload::EdgeLabel), so label l, carried by c_l of the
  // edges, comes up with probability c_l / sum(c) and then keeps that
  // share of the mean fanout: the expected fanout is
  // AvgDegree * sum(c^2) / sum(c)^2.
  if (s.bound) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const auto& [label, count] : stats_.edge_label_counts) {
      double c = static_cast<double>(count);
      sum += c;
      sum_sq += c * c;
    }
    if (sum <= 0.0) return 0.0;
    return stats_.AvgDegree(dir) * sum_sq / (sum * sum);
  }
  if (s.label.has_value()) return stats_.AvgDegree(dir, *s.label);
  return stats_.AvgDegree(dir);
}

double CardinalityEstimator::HasRows(const LogicalStep& s) const {
  const PropertyKeyStats* key = stats_.VertexProperty(s.key);
  if (key == nullptr) return 0.0;
  return key->EstimateEq(s.value);
}

double CardinalityEstimator::DistinctNeighbors(
    Direction dir, const std::optional<std::string>& label) const {
  double edges = label.has_value()
                     ? static_cast<double>(stats_.EdgesWithLabel(*label))
                     : static_cast<double>(stats_.edges);
  double endpoints = dir == Direction::kBoth ? 2.0 * edges : edges;
  return std::min(static_cast<double>(stats_.vertices), endpoints);
}

}  // namespace query
}  // namespace gdbmicro
