// CardinalityEstimator: prices logical steps against the load-time
// GraphStatistics segment (src/graph/statistics.h) so Plan::Lower can
// order commutable filters, pick index-vs-scan access paths, and choose
// expansion strategies by estimated cost instead of syntactic position.
//
// The model is deliberately coarse — it only has to rank alternatives:
//
//  * a source emits SourceRows() rows;
//  * a filter keeps Selectivity() of its input and charges
//    FilterCostPerRow() units per input row (one record fetch for
//    property/label predicates, a full neighborhood count for degree
//    filters);
//  * an adjacency step multiplies rows by Fanout().

#ifndef GDBMICRO_QUERY_STATS_H_
#define GDBMICRO_QUERY_STATS_H_

#include <string>

#include "src/graph/statistics.h"
#include "src/query/plan.h"

namespace gdbmicro {
namespace query {

class CardinalityEstimator {
 public:
  /// `stats` must outlive the estimator. `supports_property_index`
  /// gates the PropertyIndexScan access path (EngineInfo contract).
  CardinalityEstimator(const GraphStatistics& stats,
                       bool supports_property_index)
      : stats_(stats), supports_property_index_(supports_property_index) {}

  /// Rows a source step emits (V/E totals, 1 for id lookups).
  double SourceRows(const LogicalStep& s) const;

  /// Fraction of input rows of kind `in` a filter step keeps, in [0, 1].
  /// Non-filter steps return 1.
  double Selectivity(const LogicalStep& s, RowKind in) const;

  /// Per-input-row work of a filter step, in record-fetch units.
  double FilterCostPerRow(const LogicalStep& s) const;

  /// Mean output rows per input row of an adjacency step.
  double Fanout(const LogicalStep& s) const;

  /// Estimated vertices matching has(k, v).
  double HasRows(const LogicalStep& s) const;

  /// Estimated distinct vertices a V().expand(dir, label?).dedup()
  /// chain emits (the DistinctNeighborScan output estimate).
  double DistinctNeighbors(Direction dir,
                           const std::optional<std::string>& label) const;

  bool supports_property_index() const { return supports_property_index_; }
  const GraphStatistics& stats() const { return stats_; }

 private:
  const GraphStatistics& stats_;
  bool supports_property_index_;
};

}  // namespace query
}  // namespace gdbmicro

#endif  // GDBMICRO_QUERY_STATS_H_
