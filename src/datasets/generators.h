// Dataset generators. Each produces a GraphData whose structural
// statistics track one row of the paper's Table 3 (scaled by `scale`,
// default 1/20th of the paper's sizes): vertex/edge counts, label
// cardinality, degree skew, fragmentation, density regime, and which
// elements carry properties. All generators are deterministic in `seed`.
//
// Substitutions: the paper uses the real Yeast protein network, the MiCo
// co-authorship crawl, cleaned Freebase snapshots, and the LDBC
// social-network generator; none are shippable here, so these synthetic
// equivalents reproduce their published structural characteristics
// instead.

#ifndef GDBMICRO_DATASETS_GENERATORS_H_
#define GDBMICRO_DATASETS_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph_data.h"
#include "src/util/result.h"

namespace gdbmicro {
namespace datasets {

/// Scale knobs shared by the generators. `scale` multiplies element
/// counts; label cardinalities stay at paper values (they are the point).
struct GenOptions {
  double scale = 0.05;  // 1/20th of paper sizes by default
  uint64_t seed = 20181204;  // PVLDB 12(4) publication-issue default
};

/// Yeast protein-interaction network: ~2.3K nodes / 7.1K edges / 167 edge
/// labels (protein-class pairs), ~100 components, dense for its size.
/// Node properties: short name, long name, description, function class.
/// Yeast is small in the paper and is NOT scaled down (scale >= 1 only
/// scales up).
GraphData GenerateYeast(const GenOptions& options = {});

/// MiCo co-authorship network: 100K nodes / 1.1M edges / 106 edge labels
/// (the number of co-authored papers), power-law collaboration hubs.
GraphData GenerateMiCo(const GenOptions& options = {});

/// Freebase-style knowledge-base samples. `kind` selects the paper's four
/// snapshots with their distinct shapes:
///   Frb-S: 0.5M nodes > 0.3M edges, 1814 labels, extremely fragmented;
///   Frb-O: 1.9M/4.3M, 424 labels (topic-restricted: organization,
///          business, government, finance, geography, military);
///   Frb-M: 4M/3.1M, 2912 labels, fragmented;
///   Frb-L: 28.4M/31.2M, 3821 labels.
enum class FreebaseKind { kSmall, kTopic, kMedium, kLarge };
GraphData GenerateFreebase(FreebaseKind kind, const GenOptions& options = {});

/// LDBC-style social network: persons (knows), posts (hasCreator, hasTag,
/// likes), tags, places, organisations; 15 labels; a single connected
/// component; properties on BOTH nodes and edges (the only such dataset,
/// as in the paper). Paper size: 184K nodes / 1.5M edges.
GraphData GenerateLdbc(const GenOptions& options = {});

/// Returns the dataset by its paper name ("yeast", "mico", "frb-s",
/// "frb-o", "frb-m", "frb-l", "ldbc").
Result<GraphData> GenerateByName(const std::string& name,
                                 const GenOptions& options = {});

/// All dataset names in Table 3 order.
std::vector<std::string> AllDatasetNames();

}  // namespace datasets
}  // namespace gdbmicro

#endif  // GDBMICRO_DATASETS_GENERATORS_H_
