// Shared scaffolding for the per-figure and per-table bench binaries: flag
// parsing, the default bench profile (dataset scale, deadlines, engine
// list), dataset caching, header printing, and the JSON artifact writer
// (which bench_micro shares).
//
// Every binary accepts:
//   --scale=<f>        dataset scale (default per binary; 0.05 = 1/20th of
//                      the paper's sizes)
//   --deadline-ms=<n>  per-test deadline
//   --batch=<n>        batch iterations (0 disables batch mode)
//   --engines=a,b,c    subset of engines
//   --datasets=a,b,c   subset of datasets
//   --no-cost-model    disable the out-of-process cost models
//   --seed=<n>         workload seed
//   --indexed          create the Q.11 attribute index before running
//   --stats=on|off     collect load-time planner statistics (default on;
//                      off reverts query lowering to the rule-based plans)
//   --json=<path>      write a machine-readable BENCH_*.json artifact
//                      (binaries that support it; others ignore the path)

#ifndef GDBMICRO_BENCH_BENCH_COMMON_H_
#define GDBMICRO_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/datasets/generators.h"
#include "src/util/json.h"

namespace gdbmicro {
namespace bench {

struct BenchProfile {
  double scale = 0.05;
  int deadline_ms = 5000;
  int batch = 10;
  bool cost_model = true;
  bool indexed = false;
  bool stats = true;  // --stats=off: A/B the cost-based planner away
  uint64_t seed = 42;
  uint64_t memory_budget = 24ULL << 20;
  std::string json_path;              // --json=<path>: BENCH_*.json artifact
  std::vector<std::string> engines;   // --engines, else every registered
                                      // engine in Table 1 order
  std::vector<std::string> datasets;  // empty = binary default
};

/// Parses the common flags; unknown flags abort with usage help.
/// `default_budget` is the per-query memory budget (see EngineOptions);
/// the failure boundaries of Fig. 1(c)/Fig. 5(b) scale with the dataset,
/// so binaries pass a budget matched to their default scale.
BenchProfile ParseFlags(int argc, char** argv, double default_scale,
                        int default_deadline_ms,
                        uint64_t default_budget = 24ULL << 20);

/// Generates (and memoizes per process) a dataset at the profile scale.
const GraphData& GetDataset(const std::string& name, double scale);

/// Runner configured from the profile.
core::RunnerOptions RunnerOptionsFrom(const BenchProfile& profile);

/// Prints the figure banner.
void PrintBanner(const std::string& title, const BenchProfile& profile);

/// Writes `doc` pretty-printed to `path` (the machine-readable
/// BENCH_*.json artifacts CI archives). Returns false on I/O error.
bool WriteJsonArtifact(const std::string& path, const Json& doc);

/// Measurement rows as a Json array (engine/dataset/query/status/millis/
/// items, latency percentiles when batch mode sampled them, and the DNF
/// outcome counters) — the per-figure binaries' half of --json support:
///   auto rows = RunAndPrint(profile, ...);
///   WriteJsonArtifact(profile.json_path,
///                     Json(Json::Object{..., {"results",
///                         MeasurementsJson(rows)}}));
Json MeasurementsJson(const std::vector<core::Measurement>& rows);

/// Shared driver for the per-figure binaries: runs the Table 2 queries
/// with the given numbers on each dataset across the profile's engines and
/// prints one pivot table (queries x engines) per dataset and mode.
/// Returns all measurements (for additional aggregation by the caller).
std::vector<core::Measurement> RunAndPrint(
    const BenchProfile& profile, const std::vector<std::string>& datasets,
    const std::vector<int>& query_numbers);

}  // namespace bench
}  // namespace gdbmicro

#endif  // GDBMICRO_BENCH_BENCH_COMMON_H_
