// The benchmark runner: the paper's evaluation methodology (§5) executed.
//
// For every (engine, dataset): a fresh instance is created and bulk-loaded
// (Q.1), then every query in the requested set runs in isolation (single
// mode) and as a 10-iteration batch, each under a deadline; timeouts and
// resource-exhaustion failures are recorded as results, not errors — they
// are data (Fig. 1(c), Fig. 5(b)).

#ifndef GDBMICRO_CORE_RUNNER_H_
#define GDBMICRO_CORE_RUNNER_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/core/queries.h"
#include "src/datasets/workload.h"
#include "src/graph/registry.h"
#include "src/graph/writer.h"

namespace gdbmicro {
namespace core {

struct RunnerOptions {
  /// Per-test deadline (single run or whole batch). The paper used 2 hours
  /// at 20x our default dataset scale.
  std::chrono::milliseconds deadline{10000};
  /// Batch size (the paper ran batches of 10); 0 runs single mode only.
  int batch_iterations = 10;
  /// Enable the engines' out-of-process cost models (see cost_model.h).
  bool enable_cost_model = true;
  /// Per-query working-memory budget enforced by engines that track it
  /// (the Sparksee-like engine's session arena). 0 = unlimited.
  uint64_t memory_budget_bytes = 24ULL << 20;
  /// Seed for the workload parameter picker (same across engines).
  uint64_t workload_seed = 42;
  /// Create a user attribute index on the Q.11 property before running
  /// (the paper's §6.4 indexing experiment).
  bool create_property_index = false;
  /// Collect load-time planner statistics (GraphStatistics). Off reverts
  /// query lowering to the rule-based plans — the --stats=off A/B knob.
  bool collect_statistics = true;
  /// Per-query governor memory budget in bytes, enforced across the whole
  /// query stack (operator sinks, dedup sets, BFS/SP visited structures,
  /// engine materialization; see src/query/governor.h). 0 = unlimited.
  /// Distinct from memory_budget_bytes above, which is the *engine-level*
  /// budget only arena-tracking engines honor.
  uint64_t governor_memory_budget_bytes = 0;
  /// Bounded retry for transient (kUnavailable) failures: total attempts
  /// per query, 1 = no retry.
  int max_attempts = 1;
  /// Base backoff before re-attempt k (exponential: base << (k-1), plus
  /// deterministic jitter), charged through the cost-model clock so it is
  /// deterministic and visible to the wall-clock measurements.
  uint64_t retry_backoff_us = 100;
  /// Optional transient-fault injector wired into the loaded engine and
  /// its writer (see src/graph/fault.h). Not owned; must outlive every
  /// LoadedEngine created from these options.
  const QueryFaultInjector* fault_injector = nullptr;
};

/// Per-class outcome accounting for a run: every issued query lands in
/// exactly one class, so ok + retried + timeout + oom + failed == issued
/// (the invariant the robustness bench asserts). This is the paper's DNF
/// bookkeeping made typed: timeouts and memory exhaustion are data, and
/// they are no longer conflated with permanent errors.
struct OutcomeCounters {
  uint64_t ok = 0;       // succeeded on the first attempt
  uint64_t retried = 0;  // succeeded after >= 1 transient failure
  uint64_t timeout = 0;  // governor deadline DNF
  uint64_t oom = 0;      // governor / engine memory DNF
  uint64_t failed = 0;   // permanent failure (incl. retry exhaustion)
  /// Total re-attempts across all queries (not a class: a query that
  /// retried twice and succeeded counts retried=1, retry_attempts=2).
  uint64_t retry_attempts = 0;

  uint64_t Issued() const { return ok + retried + timeout + oom + failed; }
  uint64_t Completed() const { return ok + retried; }
  void Merge(const OutcomeCounters& o) {
    ok += o.ok;
    retried += o.retried;
    timeout += o.timeout;
    oom += o.oom;
    failed += o.failed;
    retry_attempts += o.retry_attempts;
  }
};

/// Latency distribution over a set of per-iteration (batch mode) or
/// per-op (client mode) samples, in milliseconds. `samples == 0`
/// means no distribution was recorded (single mode, or a failed run).
struct LatencyStats {
  uint64_t samples = 0;
  double min_ms = 0;
  double p50_ms = 0;  // median
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  double mean_ms = 0;

  /// Sorts `samples_ms` and derives the stats (linear-interpolated
  /// percentiles). Empty input yields the zero stats.
  static LatencyStats FromSamples(std::vector<double> samples_ms);
};

/// One measured test execution.
struct Measurement {
  std::string engine;
  std::string dataset;
  std::string query;  // "Q8", "Q32(d=3)", "load", complex-query names
  Category category = Category::kRead;
  enum class Mode { kSingle, kBatch } mode = Mode::kSingle;
  Status status;      // OK, DeadlineExceeded, ResourceExhausted, ...
  double millis = 0;  // wall time of the whole test (batch: all iterations)
  uint64_t items = 0;
  /// Batch mode: the distribution of the individual iteration latencies
  /// (min/median/p95/p99/max), not just the aggregate wall time above.
  LatencyStats latency;
  /// Per-iteration outcome classes (see OutcomeCounters). `status` above
  /// stays the first non-OK status for display; the counters are the full
  /// accounting.
  OutcomeCounters outcomes;

  bool ok() const { return status.ok(); }
  bool timed_out() const { return status.IsDeadlineExceeded(); }
};

/// A loaded engine + its workload, reusable across query runs. The mapping
/// is heap-allocated because the workload keeps a pointer into it and the
/// struct is returned by value. `session` is the sequential runner's own
/// read session; RunClients gives each client thread sessions of its own.
/// `prepared` caches the catalog's lowered plans: prepared plans are
/// immutable, so the one cache serves the sequential runner and every
/// RunClients client thread alike.
struct LoadedEngine {
  std::unique_ptr<GraphEngine> engine;
  std::unique_ptr<LoadMapping> mapping;
  std::unique_ptr<datasets::Workload> workload;
  std::unique_ptr<QuerySession> session;
  std::unique_ptr<PreparedQueryCache> prepared;
  /// The engine's single-writer WAL commit path (see src/graph/writer.h).
  /// The sequential runner leaves it idle; RunClients routes every
  /// mutating spec through it.
  std::unique_ptr<GraphWriter> writer;
  Measurement load_measurement;  // the Q.1 data point
};

/// Result of one closed-loop client run (Runner::RunClients). Latency is
/// recorded per query class: reads (R and T specs alike) land in
/// `read_latency`, writes split by their catalog category (the Fig. 3
/// C/R/U/D decomposition, measured under concurrency). Completed ops are
/// outcomes.Completed(), the sum of the classes' samples; the rest of
/// outcomes.Issued() failed.
struct ClientsMeasurement {
  double wall_millis = 0;  // first client started -> last joined
  LatencyStats read_latency;
  LatencyStats create_latency;
  LatencyStats update_latency;
  LatencyStats delete_latency;
  /// Epochs published by the writer during the run (== WAL commits that
  /// applied).
  uint64_t epochs_published = 0;
  uint64_t wal_commits = 0;
  uint64_t wal_flushes = 0;
  uint64_t wal_bytes = 0;
  Status status;             // first non-OK status observed, else OK
  OutcomeCounters outcomes;  // per-class accounting across clients

  double OpsPerSec() const {
    return wall_millis > 0 ? static_cast<double>(outcomes.Completed()) /
                                 (wall_millis / 1000.0)
                           : 0.0;
  }
};

class Runner {
 public:
  explicit Runner(RunnerOptions options) : options_(options) {}

  const RunnerOptions& options() const { return options_; }

  /// Creates a fresh engine instance and bulk-loads `data` into it.
  Result<LoadedEngine> Load(const std::string& engine_name,
                            const GraphData& data) const;

  /// Runs one query spec (single + optional batch) on a loaded engine.
  std::vector<Measurement> RunQuery(LoadedEngine& loaded,
                                    const GraphData& data,
                                    const QuerySpec& spec) const;

  /// Closed-loop client mode: `threads` client threads, each with its own
  /// Workload (seed = workload_seed + thread index), issue
  /// `ops_per_thread` ops against the shared loaded engine and record
  /// every op's latency. Each op is a write with probability
  /// `write_ratio` (a mutating spec from `write_specs`, committed through
  /// loaded.writer, which serializes writers) and a read otherwise (a
  /// read-only spec from `read_specs`); each list is walked round robin.
  /// A client keeps one session for its whole loop when `write_ratio` is
  /// 0; otherwise each read opens its own, because a session pins its
  /// epoch for life and would park every commit (see engine.h), and the
  /// loaded engine's own `session` is recycled around the run for the
  /// same reason. Each client runs under one deadline budget: a timeout
  /// stops that client, other failures are counted and the loop goes on.
  Result<ClientsMeasurement> RunClients(
      LoadedEngine& loaded, const GraphData& data,
      const std::vector<const QuerySpec*>& read_specs,
      const std::vector<const QuerySpec*>& write_specs, int threads,
      int ops_per_thread, double write_ratio) const;

  /// Full sweep: load once, run all `specs`. Read/traversal queries run
  /// before mutating ones so they observe the pristine dataset (the
  /// paper executed every test on a freshly prepared instance).
  Result<std::vector<Measurement>> RunEngine(
      const std::string& engine_name, const GraphData& data,
      const std::vector<const QuerySpec*>& specs) const;

  /// Convenience: RunEngine over several engines, concatenating results.
  /// Engines that fail to load contribute a failed "load" measurement.
  std::vector<Measurement> RunAll(const std::vector<std::string>& engines,
                                  const GraphData& data,
                                  const std::vector<const QuerySpec*>& specs)
      const;

 private:
  RunnerOptions options_;
};

}  // namespace core
}  // namespace gdbmicro

#endif  // GDBMICRO_CORE_RUNNER_H_
