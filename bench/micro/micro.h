// bench_micro: one driver for the micro scenarios. Each scenario isolates
// one mechanism (adjacency visitors, execution policies, load modes,
// concurrent sessions, prepared plans, cost-based lowering, the chaos
// harness, the path index, the §6 engine design choices), prints and
// records its rows and checks its own invariant. The driver (main.cc)
// owns everything they share: flag parsing, the engine list, dataset
// generation, opening and loading engines, the allocation counter, the
// row table, the --json artifact, and the exit status: 2 for a usage
// error before any work, 1 when anything recorded a violation.
//
// Usage: bench_micro <scenario> [flags]; run it without arguments for the
// scenarios and the flags each one accepts.

#ifndef GDBMICRO_BENCH_MICRO_MICRO_H_
#define GDBMICRO_BENCH_MICRO_MICRO_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/engine.h"
#include "src/graph/graph_data.h"
#include "src/util/json.h"
#include "src/util/timer.h"

namespace gdbmicro {
namespace bench {

/// Every bench_micro flag. A scenario accepts only the flags it reads; its
/// entry in the driver's scenario table lists them and sets its defaults.
/// The cost model defaults to off: the scenarios measure the data
/// structures.
struct MicroBenchFlags {
  double scale = 0.02;                 // --scale=f
  int rounds = 3;                      // --rounds=n
  std::string dataset = "mico";        // --dataset=name
  std::vector<std::string> engines;    // --engines=a,b,c, else every
                                       // registered engine (Table 1 order)
  std::string json_path;               // --json=path (empty = no artifact)
  std::vector<int> threads;            // --threads=1,2,4 (concurrency sweep)
  std::vector<double> write_ratios;    // --write-ratio=0,0.1,0.5 (mixed mode)
  int iterations = 0;                  // --iterations=n (set per scenario)
  bool cost_model = false;             // --cost-model turns the charges on
  bool stats = true;                   // --stats=off: rule-based planning
  double fault_rate = 0.01;            // --fault-rate=p (transient faults)
  uint64_t fault_seed = 7;             // --fault-seed=n (injector stream)
  int max_attempts = 3;                // --max-attempts=n (1 = no retry)
  std::vector<uint64_t> memory_budgets;  // --memory-budgets=a,b,c (bytes)
};

/// An engine opened and bulk loaded by MicroRun::Load, with one session.
/// The session is declared last so that it is destroyed first.
struct LoadedMicroEngine {
  std::unique_ptr<GraphEngine> engine;
  LoadMapping mapping;
  std::unique_ptr<QuerySession> session;
};

/// One column of a scenario's printed table: the row key it shows (a
/// dotted key reaches into nested objects and arrays, as in
/// "memory_sweep.0.oom"), its heading, its printf width (negative =
/// left-aligned) and the digits shown after the point of a double.
struct Column {
  std::string key;
  std::string heading;
  int width;
  int precision = 0;
};

/// What a scenario sees of the driver during one run.
class MicroRun {
 public:
  MicroRun(const MicroBenchFlags& flags, const GraphData& data)
      : flags(flags), data(data) {}

  const MicroBenchFlags& flags;
  /// --dataset generated at --scale; empty for a scenario that does not
  /// read --dataset.
  const GraphData& data;

  /// Opens engine `name` with `options`, bulk loads `graph` and opens a
  /// session. GDBMICRO_COST_MODEL is not honored: the scenario chose the
  /// cost model. A failure is recorded as a violation and returns nullopt.
  std::optional<LoadedMicroEngine> Load(
      const std::string& name, const GraphData& graph,
      const EngineOptions& options = EngineOptions{});

  /// Records a violation: it is printed at once and fails the run.
  void Fail(const std::string& what);
  /// Fails with `what` and the status unless `status` is OK; returns
  /// status.ok().
  bool Check(const Status& status, const std::string& what);
  const std::vector<std::string>& violations() const { return violations_; }

  /// Prints the heading of the table that Emit prints rows in.
  void Table(std::vector<Column> columns);
  /// Prints `row` as one line of the table and keeps it for the artifact.
  void Emit(Json::Object row);
  /// Hands the rows emitted so far to the artifact.
  Json TakeRows() { return Json(std::move(rows_)); }

 private:
  std::vector<Column> columns_;
  Json::Array rows_;
  std::vector<std::string> violations_;
};

/// The calling thread's operator-new calls so far. bench_micro replaces
/// the global operator new to count them per thread, so the client
/// threads of a concurrent scenario neither race on the counter nor show
/// up in a measurement taken on another thread.
uint64_t ThreadAllocations();

/// One timed body: its wall time, the heap allocations the calling thread
/// made in it, and the count it returned (hops, a checksum, ...).
struct Measured {
  double seconds = 0;
  uint64_t allocs = 0;
  uint64_t count = 0;
};

template <typename Fn>
Measured Measure(Fn&& fn) {
  Measured m;
  uint64_t before = ThreadAllocations();
  Timer timer;
  m.count = fn();
  m.seconds = timer.ElapsedSeconds();
  m.allocs = ThreadAllocations() - before;
  return m;
}

/// num / den, or 0 when den is not positive (nothing was measured).
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// The scenarios. Each runs its workload on every engine in
/// run.flags.engines, emits its rows, records every failure and every
/// broken invariant as a violation, and returns the document the driver
/// writes to --json.
Json::Object RunAdjacency(MicroRun& run);
Json::Object RunPlan(MicroRun& run);
Json::Object RunLoad(MicroRun& run);
Json::Object RunPrepared(MicroRun& run);
Json::Object RunOptimizer(MicroRun& run);
Json::Object RunPathIndex(MicroRun& run);
Json::Object RunConcurrency(MicroRun& run);
Json::Object RunRobustness(MicroRun& run);
Json::Object RunAblation(MicroRun& run);

}  // namespace bench
}  // namespace gdbmicro

#endif  // GDBMICRO_BENCH_MICRO_MICRO_H_
