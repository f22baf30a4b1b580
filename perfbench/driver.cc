// The repository benchmark driver.
//
// Runs the unchanged Table 2 catalog (core::QueryCatalog) as one of four
// named workloads on all nine engines in turn, with the cost model off
// and load-time statistics on, and prints every metric by name with its
// unit followed by one JSON result line:
//
//   perfbench_driver --workload <point-reads|traverse|mixed|reach>
//                    [--seed 42] [--seconds 20] [--trace 0|1]
//                    [--trace-out <file>]
//
// The driver is the client. It calls each layer's public functions
// itself: datasets::GenerateByName, OpenEngine + GraphEngine::BulkLoad,
// GraphEngine::BuildPathIndex, CreateSession, one query::ResourceGovernor
// per op, and QuerySpec::run, which enters the engines, the plan layer,
// the BFS/SP algorithms or GraphWriter. Every op is timed with
// steady_clock in nanoseconds.
//
// Each client runs a fixed number of ops per engine, sized from
// --seconds, so the set of ops and the error-rate denominator repeat
// across runs of one seed. Op k of a client uses catalog iteration k of
// that client's workload stream (seed + client), so every op draws fresh
// parameters from the dataset and every engine is asked the same
// questions. Before timing starts each client runs an untimed read
// warm-up (plan lowering, titan10's row cache, session scratch).
//
// The set-up loads all nine engines, and they stay loaded. The measured
// phase runs in rounds: each round runs the next block of every engine's
// ops, engines in turn, so a slow phase of a shared host falls on every
// engine alike instead of on whichever engine ran during it. The write
// probe of the read-only workloads and the repeated set-ups behind
// setup_s run in the same rounds, for the same reason.
//
// The two clients of `mixed` take turns op by op on one thread. With a
// thread each, a commit often waited for a reader that the scheduler had
// preempted holding its epoch pin. How often depended on how fast the
// host ran, so write_tail_ms moved about 1.5 times as much as the medians
// from run to run, and its spread over ten seeds reached its 25% bound.
// On one thread the order of reads and commits repeats exactly for a
// seed.
//
// With --trace 0 the driver reports the end-to-end metrics. With
// --trace 1 it runs the same untraced pass, then a traced pass that
// records spans around every call into a layer, then an untimed pass
// that re-issues sampled ops through PreparedPlan::RunInto, BreadthFirst
// and ShortestPath for the counts only their result structs expose, and
// reports the per-layer metrics.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <latch>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/measure.h"
#include "perfbench/trace.h"
#include "src/core/queries.h"
#include "src/core/runner.h"
#include "src/datasets/generators.h"
#include "src/datasets/workload.h"
#include "src/graph/registry.h"
#include "src/graph/writer.h"
#include "src/query/algorithms.h"
#include "src/query/governor.h"
#include "src/query/plan.h"
#include "src/query/traversal.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using gdbmicro::CancelToken;
using gdbmicro::GraphData;
using gdbmicro::GraphEngine;
using gdbmicro::GraphWriter;
using gdbmicro::LoadMapping;
using gdbmicro::QuerySession;
using gdbmicro::Result;
using gdbmicro::Status;
using gdbmicro::core::OutcomeCounters;
using gdbmicro::core::QueryContext;
using gdbmicro::core::QueryResult;
using gdbmicro::core::QuerySpec;
using gdbmicro::query::Bound;
using gdbmicro::query::Traversal;

// --- workloads -------------------------------------------------------------

const char* const kEngines[] = {"arango", "blaze",   "neo19",
                                "neo30",  "orient",  "sparksee",
                                "sqlg",   "titan05", "titan10"};
constexpr int kNumEngines = 9;

constexpr uint64_t kGeneratorSeed = 20181204;
// The measured phase runs in rounds. In each round every engine runs
// its next block of ops, engines in turn (rotated each round), so a slow
// phase of the host falls on every engine alike. Throughput is taken per
// block and reported as the median over blocks.
constexpr int kRounds = 12;
// Client 0's commit probability on `mixed` (client 1 only reads).
constexpr double kWriteChance = 0.4;
// The catalog's shortest-path depth bound (src/core/queries.cc).
constexpr int kPathMaxDepth = 30;
// Ops still pending this long after start are counted as timeouts, so a
// pathological engine cannot keep a run from ending.
constexpr int64_t kRunBudgetNs = 140'000'000'000;
// Warm-up iterations draw from a range the measured ops never use.
constexpr int kWarmupIterationBase = 1 << 24;
// Sequential C/U/D rounds of the write probe of the read-only workloads
// (the only writes they make; see WriteProbe), per chunk: one chunk per
// round, 12,096 commits per engine. The commits use a fixed parameter
// seed.
constexpr int kProbeRoundsPerChunk = 84;
constexpr uint64_t kProbeSeed = 1;
// Ops per client of the traced pass (bounds the spans kept in memory).
constexpr size_t kMaxTracedOps = 10000;
// Per client and engine: ops re-issued for PlanStats/PathSearchStats.
constexpr size_t kStatsSampleOps = 1000;

const std::vector<int> kPointReads = {14, 15, 22, 23, 24, 25, 26, 27};
const std::vector<int> kWrites = {2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21};

struct WorkloadDef {
  const char* name;
  const char* dataset;
  double scale;
  int clients;
  std::vector<int> reads;  // Table 2 numbers (all depth variants)
  bool mixed;              // client 0 commits on a seeded coin; the
                           // clients share one thread
  bool path_index;         // BuildPathIndex after every load
  // Ops per client and engine per second of --seconds: the measured
  // phase over the nine engines then lasts about --seconds.
  double ops_per_second;
  // Set-ups per run (generate, then load all nine engines); setup_s
  // reports the median. Fewer on frb-l, where one set-up with the path
  // index takes about 2 s.
  int setup_reps;
};

const WorkloadDef kWorkloads[] = {
    {"point-reads", "mico", 0.05, 2, kPointReads, false, false, 4900, 9},
    {"traverse", "ldbc", 0.05, 1,
     {11, 12, 13, 28, 29, 30, 31, 32, 33, 34, 35}, false, false, 330, 25},
    {"mixed", "mico", 0.05, 2, kPointReads, true, false, 3300, 9},
    {"reach", "frb-l", 0.002, 1, {32, 34}, false, true, 1400, 5},
};

/// The layer QuerySpec::run enters for a catalog entry.
const char* LayerOf(const QuerySpec& spec) {
  if (spec.mutates) return "graph.writer";
  if (spec.number >= 32) return "query.algorithms";
  if (spec.number == 14 || spec.number == 15 || spec.number >= 22) {
    return "query.plan";
  }
  return "engines";
}

// --- the catalog's prepared shapes ------------------------------------------

/// A prepared catalog shape, rebuilt here so the driver can time
/// Traversal::Prepare and re-issue ops through PreparedPlan::RunInto with
/// PlanStats. Shapes and parameter bindings mirror src/core/queries.cc;
/// the stats pass checks every re-issued answer against the catalog's.
struct PlanShape {
  int number;
  Traversal (*build)(uint64_t degree_k);
  bool bind_vertex;  // params.id = ReadVertex(it), else ReadEdge(it)
  bool bind_label;   // params.label = EdgeLabel(it)
};

const PlanShape kPlanShapes[] = {
    {14, [](uint64_t) { return Traversal::V(Bound{}); }, true, false},
    {15, [](uint64_t) { return Traversal::E(Bound{}); }, false, false},
    {22, [](uint64_t) { return Traversal::V(Bound{}).In().Count(); }, true,
     false},
    {23, [](uint64_t) { return Traversal::V(Bound{}).Out().Count(); }, true,
     false},
    {24, [](uint64_t) { return Traversal::V(Bound{}).Both(Bound{}).Count(); },
     true, true},
    {25,
     [](uint64_t) { return Traversal::V(Bound{}).InE().Label().Dedup().Count(); },
     true, false},
    {26,
     [](uint64_t) {
       return Traversal::V(Bound{}).OutE().Label().Dedup().Count();
     },
     true, false},
    {27,
     [](uint64_t) {
       return Traversal::V(Bound{}).BothE().Label().Dedup().Count();
     },
     true, false},
    {28,
     [](uint64_t k) {
       return Traversal::V()
           .WhereDegreeAtLeast(gdbmicro::Direction::kIn, k)
           .Count();
     },
     false, false},
    {29,
     [](uint64_t k) {
       return Traversal::V()
           .WhereDegreeAtLeast(gdbmicro::Direction::kOut, k)
           .Count();
     },
     false, false},
    {30,
     [](uint64_t k) {
       return Traversal::V()
           .WhereDegreeAtLeast(gdbmicro::Direction::kBoth, k)
           .Count();
     },
     false, false},
    {31, [](uint64_t) { return Traversal::V().Out().Dedup().Count(); }, false,
     false},
};

const PlanShape* ShapeFor(int number) {
  for (const PlanShape& s : kPlanShapes) {
    if (s.number == number) return &s;
  }
  return nullptr;
}

// --- per-op records ----------------------------------------------------------

enum Outcome : uint8_t { kOk, kTimeout, kOom, kFailed };

Outcome Classify(const Status& s) {
  if (s.IsDeadlineExceeded()) return kTimeout;
  if (s.IsResourceExhausted()) return kOom;
  return kFailed;
}

/// Everything one client recorded in one pass, indexed by op.
struct ClientLog {
  std::vector<int64_t> latency_ns;
  std::vector<uint32_t> items;
  std::vector<uint8_t> outcome;
  std::vector<uint8_t> spec;  // index into Bench::specs
  std::vector<Span> spans;    // traced pass: ops and their children
  std::map<int, std::string> first_failure;  // spec index -> status

  /// Empties the log and allocates and touches room for `capacity` ops
  /// up front, so recording never reallocates inside a measured pass.
  void Reset(size_t capacity) {
    latency_ns.assign(capacity, 0);
    latency_ns.clear();
    items.assign(capacity, 0);
    items.clear();
    outcome.assign(capacity, 0);
    outcome.clear();
    spec.assign(capacity, 0);
    spec.clear();
    spans.clear();
    first_failure.clear();
  }
};

/// A loaded engine with the pieces every client shares.
struct Instance {
  std::unique_ptr<GraphEngine> engine;
  LoadMapping mapping;
  std::unique_ptr<gdbmicro::core::PreparedQueryCache> prepared;
  std::unique_ptr<GraphWriter> writer;
  // Per client: the same dataset, parameter stream seed + client.
  std::vector<std::unique_ptr<gdbmicro::datasets::Workload>> workloads;
  // The write probe's parameter stream, the same in every run.
  std::unique_ptr<gdbmicro::datasets::Workload> probe_workload;
};

/// What one run measures, fixed before the first engine loads.
struct Bench {
  const WorkloadDef* w = nullptr;
  uint64_t seed = 42;
  std::vector<const QuerySpec*> specs;  // reads, then the writes
  size_t num_reads = 0;
  std::vector<const QuerySpec*> writes;
  // ops[c][k]: spec index of client c's op k.
  std::vector<std::vector<uint8_t>> ops;
  size_t warmup_ops = 0;
  int64_t deadline_ns = 0;
};

/// Ops [begin, end) of every client's log (the clients of a block run
/// the same op indices), and the block's wall time (0: not timed).
struct Block {
  size_t begin = 0;
  size_t end = 0;
  int64_t wall_ns = 0;
};

uint64_t OpId(int engine, int client, size_t k) {
  return (static_cast<uint64_t>(engine + 1) << 40) |
         (static_cast<uint64_t>(client) << 32) | static_cast<uint64_t>(k);
}

/// One client's connection to an instance: its context, and on the
/// read-only workloads the session it keeps for all its ops.
class Client {
 public:
  Client(Instance& inst, const gdbmicro::datasets::Workload* workload,
         bool session_per_op)
      : inst_(inst), session_per_op_(session_per_op) {
    ctx_.engine = inst.engine.get();
    ctx_.workload = workload;
    ctx_.prepared = inst.prepared.get();
    ctx_.writer = inst.writer.get();
  }

  /// Opens the long-lived session of a read-only workload.
  void OpenSession(std::vector<Span>* roots) {
    int64_t s0 = NowNs();
    session_ = inst_.engine->CreateSession();
    if (roots != nullptr) {
      roots->push_back({0, s0, NowNs() - s0, SpanName::kSessionOpen,
                        SpanName::kNone});
    }
  }

  /// Runs one op: a governor armed with what is left of the run budget,
  /// a session (fresh per read op on `mixed`), BeginQuery, and
  /// QuerySpec::run. Appends the outcome to `log` when given, and the
  /// op's spans when `traced`.
  void Op(const Bench& bench, int spec_index, int iteration, uint64_t id,
          bool traced, ClientLog* log) {
    const QuerySpec& spec = *bench.specs[static_cast<size_t>(spec_index)];
    const int64_t t0 = NowNs();
    int64_t gov_end = 0, sess_start = 0, sess_end = 0;
    Result<QueryResult> r = QueryResult{};
    if (t0 >= bench.deadline_ns) {
      r = Status::DeadlineExceeded("run budget spent before the op started");
    } else {
      gdbmicro::query::ResourceGovernor governor(
          {std::chrono::nanoseconds(bench.deadline_ns - t0), 0});
      if (traced) gov_end = NowNs();
      ctx_.cancel = governor.token();
      ctx_.iteration = iteration;
      if (spec.mutates) {
        ctx_.session = nullptr;
        r = spec.run(ctx_);
      } else if (session_per_op_) {
        if (traced) sess_start = NowNs();
        std::unique_ptr<QuerySession> session = inst_.engine->CreateSession();
        if (traced) sess_end = NowNs();
        ctx_.session = session.get();
        session->BeginQuery();
        r = spec.run(ctx_);
        ctx_.session = nullptr;
      } else {
        ctx_.session = session_.get();
        session_->BeginQuery();
        r = spec.run(ctx_);
      }
    }
    const int64_t t1 = NowNs();
    if (log == nullptr) return;
    log->latency_ns.push_back(t1 - t0);
    log->spec.push_back(static_cast<uint8_t>(spec_index));
    if (r.ok()) {
      log->items.push_back(static_cast<uint32_t>(
          std::min<uint64_t>(r->items, UINT32_MAX)));
      log->outcome.push_back(kOk);
    } else {
      log->items.push_back(0);
      log->outcome.push_back(Classify(r.status()));
      log->first_failure.try_emplace(spec_index, r.status().ToString());
    }
    if (!traced) return;
    if (gov_end != 0) {
      log->spans.push_back(
          {id, t0, gov_end - t0, SpanName::kGovernor, SpanName::kOp});
    }
    if (sess_start != 0) {
      log->spans.push_back({id, sess_start, sess_end - sess_start,
                            SpanName::kSessionOpen, SpanName::kOp});
    }
    log->spans.push_back({id, t0, t1 - t0, SpanName::kOp, SpanName::kNone});
  }

 private:
  Instance& inst_;
  bool session_per_op_;
  QueryContext ctx_;
  std::unique_ptr<QuerySession> session_;
};

/// Pins the calling thread to CPU `cpu` (best effort: a failure leaves
/// it unpinned). The clients of `point-reads` get distinct CPUs.
void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % std::max(1u, std::thread::hardware_concurrency()), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Vertex and edge counts of an engine's current snapshot.
std::pair<uint64_t, uint64_t> CountState(const GraphEngine& engine) {
  std::unique_ptr<QuerySession> s = engine.CreateSession();
  return {engine.CountVertices(*s, CancelToken()).value_or(0),
          engine.CountEdges(*s, CancelToken()).value_or(0)};
}

/// Runs `body(c)` for every client c at once, each on a thread of its
/// own on CPU c, after all have started; on one thread, client after
/// client, when there is one client or the workload is `mixed`. Returns
/// the wall time from the first client's start to the last one's end.
template <typename Body>
int64_t OnClients(const Bench& bench, Body body) {
  const int clients = bench.w->clients;
  if (clients == 1 || bench.w->mixed) {
    const int64_t t0 = NowNs();
    for (int c = 0; c < clients; ++c) body(c);
    return NowNs() - t0;
  }
  std::vector<int64_t> begin(static_cast<size_t>(clients));
  std::vector<int64_t> end(static_cast<size_t>(clients));
  std::latch ready(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PinToCpu(c);
      ready.arrive_and_wait();
      begin[static_cast<size_t>(c)] = NowNs();
      body(c);
      end[static_cast<size_t>(c)] = NowNs();
    });
  }
  for (std::thread& t : threads) t.join();
  return *std::max_element(end.begin(), end.end()) -
         *std::min_element(begin.begin(), begin.end());
}

/// One engine's clients and everything they recorded, kept across the
/// rounds of the measured phase.
struct EngineRun {
  std::unique_ptr<Instance> inst;
  // Read-only workloads: a second copy of the engine for the write
  // probe, so the probe's commits leave `inst` pristine for the answer
  // check while they run in the same rounds as the reads.
  std::unique_ptr<Instance> probe_inst;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<ClientLog> logs;  // [client]: every measured op, in order
  std::vector<Block> blocks;
  ClientLog probe;  // the write probe's commits
  std::vector<Block> probe_blocks;

  /// Connects the workload's clients, replacing any earlier ones; on the
  /// read-only workloads each opens the session it keeps. When `roots`
  /// is given, the session opens are recorded there as spans.
  void Connect(const Bench& bench, std::vector<Span>* roots) {
    clients.clear();
    for (int c = 0; c < bench.w->clients; ++c) {
      clients.push_back(std::make_unique<Client>(
          *inst, inst->workloads[static_cast<size_t>(c)].get(),
          bench.w->mixed));
      if (!bench.w->mixed) clients.back()->OpenSession(roots);
    }
  }

  /// The untimed read warm-up of every client: plan lowering, titan10's
  /// row cache, session scratch.
  void WarmUp(const Bench& bench) {
    OnClients(bench, [&](int c) {
      for (size_t i = 0; i < bench.warmup_ops; ++i) {
        clients[static_cast<size_t>(c)]->Op(
            bench, static_cast<int>(i % bench.num_reads),
            kWarmupIterationBase + static_cast<int>(i), 0, false, nullptr);
      }
    });
  }

  /// Runs ops [k0, k1) of every client into `out`, one log per client.
  /// On `mixed` both clients take turns op by op on this thread.
  Block RunBlock(const Bench& bench, int engine, size_t k0, size_t k1,
                 bool traced, std::vector<ClientLog>& out) {
    auto op = [&](int c, size_t k) {
      const size_t i = static_cast<size_t>(c);
      clients[i]->Op(bench, bench.ops[i][k], static_cast<int>(k),
                     OpId(engine, c, k), traced, &out[i]);
    };
    if (bench.w->mixed) {
      const int64_t t0 = NowNs();
      for (size_t k = k0; k < k1; ++k) {
        for (int c = 0; c < bench.w->clients; ++c) op(c, k);
      }
      return {k0, k1, NowNs() - t0};
    }
    const int64_t wall_ns = OnClients(bench, [&](int c) {
      for (size_t k = k0; k < k1; ++k) op(c, k);
    });
    return {k0, k1, wall_ns};
  }
};

/// The writes of the read-only workloads, on `run.probe_inst`: client
/// 0's workload commits rounds of the twelve C/U/D specs through
/// GraphWriter, one at a time, so write_p50_ms and write_tail_ms are
/// measured on every workload. The commits draw their parameters from
/// kProbeSeed, not the workload seed, so every run commits the same
/// sequence and the write figures of different seeds compare like with
/// like. Round r uses iteration r; delete victims repeat once r passes
/// the dataset's delete pool (its tail 5%). Chunk `chunk` commits rounds
/// [chunk, chunk + 1) x kProbeRoundsPerChunk as one block of
/// `run.probe`; chunk -1 is one untimed round that warms the commit path.
void WriteProbe(EngineRun& run, const Bench& bench, int chunk) {
  Client client(*run.probe_inst, run.probe_inst->probe_workload.get(), true);
  const int first_write = static_cast<int>(bench.num_reads);
  auto round = [&](int r, ClientLog* log) {
    for (size_t i = 0; i < bench.writes.size(); ++i) {
      client.Op(bench, first_write + static_cast<int>(i), r, 0, false, log);
    }
  };
  if (chunk < 0) {
    round(kWarmupIterationBase, nullptr);
    return;
  }
  Block block;
  block.begin = run.probe.outcome.size();
  for (int r = chunk * kProbeRoundsPerChunk;
       r < (chunk + 1) * kProbeRoundsPerChunk; ++r) {
    round(r, &run.probe);
  }
  block.end = run.probe.outcome.size();
  run.probe_blocks.push_back(block);
}

// --- loading -----------------------------------------------------------------

struct LoadTiming {
  double setup_s = 0;  // open + BulkLoad (+ BuildPathIndex)
  double bulk_load_s = 0;
  double path_index_s = 0;
  double element_s = 0;
  double index_build_s = 0;
  double stats_build_s = 0;
};

/// Opens `name` and bulk-loads `data` into it (plus the path index when
/// the workload uses one), recording spans into `trace` when given.
Result<std::unique_ptr<Instance>> Load(const std::string& name,
                                       const GraphData& data,
                                       const Bench& bench, LoadTiming* t,
                                       TraceFile* trace) {
  gdbmicro::EngineOptions options;
  options.enable_cost_model = false;
  options.collect_statistics = true;
  options.memory_budget_bytes =
      gdbmicro::core::RunnerOptions{}.memory_budget_bytes;
  const int64_t t0 = NowNs();
  auto inst = std::make_unique<Instance>();
  GDB_ASSIGN_OR_RETURN(inst->engine,
                       gdbmicro::OpenEngine(name, options,
                                            /*honor_cost_model_env=*/false));
  const int64_t l0 = NowNs();
  GDB_ASSIGN_OR_RETURN(inst->mapping, inst->engine->BulkLoad(data));
  const int64_t l1 = NowNs();
  const gdbmicro::BulkLoadStats& ls = inst->engine->load_stats();
  t->bulk_load_s = static_cast<double>(l1 - l0) / 1e9;
  t->element_s = ls.element_millis / 1e3;
  t->index_build_s = ls.index_build_millis / 1e3;
  t->stats_build_s = ls.stats_build_millis / 1e3;
  if (trace != nullptr) {
    char attrs[256];
    std::snprintf(attrs, sizeof(attrs),
                  "engine=%s;element_s=%.9f;index_build_s=%.9f;"
                  "stats_build_s=%.9f",
                  name.c_str(), t->element_s, t->index_build_s,
                  t->stats_build_s);
    trace->Add(0, SpanName::kBulkLoad, SpanName::kNone, l0, l1 - l0, attrs);
  }
  if (bench.w->path_index) {
    const int64_t p0 = NowNs();
    GDB_RETURN_IF_ERROR(inst->engine->BuildPathIndex(CancelToken()));
    const int64_t p1 = NowNs();
    t->path_index_s = static_cast<double>(p1 - p0) / 1e9;
    if (trace != nullptr) {
      trace->Add(0, SpanName::kBuildPathIndex, SpanName::kNone, p0, p1 - p0,
                 "engine=" + name);
    }
  }
  t->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  inst->prepared = std::make_unique<gdbmicro::core::PreparedQueryCache>(
      inst->engine.get());
  inst->writer = std::make_unique<GraphWriter>(inst->engine.get());
  for (int c = 0; c < bench.w->clients; ++c) {
    inst->workloads.push_back(std::make_unique<gdbmicro::datasets::Workload>(
        &data, &inst->mapping, bench.seed + static_cast<uint64_t>(c)));
  }
  inst->probe_workload = std::make_unique<gdbmicro::datasets::Workload>(
      &data, &inst->mapping, kProbeSeed);
  return inst;
}

// --- summaries -----------------------------------------------------------------

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// A latency distribution's tail under the TailQuantile rule.
struct Tail {
  double ms = 0;
  double quantile = 0;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> ms) {
  Tail t;
  t.samples = ms.size();
  t.quantile = TailQuantile(ms.size());
  t.ms = Quantile(ms, t.quantile);
  return t;
}

/// One engine's end-to-end figures from its logs.
struct EngineSummary {
  double ops_per_s = 0;
  std::vector<double> cell_ms;         // [spec]: median latency, 0: none
  std::vector<double> read_cells_ms;   // per read spec: median latency
  std::vector<double> write_cells_ms;  // per write spec: median latency
  Tail read_tail;
  Tail write_tail;
  OutcomeCounters outcomes;
  uint64_t attempted = 0;

  double p50_ms() const { return GeoMean(read_cells_ms); }
  double write_p50_ms() const { return GeoMean(write_cells_ms); }
};

/// Adds `logs` (one per client), cut into `blocks`, into `s`: outcomes
/// over every op; each spec's median latency and the read and write
/// tails over the completed ops of all blocks; and the throughput as the
/// median over blocks of completed ops over the block's wall time (when
/// blocks have one), so that a slow phase of the host during a few
/// blocks does not move it.
void Summarize(const Bench& bench, const std::vector<ClientLog>& logs,
               const std::vector<Block>& blocks, EngineSummary* s) {
  std::vector<std::vector<double>> per_spec(bench.specs.size());
  std::vector<double> reads, writes, throughput;
  for (const Block& b : blocks) {
    uint64_t completed = 0;
    for (const ClientLog& log : logs) {
      for (size_t k = b.begin; k < std::min(b.end, log.outcome.size()); ++k) {
        ++s->attempted;
        switch (log.outcome[k]) {
          case kOk:
            ++s->outcomes.ok;
            break;
          case kTimeout:
            ++s->outcomes.timeout;
            continue;
          case kOom:
            ++s->outcomes.oom;
            continue;
          default:
            ++s->outcomes.failed;
            continue;
        }
        ++completed;
        double ms = NsToMs(log.latency_ns[k]);
        per_spec[log.spec[k]].push_back(ms);
        (log.spec[k] < bench.num_reads ? reads : writes).push_back(ms);
      }
    }
    if (b.wall_ns > 0) {
      throughput.push_back(static_cast<double>(completed) /
                           (static_cast<double>(b.wall_ns) / 1e9));
    }
  }
  s->cell_ms.assign(per_spec.size(), 0);
  for (size_t i = 0; i < per_spec.size(); ++i) {
    if (per_spec[i].empty()) continue;
    s->cell_ms[i] = Median(std::move(per_spec[i]));
    (i < bench.num_reads ? s->read_cells_ms : s->write_cells_ms)
        .push_back(s->cell_ms[i]);
  }
  if (!reads.empty()) s->read_tail = TailOf(std::move(reads));
  if (!writes.empty()) s->write_tail = TailOf(std::move(writes));
  s->ops_per_s = Median(std::move(throughput));
}

/// Answers of one engine's pass, kept for the cross-engine check.
struct Answers {
  std::vector<std::vector<uint32_t>> items;  // [client][op]
  std::vector<std::vector<uint8_t>> outcome;
};

Answers AnswersOf(const std::vector<ClientLog>& logs) {
  Answers a;
  for (const ClientLog& log : logs) {
    a.items.push_back(log.items);
    a.outcome.push_back(log.outcome);
  }
  return a;
}

/// Cross-engine answer check on a pristine snapshot: for every op, the
/// engines that completed it must agree on the result count. Engines
/// outside the most common value (all of them on a tie) count one
/// mismatch each, keyed (engine, spec index).
std::map<std::pair<int, int>, uint64_t> CheckAnswers(
    const Bench& bench, const std::vector<Answers>& answers) {
  std::map<std::pair<int, int>, uint64_t> mismatches;
  for (size_t c = 0; c < bench.ops.size(); ++c) {
    const size_t n = answers.empty() ? 0 : answers[0].items[c].size();
    for (size_t k = 0; k < n; ++k) {
      std::vector<std::pair<uint32_t, int>> votes;  // value -> engines
      for (const Answers& a : answers) {
        if (a.outcome[c][k] != kOk) continue;
        uint32_t v = a.items[c][k];
        auto it = std::find_if(votes.begin(), votes.end(),
                               [v](const auto& p) { return p.first == v; });
        if (it == votes.end()) {
          votes.push_back({v, 1});
        } else {
          ++it->second;
        }
      }
      if (votes.size() <= 1) continue;
      std::sort(votes.begin(), votes.end(), [](const auto& x, const auto& y) {
        return x.second > y.second;
      });
      const bool tie = votes[0].second == votes[1].second;
      for (size_t e = 0; e < answers.size(); ++e) {
        const Answers& a = answers[e];
        if (a.outcome[c][k] == kOk &&
            (tie || a.items[c][k] != votes[0].first)) {
          ++mismatches[{static_cast<int>(e), bench.ops[c][k]}];
        }
      }
    }
  }
  return mismatches;
}

// --- the untimed stats pass ------------------------------------------------------

/// Counts only the result structs expose, from re-issuing each client's
/// first sampled ops through PreparedPlan::RunInto, BreadthFirst and
/// ShortestPath.
struct StructStats {
  uint64_t plan_ops = 0;
  uint64_t plan_rows = 0;     // rows pushed by every operator
  uint64_t plan_results = 0;  // result cardinality
  uint64_t peak_frontier_bytes = 0;
  uint64_t path_ops = 0;
  uint64_t path_expanded = 0;
  uint64_t path_index = 0;    // answered on an index-* route
  uint64_t path_certain = 0;  // answered on an index route with no expansion
  uint64_t disagreements = 0; // re-issued answer != measured answer
};

StructStats StatsPass(Instance& inst, const Bench& bench,
                      const std::map<int, gdbmicro::query::PreparedPlan>& plans,
                      const std::vector<ClientLog>& measured) {
  StructStats st;
  for (int c = 0; c < bench.w->clients; ++c) {
    const gdbmicro::datasets::Workload& wl =
        *inst.workloads[static_cast<size_t>(c)];
    const ClientLog& log = measured[static_cast<size_t>(c)];
    std::unique_ptr<QuerySession> session = inst.engine->CreateSession();
    gdbmicro::query::PlanParams params;
    gdbmicro::query::TraversalOutput out;
    const size_t n = std::min(kStatsSampleOps, log.spec.size());
    for (size_t k = 0; k < n; ++k) {
      const QuerySpec& spec = *bench.specs[log.spec[k]];
      if (spec.mutates || log.outcome[k] != kOk) continue;
      const int it = static_cast<int>(k);
      session->BeginQuery();
      CancelToken cancel;
      uint64_t result = 0;
      auto plan = plans.find(spec.number);
      if (plan != plans.end()) {
        const PlanShape& shape = *ShapeFor(spec.number);
        if (shape.bind_vertex) {
          params.id = wl.ReadVertex(it);
        } else {
          params.id = wl.ReadEdge(it);
        }
        if (shape.bind_label) params.label = wl.EdgeLabel(it);
        gdbmicro::query::PlanStats ps;
        if (!plan->second.RunInto(*session, cancel, params, &out, &ps).ok()) {
          ++st.disagreements;
          continue;
        }
        result = out.counted ? out.count : out.rows.size();
        ++st.plan_ops;
        for (uint64_t rows : ps.rows_out) st.plan_rows += rows;
        st.plan_results += result;
        st.peak_frontier_bytes =
            std::max(st.peak_frontier_bytes, ps.peak_frontier_bytes);
      } else if (spec.number >= 32) {
        std::optional<std::string> label;
        if (spec.number == 33 || spec.number == 35) label = wl.EdgeLabel(it);
        auto [src, dst] = wl.PathEndpoints(it);
        gdbmicro::query::PathSearchStats ps;
        if (spec.number <= 33) {
          auto r = gdbmicro::query::BreadthFirst(*inst.engine, *session, src,
                                                 spec.variant, label, cancel);
          if (!r.ok()) {
            ++st.disagreements;
            continue;
          }
          result = r->visited.size();
          ps = r->stats;
        } else {
          auto r = gdbmicro::query::ShortestPath(*inst.engine, *session, src,
                                                 dst, label, kPathMaxDepth,
                                                 cancel);
          if (!r.ok()) {
            ++st.disagreements;
            continue;
          }
          result = r->path.size();
          ps = r->stats;
        }
        ++st.path_ops;
        st.path_expanded += ps.expanded;
        if (ps.used_index) ++st.path_index;
        if (ps.used_index && ps.expanded == 0) ++st.path_certain;
      } else {
        continue;  // Q11-Q13 call the engine directly: no result struct
      }
      // Reads on `mixed` ran beside commits, so only the pristine
      // workloads can be replayed answer for answer.
      if (!bench.w->mixed &&
          std::min<uint64_t>(result, UINT32_MAX) != log.items[k]) {
        ++st.disagreements;
      }
    }
  }
  return st;
}

// --- the report ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // what it moves, percentile and sample count, ...
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %-14s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- the run ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 20;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// Failed ops of one engine by spec index, with the first status seen.
struct Failures {
  std::map<int, uint64_t> counts;
  std::map<int, std::string> first;

  void Add(const std::vector<ClientLog>& logs) {
    for (const ClientLog& log : logs) {
      for (size_t k = 0; k < log.outcome.size(); ++k) {
        if (log.outcome[k] != kOk) ++counts[log.spec[k]];
      }
      for (const auto& [spec, status] : log.first_failure) {
        first.try_emplace(spec, status);
      }
    }
  }
};

/// Per-engine results the report needs after the engine is gone.
struct EngineResult {
  std::vector<LoadTiming> loads;  // one per setup repetition
  double memory_mb = 0;
  EngineSummary e2e;     // the untraced pass
  EngineSummary traced;  // the traced pass
  EngineSummary probe;   // the write probe of the read-only workloads
  // (V, E) after the writes: the mixed run's, else the write probe's.
  std::pair<uint64_t, uint64_t> final_state;
  Failures failures;        // the workload's own ops
  Failures probe_failures;  // the write probe
  uint64_t wal_commits = 0, wal_bytes = 0, wal_flushes = 0;
  StructStats structs;
  std::vector<std::vector<double>> self_us;  // [spec]: op self times
  // Summed op latency over the ops both passes ran (the traced pass's),
  // untraced and traced: closed-loop clients, so their ratio is the
  // ratio of untraced to traced throughput on the same ops.
  int64_t untraced_prefix_ns = 0;
  int64_t traced_prefix_ns = 0;
  std::vector<double> prepare_us;
};

double MedianOf(const std::vector<LoadTiming>& loads,
                double LoadTiming::*field) {
  std::vector<double> v;
  for (const LoadTiming& t : loads) v.push_back(t.*field);
  return Median(std::move(v));
}

int Run(const Args& args) {
  const int64_t start_ns = NowNs();
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& def : kWorkloads) {
    if (args.workload == def.name) w = &def;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  gdbmicro::RegisterBuiltinEngines();
  // The driver's own thread (set-up, `mixed` and single-client ops,
  // write probe, stats pass) stays on CPU 0 like client 0.
  PinToCpu(0);

  Bench bench;
  bench.w = w;
  bench.seed = args.seed;
  bench.deadline_ns = start_ns + kRunBudgetNs;
  bench.specs = gdbmicro::core::QueriesByNumber(w->reads);
  bench.num_reads = bench.specs.size();
  bench.writes = gdbmicro::core::QueriesByNumber(kWrites);
  // A whole number of blocks of at least one op per read spec each.
  const size_t block_ops = std::max<size_t>(
      bench.num_reads,
      static_cast<size_t>(w->ops_per_second * args.seconds / kRounds + 0.5));
  const size_t n_ops = block_ops * kRounds;
  const size_t n_traced = std::min(n_ops, kMaxTracedOps);
  bench.warmup_ops = std::max(bench.num_reads, n_ops / 20);
  // Op k: the read specs in turn, except that client 0 of `mixed`
  // commits the next C/U/D spec on a seeded coin.
  const size_t first_write = bench.specs.size();
  bench.specs.insert(bench.specs.end(), bench.writes.begin(),
                     bench.writes.end());
  for (int c = 0; c < w->clients; ++c) {
    std::vector<uint8_t> ops(n_ops);
    gdbmicro::Rng coin(args.seed ^ (0xc0ffee00ULL + static_cast<uint64_t>(c)));
    size_t next_read = 0, next_write = 0;
    for (uint8_t& op : ops) {
      bool write = w->mixed && c == 0 && coin.Chance(kWriteChance);
      op = static_cast<uint8_t>(
          write ? first_write + next_write++ % bench.writes.size()
                : next_read++ % bench.num_reads);
    }
    bench.ops.push_back(std::move(ops));
  }
  TraceFile trace_file;
  TraceFile* trace = args.trace ? &trace_file : nullptr;

  // One set-up: generate the dataset into `*into`, then open and load
  // all nine engines from it into `insts` (each dropped once loaded when
  // `insts` is null). The first set-up's engines serve the run; the
  // other w->setup_reps - 1 set-ups are spread over the rounds of the
  // measured phase, so that setup_s, the median, also spans the host's
  // slow and fast phases.
  std::vector<EngineResult> results(kNumEngines);
  std::vector<double> generate_s;
  auto set_up = [&](GraphData* into,
                    std::vector<std::unique_ptr<Instance>>* insts) {
    const int64_t g0 = NowNs();
    Result<GraphData> generated = gdbmicro::datasets::GenerateByName(
        w->dataset, {w->scale, kGeneratorSeed});
    const int64_t g1 = NowNs();
    if (!generated.ok()) {
      std::fprintf(stderr, "generate %s: %s\n", w->dataset,
                   generated.status().ToString().c_str());
      return false;
    }
    *into = std::move(generated).value();
    generate_s.push_back(static_cast<double>(g1 - g0) / 1e9);
    if (trace != nullptr) {
      trace->Add(0, SpanName::kGenerate, SpanName::kNone, g0, g1 - g0,
                 std::string("dataset=") + w->dataset);
    }
    for (int e = 0; e < kNumEngines; ++e) {
      LoadTiming t;
      Result<std::unique_ptr<Instance>> loaded =
          Load(kEngines[e], *into, bench, &t, trace);
      if (!loaded.ok()) {
        std::fprintf(stderr, "load %s: %s\n", kEngines[e],
                     loaded.status().ToString().c_str());
        return false;
      }
      if (insts != nullptr) insts->push_back(std::move(loaded).value());
      results[static_cast<size_t>(e)].loads.push_back(t);
    }
    return true;
  };
  GraphData data;
  std::vector<EngineRun> runs(kNumEngines);
  {
    std::vector<std::unique_ptr<Instance>> insts;
    if (!set_up(&data, &insts)) return 1;
    for (int e = 0; e < kNumEngines; ++e) {
      runs[static_cast<size_t>(e)].inst = std::move(insts[static_cast<size_t>(e)]);
    }
  }

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              w->name, args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf(
      "dataset %s scale %g (generator seed %" PRIu64 "): %" PRIu64
      " V / %" PRIu64 " E; %d client(s), closed loop; %zu ops per client "
      "and engine in %d rounds of %zu, engines in turn (%zu untimed "
      "warm-up ops first)\n",
      w->dataset, w->scale, kGeneratorSeed, data.VertexCount(),
      data.EdgeCount(), w->clients, n_ops, kRounds, block_ops,
      bench.warmup_ops);
  std::fflush(stdout);

  // The WAL of the instance that takes the run's commits.
  using WalMark = std::array<uint64_t, 3>;
  auto wal_mark = [&](const EngineRun& run) {
    const gdbmicro::Wal& wal =
        (w->mixed ? run.inst : run.probe_inst)->writer->wal();
    return WalMark{wal.commits_logged(), wal.bytes_logged(), wal.flushes()};
  };
  auto wal_add = [&](const EngineRun& run, const WalMark& before,
                     EngineResult* er) {
    WalMark after = wal_mark(run);
    er->wal_commits += after[0] - before[0];
    er->wal_bytes += after[1] - before[1];
    er->wal_flushes += after[2] - before[2];
  };
  std::vector<WalMark> wal_before(kNumEngines);
  for (int e = 0; e < kNumEngines; ++e) {
    EngineRun& run = runs[static_cast<size_t>(e)];
    results[static_cast<size_t>(e)].memory_mb =
        static_cast<double>(run.inst->engine->MemoryBytes()) /
        (1024.0 * 1024.0);
    run.logs.resize(static_cast<size_t>(w->clients));
    for (ClientLog& log : run.logs) log.Reset(n_ops);
    run.Connect(bench, nullptr);
    run.WarmUp(bench);
    if (!w->mixed) {
      LoadTiming unused;
      Result<std::unique_ptr<Instance>> loaded =
          Load(kEngines[e], data, bench, &unused, nullptr);
      if (!loaded.ok()) return 1;
      run.probe_inst = std::move(loaded).value();
      run.probe.Reset(static_cast<size_t>(kRounds * kProbeRoundsPerChunk) *
                      bench.writes.size());
      WriteProbe(run, bench, -1);
    }
    wal_before[static_cast<size_t>(e)] = wal_mark(run);
  }

  // The measured phase: the end-to-end figures. On the read-only
  // workloads each engine's block of reads is followed by a chunk of its
  // write probe.
  const int64_t measure_start_ns = NowNs();
  const int extra_set_ups = w->setup_reps - 1;
  for (int r = 0; r < kRounds; ++r) {
    const size_t k0 = static_cast<size_t>(r) * block_ops;
    for (int i = 0; i < kNumEngines; ++i) {
      const int e = (r + i) % kNumEngines;
      EngineRun& run = runs[static_cast<size_t>(e)];
      run.blocks.push_back(
          run.RunBlock(bench, e, k0, k0 + block_ops, false, run.logs));
      if (!w->mixed) WriteProbe(run, bench, r);
    }
    for (int j = r * extra_set_ups / kRounds;
         j < (r + 1) * extra_set_ups / kRounds; ++j) {
      GraphData dropped;
      if (!set_up(&dropped, nullptr)) return 1;
    }
  }
  std::printf("measured phase: %.1f s\n",
              static_cast<double>(NowNs() - measure_start_ns) / 1e9);
  std::vector<Answers> answers_e2e, answers_traced;
  for (int e = 0; e < kNumEngines; ++e) {
    EngineRun& run = runs[static_cast<size_t>(e)];
    EngineResult& er = results[static_cast<size_t>(e)];
    Summarize(bench, run.logs, run.blocks, &er.e2e);
    er.failures.Add(run.logs);
    wal_add(run, wal_before[static_cast<size_t>(e)], &er);
    if (w->mixed) {
      run.clients.clear();
      er.final_state = CountState(*run.inst->engine);
    } else {
      Summarize(bench, {run.probe}, run.probe_blocks, &er.probe);
      er.probe_failures.Add({run.probe});
      er.final_state = CountState(*run.probe_inst->engine);
      run.probe_inst.reset();
      answers_e2e.push_back(AnswersOf(run.logs));
    }
  }

  // The traced run: a traced pass and the stats pass per engine, on the
  // pristine snapshot (reloaded on `mixed`, whose commits changed it).
  uint64_t trace_violations = 0, traced_ops = 0;
  std::vector<double> governor_us, session_us;
  std::vector<ClientLog> tlogs(static_cast<size_t>(w->clients));
  for (int e = 0; args.trace && e < kNumEngines; ++e) {
    const std::string name = kEngines[e];
    EngineRun& run = runs[static_cast<size_t>(e)];
    EngineResult& er = results[static_cast<size_t>(e)];
    if (w->mixed) {
      run.inst.reset();
      LoadTiming t;
      Result<std::unique_ptr<Instance>> reloaded =
          Load(name, data, bench, &t, nullptr);
      if (!reloaded.ok()) return 1;
      run.inst = std::move(reloaded).value();
    }
    // The catalog's prepared shapes, once per engine, for the stats pass.
    std::map<int, gdbmicro::query::PreparedPlan> plans;
    const uint64_t degree_k = run.inst->workloads[0]->DegreeK();
    for (size_t i = 0; i < bench.num_reads; ++i) {
      const PlanShape* shape = ShapeFor(bench.specs[i]->number);
      if (shape == nullptr || plans.count(shape->number) > 0) continue;
      const int64_t p0 = NowNs();
      auto prepared = shape->build(degree_k).Prepare(*run.inst->engine);
      const int64_t p1 = NowNs();
      if (!prepared.ok()) {
        std::fprintf(stderr, "prepare Q%d on %s: %s\n", shape->number,
                     name.c_str(), prepared.status().ToString().c_str());
        return 1;
      }
      plans.emplace(shape->number, std::move(prepared).value());
      er.prepare_us.push_back(static_cast<double>(p1 - p0) / 1e3);
      trace->Add(0, SpanName::kPrepare, SpanName::kNone, p0, p1 - p0,
                 "engine=" + name + ";query=Q" + std::to_string(shape->number));
    }
    // Fresh clients, so their session opens are traced.
    for (ClientLog& log : tlogs) {
      log.Reset(n_traced);
      log.spans.reserve(n_traced * 3);
    }
    std::vector<Span> roots;
    run.Connect(bench, &roots);
    run.WarmUp(bench);
    const Block block = run.RunBlock(bench, e, 0, n_traced, true, tlogs);
    Summarize(bench, tlogs, {block}, &er.traced);
    er.failures.Add(tlogs);
    for (size_t c = 0; c < tlogs.size(); ++c) {
      for (size_t k = 0; k < tlogs[c].latency_ns.size(); ++k) {
        er.traced_prefix_ns += tlogs[c].latency_ns[k];
        er.untraced_prefix_ns += run.logs[c].latency_ns[k];
      }
    }
    for (const Span& s : roots) {
      session_us.push_back(static_cast<double>(s.dur_ns) / 1e3);
      trace->Add(0, s.name, s.parent, s.start_ns, s.dur_ns, "engine=" + name);
    }
    er.self_us.resize(bench.specs.size());
    for (ClientLog& log : tlogs) {
      SelfCheck check =
          CheckOpSpans(log.spans, [&](const Span& op, int64_t self_ns) {
            size_t k = op.id & 0xffffffffULL;
            er.self_us[log.spec[k]].push_back(static_cast<double>(self_ns) /
                                              1e3);
          });
      trace_violations += check.violations;
      traced_ops += check.ops;
      for (const Span& s : log.spans) {
        if (s.name == SpanName::kGovernor) {
          governor_us.push_back(static_cast<double>(s.dur_ns) / 1e3);
        } else if (s.name == SpanName::kSessionOpen) {
          session_us.push_back(static_cast<double>(s.dur_ns) / 1e3);
        }
        std::string attrs;
        if (s.name == SpanName::kOp) {
          size_t k = s.id & 0xffffffffULL;
          const QuerySpec& spec = *bench.specs[log.spec[k]];
          attrs = "engine=" + name + ";query=" + spec.name +
                  ";client=" + std::to_string((s.id >> 32) & 0xff) +
                  ";layer=" + LayerOf(spec);
        }
        trace->Add(s.id, s.name, s.parent, s.start_ns, s.dur_ns, attrs);
      }
      log.spans.clear();
    }
    er.structs = StatsPass(*run.inst, bench, plans, w->mixed ? tlogs : run.logs);
    if (w->mixed) {
      run.clients.clear();
      run.inst.reset();
    } else {
      answers_traced.push_back(AnswersOf(tlogs));
    }
  }

  runs.clear();

  // --- checks -----------------------------------------------------------------
  std::map<std::pair<int, int>, uint64_t> mismatches;
  if (!w->mixed) {
    mismatches = CheckAnswers(bench, answers_e2e);
    for (const auto& [key, n] : CheckAnswers(bench, answers_traced)) {
      mismatches[key] += n;
    }
  }
  uint64_t answer_mismatches = 0;
  for (const auto& [key, n] : mismatches) answer_mismatches += n;

  // Final state after the run's writes: engines off the majority count.
  std::map<std::pair<uint64_t, uint64_t>, int> state_votes;
  for (const EngineResult& er : results) {
    ++state_votes[er.final_state];
  }
  const auto majority_state =
      std::max_element(state_votes.begin(), state_votes.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })
          ->first;
  std::vector<int> state_mismatch;
  for (int e = 0; e < kNumEngines; ++e) {
    const EngineResult& er = results[static_cast<size_t>(e)];
    if (er.final_state != majority_state) {
      state_mismatch.push_back(e);
    }
  }

  OutcomeCounters outcomes;
  uint64_t attempted = 0;
  uint64_t stats_disagreements = 0;
  for (const EngineResult& er : results) {
    outcomes.Merge(er.e2e.outcomes);
    attempted += er.e2e.attempted;
    if (args.trace) {
      outcomes.Merge(er.traced.outcomes);
      attempted += er.traced.attempted;
    }
    stats_disagreements += er.structs.disagreements;
  }
  const uint64_t failed_ops = outcomes.timeout + outcomes.oom + outcomes.failed;
  // On the read-only workloads the final state follows the write probe,
  // which is reported beside success_rate, not in it.
  const uint64_t errors = failed_ops + answer_mismatches +
                          (w->mixed ? state_mismatch.size() : 0);
  const double error_rate =
      attempted > 0 ? static_cast<double>(errors) / static_cast<double>(attempted)
                    : 1.0;
  const bool correct = answer_mismatches == 0 && stats_disagreements == 0 &&
                       trace_violations == 0 && attempted > 0;

  // --- per-engine table -------------------------------------------------------
  std::printf("\n%-9s %9s %10s %12s %10s %10s %12s %12s %7s\n", "engine",
              "load_s", "memory_mb", "ops_per_s", "p50_ms", "tail_ms",
              "write_p50_ms", "write_tail", "failed");
  // The write figures: the mixed run's commits, else the write probe.
  auto writes_of = [&](const EngineResult& er) -> const EngineSummary& {
    return w->mixed ? er.e2e : er.probe;
  };
  for (int e = 0; e < kNumEngines; ++e) {
    const EngineResult& er = results[static_cast<size_t>(e)];
    uint64_t failed = er.e2e.outcomes.timeout + er.e2e.outcomes.oom +
                      er.e2e.outcomes.failed;
    std::printf("%-9s %9.4f %10.2f %12.0f %10.5f %10.5f %12.5f %12.5f %7" PRIu64
                "\n",
                kEngines[e], MedianOf(er.loads, &LoadTiming::bulk_load_s),
                er.memory_mb, er.e2e.ops_per_s, er.e2e.p50_ms(),
                er.e2e.read_tail.ms, writes_of(er).write_p50_ms(),
                writes_of(er).write_tail.ms, failed);
  }
  std::printf("\ncell medians by query, geomean over engines (ms):");
  for (size_t i = 0; i < bench.specs.size(); ++i) {
    std::vector<double> v;
    for (const EngineResult& er : results) {
      const EngineSummary& es = i < bench.num_reads ? er.e2e : writes_of(er);
      if (i < es.cell_ms.size()) v.push_back(es.cell_ms[i]);
    }
    if (GeoMean(v) > 0) {
      std::printf("%s %s %.5f", i % 6 == 0 ? "\n " : "",
                  bench.specs[i]->name.c_str(), GeoMean(v));
    }
  }
  std::printf("\n");
  auto print_failures = [&](const char* title, Failures EngineResult::*f) {
    std::printf("%s:", title);
    bool any = false;
    for (int e = 0; e < kNumEngines; ++e) {
      const Failures& fs = results[static_cast<size_t>(e)].*f;
      for (const auto& [spec, n] : fs.counts) {
        std::printf("\n  %-9s %-10s %6" PRIu64 "  first: %s", kEngines[e],
                    bench.specs[static_cast<size_t>(spec)]->name.c_str(), n,
                    fs.first.at(spec).c_str());
        any = true;
      }
    }
    std::printf("%s\n", any ? "" : " none");
  };
  print_failures("\nfailed ops by engine and query (timeouts, OOM, errors)",
                 &EngineResult::failures);
  if (!w->mixed) {
    print_failures(
        "failed write-probe commits by engine and query (not in success_rate)",
        &EngineResult::probe_failures);
  }
  std::printf("answer mismatches by engine and query: ");
  if (w->mixed) {
    std::printf("not checked (reads run beside commits)\n");
  } else if (mismatches.empty()) {
    std::printf("none\n");
  } else {
    for (const auto& [key, n] : mismatches) {
      std::printf("\n  %-9s %-10s %6" PRIu64, kEngines[key.first],
                  bench.specs[static_cast<size_t>(key.second)]->name.c_str(), n);
    }
    std::printf("\n");
  }
  std::printf("final state after %s: majority %" PRIu64 " V / %" PRIu64
              " E; off-majority engines:",
              w->mixed ? "the mixed run" : "the write probe",
              majority_state.first, majority_state.second);
  for (int e : state_mismatch) {
    const EngineResult& er = results[static_cast<size_t>(e)];
    std::printf(" %s (%" PRIu64 " V / %" PRIu64 " E)", kEngines[e],
                er.final_state.first, er.final_state.second);
  }
  std::printf("%s\n", state_mismatch.empty() ? " none" : "");
  if (args.trace) {
    std::printf("stats-pass disagreements: %" PRIu64
                "; trace self-check: %" PRIu64 " of %" PRIu64
                " op spans violate children + self == op\n",
                stats_disagreements, trace_violations, traced_ops);
  }

  // --- metrics ------------------------------------------------------------------
  std::vector<Metric> metrics;
  auto tail_note = [](const std::vector<Tail>& tails) {
    size_t n = 0;
    double qmin = 1;
    for (const Tail& t : tails) {
      n += t.samples;
      qmin = std::min(qmin, t.quantile);
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p%.1f or higher, %zu samples", qmin * 100,
                  n);
    return std::string(buf);
  };
  if (!args.trace) {
    std::vector<double> ops_per_s, read_cells, tails, write_cells, write_tails;
    std::vector<Tail> read_tail_info, write_tail_info;
    double setup_s = Median(generate_s);
    for (const EngineResult& er : results) {
      setup_s += MedianOf(er.loads, &LoadTiming::setup_s);
      ops_per_s.push_back(er.e2e.ops_per_s);
      read_cells.insert(read_cells.end(), er.e2e.read_cells_ms.begin(),
                        er.e2e.read_cells_ms.end());
      const EngineSummary& ws = writes_of(er);
      write_cells.insert(write_cells.end(), ws.write_cells_ms.begin(),
                         ws.write_cells_ms.end());
      tails.push_back(er.e2e.read_tail.ms);
      write_tails.push_back(ws.write_tail.ms);
      read_tail_info.push_back(er.e2e.read_tail);
      write_tail_info.push_back(ws.write_tail);
    }
    metrics = {
        {"setup_s", setup_s, "s",
         "median of " + std::to_string(w->setup_reps) +
             " set-ups: generate + open/BulkLoad" +
             (w->path_index ? "/BuildPathIndex" : "") + " on 9 engines"},
        {"peak_rss_mb", PeakRssMb(), "MiB", "getrusage ru_maxrss"},
        {"ops_per_s", GeoMean(ops_per_s), "ops/s",
         "geomean over engines of the median block's completed ops / wall"},
        {"p50_ms", GeoMean(read_cells), "ms",
         "geomean over " + std::to_string(read_cells.size()) +
             " read cells of the cell median"},
        {"tail_ms", GeoMean(tails), "ms",
         "geomean over engines; " + tail_note(read_tail_info)},
        {"write_p50_ms", GeoMean(write_cells), "ms",
         "geomean over " + std::to_string(write_cells.size()) +
             " write cells" + (w->mixed ? "" : " (write probe)")},
        {"write_tail_ms", GeoMean(write_tails), "ms",
         "geomean over engines; " + tail_note(write_tail_info)},
        {"success_rate", 1.0 - error_rate, "fraction",
         "1 - error_rate; error_rate = " + std::to_string(errors) + " / " +
             std::to_string(attempted)},
    };
  } else {
    // Per-layer metrics, each labelled with the end-to-end metric and
    // workloads it should move.
    auto sum_median = [&](double LoadTiming::*field) {
      double s = 0;
      for (const EngineResult& er : results) s += MedianOf(er.loads, field);
      return s;
    };
    auto cells = [&](std::initializer_list<int> numbers, double scale) {
      std::vector<double> v;
      for (const EngineResult& er : results) {
        for (size_t i = 0; i < er.self_us.size(); ++i) {
          const int n = bench.specs[i]->number;
          if (er.self_us[i].empty() ||
              std::find(numbers.begin(), numbers.end(), n) == numbers.end()) {
            continue;
          }
          v.push_back(Median(er.self_us[i]) * scale);
        }
      }
      return GeoMean(v);
    };
    std::vector<double> rows_per_result, peak_kb, expanded, prepare_us;
    uint64_t path_ops = 0, path_index = 0, path_certain = 0;
    uint64_t wal_commits = 0, wal_bytes = 0, wal_flushes = 0;
    std::vector<double> traced_vs_untraced;
    for (const EngineResult& er : results) {
      const StructStats& s = er.structs;
      if (s.plan_results > 0) {
        rows_per_result.push_back(static_cast<double>(s.plan_rows) /
                                  static_cast<double>(s.plan_results));
      }
      if (s.plan_ops > 0) {
        peak_kb.push_back(static_cast<double>(s.peak_frontier_bytes) / 1024);
      }
      if (s.path_ops > 0) {
        expanded.push_back(static_cast<double>(s.path_expanded) /
                           static_cast<double>(s.path_ops));
      }
      path_ops += s.path_ops;
      path_index += s.path_index;
      path_certain += s.path_certain;
      wal_commits += er.wal_commits;
      wal_bytes += er.wal_bytes;
      wal_flushes += er.wal_flushes;
      prepare_us.insert(prepare_us.end(), er.prepare_us.begin(),
                        er.prepare_us.end());
      if (er.untraced_prefix_ns > 0) {
        traced_vs_untraced.push_back(static_cast<double>(er.traced_prefix_ns) /
                                     static_cast<double>(er.untraced_prefix_ns));
      }
    }
    auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    auto share = [&](uint64_t n) {
      return path_ops > 0 ? static_cast<double>(n) / path_ops : 0.0;
    };
    auto per_commit = [&](uint64_t n) {
      return wal_commits > 0 ? static_cast<double>(n) / wal_commits : 0.0;
    };
    Tail session_tail = TailOf(session_us);
    char session_note[96];
    std::snprintf(session_note, sizeof(session_note),
                  "moves p50_ms,tail_ms on mixed; p%.1f of %zu",
                  session_tail.quantile * 100, session_tail.samples);
    metrics = {
        {"datasets.generate_s", Median(generate_s), "s", "moves setup_s on all"},
        {"graph.load.element_s", sum_median(&LoadTiming::element_s), "s",
         "moves setup_s on all"},
        {"graph.load.index_build_s", sum_median(&LoadTiming::index_build_s),
         "s", "moves setup_s on all"},
        {"graph.load.stats_build_s", sum_median(&LoadTiming::stats_build_s),
         "s", "moves setup_s on all"},
        {"graph.path_index_build_s", sum_median(&LoadTiming::path_index_s),
         "s", "moves setup_s on reach"},
        {"graph.session_open_us", Median(session_us), "us",
         "moves p50_ms,tail_ms on mixed"},
        {"graph.session_open_tail_us", session_tail.ms, "us", session_note},
        {"graph.final_state_mismatches",
         static_cast<double>(state_mismatch.size()), "count",
         "moves success_rate on mixed"},
        {"storage.wal_bytes_per_commit", per_commit(wal_bytes), "B/commit",
         "moves write_p50_ms,write_tail_ms on mixed"},
        {"storage.wal_flushes_per_commit", per_commit(wal_flushes),
         "flushes/commit", "moves write_p50_ms,write_tail_ms on mixed"},
        {"query.governor_us", Median(governor_us), "us",
         "moves p50_ms on point-reads"},
        {"query.prepare_us", GeoMean(prepare_us), "us",
         "moves setup_s on point-reads,traverse"},
        {"query.plan.point_us", cells({14, 15}, 1), "us",
         "moves p50_ms,ops_per_s on point-reads,mixed"},
        {"query.plan.hop_us", cells({22, 23, 24}, 1), "us",
         "moves p50_ms,ops_per_s on point-reads,mixed"},
        {"query.plan.labels_us", cells({25, 26, 27}, 1), "us",
         "moves p50_ms,ops_per_s on point-reads,mixed"},
        {"query.plan.scan_ms", cells({28, 29, 30, 31}, 1e-3), "ms",
         "moves ops_per_s on traverse"},
        {"query.plan.rows_per_result", GeoMean(rows_per_result),
         "rows/result", "moves p50_ms on point-reads,traverse"},
        {"query.plan.peak_frontier_kb", mean(peak_kb), "KiB",
         "moves p50_ms on point-reads,traverse"},
        {"query.bfs_ms", cells({32, 33}, 1e-3), "ms",
         "moves ops_per_s,p50_ms on traverse,reach"},
        {"query.sp_ms", cells({34, 35}, 1e-3), "ms",
         "moves ops_per_s,p50_ms on traverse,reach"},
        {"query.expanded_per_op", mean(expanded), "vertices/op",
         "moves ops_per_s on reach"},
        {"query.index_share", share(path_index), "fraction",
         "moves ops_per_s on reach"},
        {"query.certain_share", share(path_certain), "fraction",
         "moves ops_per_s on reach"},
    };
    for (int e = 0; e < kNumEngines; ++e) {
      const EngineResult& er = results[static_cast<size_t>(e)];
      const std::string p = std::string("engines.") + kEngines[e] + ".";
      metrics.push_back({p + "load_s", MedianOf(er.loads, &LoadTiming::bulk_load_s),
                         "s", "moves setup_s on all"});
      metrics.push_back({p + "memory_mb", er.memory_mb, "MiB",
                         "moves peak_rss_mb on all"});
      metrics.push_back({p + "ops_per_s", er.e2e.ops_per_s, "ops/s",
                         "moves ops_per_s on all"});
      metrics.push_back({p + "p50_ms", er.e2e.p50_ms(), "ms",
                         "moves p50_ms on all"});
      metrics.push_back({p + "tail_ms", er.e2e.read_tail.ms, "ms",
                         "moves tail_ms on all"});
      metrics.push_back({p + "write_p50_ms", writes_of(er).write_p50_ms(), "ms",
                         std::string("moves write_p50_ms on mixed") +
                             (w->mixed ? "" : " (write probe here)")});
    }
    const double overhead = (GeoMean(traced_vs_untraced) - 1.0) * 100.0;
    metrics.insert(
        metrics.end(),
        {
            {"core.ops_attempted", static_cast<double>(attempted), "count",
             "moves success_rate on all"},
            {"core.ops_failed", static_cast<double>(failed_ops), "count",
             "moves success_rate on all"},
            {"core.ops_retried", static_cast<double>(outcomes.retried),
             "count", "moves success_rate on all"},
            {"core.answer_mismatches", static_cast<double>(answer_mismatches),
             "count", "moves success_rate on all"},
            {"core.error_rate", error_rate, "fraction",
             "moves success_rate on all"},
            {"core.trace_overhead_pct", overhead, "%",
             "moves nothing (tracing cost) on all"},
        });
  }

  std::printf("\n%s metrics (workload=%s seed=%" PRIu64 "):\n",
              args.trace ? "per-layer" : "end-to-end", w->name, args.seed);
  PrintMetrics(metrics);
  if (trace != nullptr && !args.trace_out.empty()) {
    if (!trace->WriteTo(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", args.trace_out.c_str());
  }
  std::printf("%s\n",
              ResultJson(correct, attempted, errors, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <point-reads|traverse|mixed|reach> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
