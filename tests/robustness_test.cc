// Robustness tests for the query governor, the transient-fault injector,
// and the retry/abort machinery: typed deadline and memory-budget errors
// on every engine with the session staying reusable afterwards (the same
// session reproduces the golden answer), prompt early-stop of every
// engine scan entry point on a cancelled token, writer commit aborts that
// leave the store and epoch gate intact, deterministic fault sequences,
// and the Runner's bounded retry absorbing injected faults.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/core/queries.h"
#include "src/core/runner.h"
#include "src/datasets/generators.h"
#include "src/graph/fault.h"
#include "src/graph/registry.h"
#include "src/graph/writer.h"
#include "src/query/governor.h"
#include "src/query/traversal.h"
#include "src/util/timer.h"

namespace gdbmicro {
namespace {

using query::GovernorOptions;
using query::ResourceGovernor;
using query::Traversal;

// ---------------------------------------------------------------------
// Governor unit tests: typed trips with attributable diagnostics.

TEST(GovernorTest, MemoryBudgetTripsTyped) {
  ResourceGovernor governor({std::chrono::nanoseconds(0), 4096});
  const CancelToken& token = governor.token();
  EXPECT_EQ(token.trip_reason(), TripReason::kNone);
  EXPECT_EQ(token.budget_bytes(), 4096u);
  token.set_position("warmup");
  EXPECT_TRUE(token.Charge(1024));
  EXPECT_EQ(token.charged_bytes(), 1024u);
  EXPECT_FALSE(token.Expired());

  token.set_position("GovernorTest.site");
  EXPECT_FALSE(token.Charge(8192));
  EXPECT_EQ(token.trip_reason(), TripReason::kMemory);
  Status s = token.ToStatus();
  EXPECT_TRUE(s.IsResourceExhausted()) << s;
  // Diagnostics: charged-vs-limit bytes and the marked position.
  EXPECT_NE(s.message().find("budget 4096"), std::string::npos) << s;
  EXPECT_NE(s.message().find("GovernorTest.site"), std::string::npos) << s;
  EXPECT_TRUE(token.Expired());
}

TEST(GovernorTest, SpentDeadlineTripsTyped) {
  ResourceGovernor governor({std::chrono::microseconds(200), 0});
  SpinFor(1000);
  EXPECT_TRUE(governor.token().Expired());
  EXPECT_EQ(governor.token().trip_reason(), TripReason::kDeadline);
  Status s = governor.token().ToStatus();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s;
  // Diagnostics: elapsed-vs-budget milliseconds.
  EXPECT_NE(s.message().find("elapsed"), std::string::npos) << s;
  EXPECT_NE(s.message().find("budget"), std::string::npos) << s;
}

TEST(GovernorTest, UnlimitedGovernorNeverTrips) {
  ResourceGovernor governor(GovernorOptions{});  // no deadline, no budget
  EXPECT_TRUE(governor.token().Charge(1ULL << 40));
  EXPECT_FALSE(governor.token().Expired());
  EXPECT_EQ(governor.token().trip_reason(), TripReason::kNone);
}

TEST(GovernorTest, FirstTripWins) {
  ResourceGovernor governor({std::chrono::nanoseconds(0), 64});
  EXPECT_FALSE(governor.token().Charge(128));
  governor.token().Cancel();  // later cancellation must not flap the class
  EXPECT_EQ(governor.token().trip_reason(), TripReason::kMemory);
  EXPECT_TRUE(governor.token().ToStatus().IsResourceExhausted());
}

// ---------------------------------------------------------------------
// Fault injector: deterministic seeded sequences, rate endpoints.

TEST(FaultInjectorTest, DeterministicSequence) {
  QueryFaultInjector a({0.3, 1234});
  QueryFaultInjector b({0.3, 1234});
  std::vector<bool> sa, sb;
  for (int i = 0; i < 1000; ++i) sa.push_back(a.Intercept("t").ok());
  for (int i = 0; i < 1000; ++i) sb.push_back(b.Intercept("t").ok());
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(a.probes(), 1000u);
  EXPECT_EQ(a.faults(), b.faults());
  // The hash-threshold scheme converges on the configured rate.
  EXPECT_GT(a.faults(), 200u);
  EXPECT_LT(a.faults(), 400u);
}

TEST(FaultInjectorTest, SeedChangesTheSequence) {
  QueryFaultInjector a({0.3, 1});
  QueryFaultInjector b({0.3, 2});
  std::vector<bool> sa, sb;
  for (int i = 0; i < 256; ++i) sa.push_back(a.Intercept("t").ok());
  for (int i = 0; i < 256; ++i) sb.push_back(b.Intercept("t").ok());
  EXPECT_NE(sa, sb);
}

TEST(FaultInjectorTest, RateEndpoints) {
  QueryFaultInjector never({0.0, 42});
  QueryFaultInjector always({1.0, 42});
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(never.Intercept("t").ok());
    Status s = always.Intercept("t");
    EXPECT_TRUE(s.IsUnavailable()) << s;
  }
  EXPECT_EQ(never.probes(), 64u);
  EXPECT_EQ(never.faults(), 0u);
  EXPECT_EQ(always.faults(), 64u);
  // The fired status names the site for attribution.
  EXPECT_NE(always.Intercept("my.site").message().find("my.site"),
            std::string::npos);
}

TEST(FaultInjectorTest, ResetRearms) {
  QueryFaultInjector injector({1.0, 42});
  EXPECT_TRUE(injector.Intercept("t").IsUnavailable());
  injector.Reset({0.0, 42});
  EXPECT_TRUE(injector.Intercept("t").ok());
  EXPECT_EQ(injector.probes(), 1u);  // Reset zeroes the counters
  EXPECT_EQ(injector.faults(), 0u);
}

// ---------------------------------------------------------------------
// Per-engine property: a deadline-tripped and a budget-tripped query
// return typed errors, and the *same session* then reproduces the golden
// answer — errors poison neither the session nor the engine.

/// Dense graph big enough that V().Both() materializes > 131072 rows
/// (so a 1 MiB governor budget at 8 bytes/row must trip) while keeping
/// the per-engine call count at |V| + 1 scans — small enough that the
/// golden runs stay fast even under the emulated cost models.
const GraphData& DenseGraph() {
  static const GraphData* data = [] {
    auto* g = new GraphData();
    g->name = "dense";
    const uint64_t n = 400;
    g->vertices.resize(n);
    for (uint64_t i = 0; i < n; ++i) g->vertices[i].label = "node";
    for (uint64_t i = 0; i < n; ++i) {
      for (uint64_t j = i + 1; j < n; ++j) {
        GraphData::Edge e;
        e.src = i;
        e.dst = j;
        e.label = "link";
        g->edges.push_back(std::move(e));
      }
    }
    return g;
  }();
  return *data;
}

class RobustnessEngineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RobustnessEngineTest, SessionSurvivesDeadlineAndMemoryTrips) {
  auto engine = OpenEngine(GetParam(), EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->BulkLoad(DenseGraph()).ok());
  auto session = (*engine)->CreateSession();

  Traversal t = Traversal::V().Both();
  auto run = [&](const CancelToken& cancel) {
    session->BeginQuery();
    return t.Execute(**engine, *session, cancel);
  };

  // Golden answer first: every vertex's neighborhood, both directions.
  auto golden = run(CancelToken());
  ASSERT_TRUE(golden.ok()) << golden.status();
  const uint64_t expect_rows = 2 * DenseGraph().EdgeCount();
  EXPECT_EQ(golden->rows.size(), expect_rows);

  // A 1 ms deadline that is already spent when the query starts (the
  // runner's remaining-time arithmetic produces exactly this): typed
  // kDeadlineExceeded, never a crash or a hang.
  ResourceGovernor deadline({std::chrono::milliseconds(1), 0});
  SpinFor(2000);
  auto timed_out = run(deadline.token());
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsDeadlineExceeded()) << timed_out.status();
  EXPECT_EQ(deadline.token().trip_reason(), TripReason::kDeadline);

  // A 1 MiB budget against > 1 MiB of materialized rows: typed
  // kResourceExhausted with charged-vs-limit diagnostics.
  ResourceGovernor budget({std::chrono::nanoseconds(0), 1ULL << 20});
  auto oom = run(budget.token());
  ASSERT_FALSE(oom.ok());
  EXPECT_TRUE(oom.status().IsResourceExhausted()) << oom.status();
  EXPECT_EQ(budget.token().trip_reason(), TripReason::kMemory);
  EXPECT_NE(oom.status().message().find("budget"), std::string::npos);

  // The same session reproduces the golden answer after both trips.
  auto again = run(CancelToken());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->rows.size(), expect_rows);
}

// ---------------------------------------------------------------------
// Per-engine early stop: every scan entry point observes a cancelled
// token promptly and returns the typed status instead of finishing the
// walk (the scan-loop gaps closed by the governor change: indexed
// ScanKey fast paths, catalog walks, label scans).

TEST_P(RobustnessEngineTest, ScanEntryPointsStopOnCancelledToken) {
  auto opened = OpenEngine(GetParam(), EngineOptions{});
  ASSERT_TRUE(opened.ok()) << opened.status();
  GraphEngine& engine = **opened;

  PropertyMap props;
  props.emplace_back("name", PropertyValue("ada"));
  auto v0 = engine.AddVertex("person", props);
  auto v1 = engine.AddVertex("person", {});
  ASSERT_TRUE(v0.ok() && v1.ok());
  ASSERT_TRUE(engine.AddEdge(*v0, *v1, "knows", {}).ok());
  // Indexed where supported: the ScanKey fast path must stay cooperative.
  engine.CreateVertexPropertyIndex("name").ok();
  auto session = engine.CreateSession();

  CancelToken cancelled;
  cancelled.Cancel();

  Status s = engine.ScanVertices(*session, cancelled,
                                 [](VertexId) { return true; });
  EXPECT_TRUE(s.IsDeadlineExceeded()) << "ScanVertices: " << s;

  s = engine.ScanEdges(*session, cancelled,
                       [](const EdgeEnds&) { return true; });
  EXPECT_TRUE(s.IsDeadlineExceeded()) << "ScanEdges: " << s;

  auto found = engine.FindVerticesByProperty(*session, "name",
                                             PropertyValue("ada"), cancelled);
  EXPECT_TRUE(found.status().IsDeadlineExceeded())
      << "FindVerticesByProperty: " << found.status();

  auto labels = engine.DistinctEdgeLabels(*session, cancelled);
  EXPECT_TRUE(labels.status().IsDeadlineExceeded())
      << "DistinctEdgeLabels: " << labels.status();

  auto edges = engine.FindEdgesByLabel(*session, "knows", cancelled);
  EXPECT_TRUE(edges.status().IsDeadlineExceeded())
      << "FindEdgesByLabel: " << edges.status();
}

INSTANTIATE_TEST_SUITE_P(AllEngines, RobustnessEngineTest,
                         ::testing::Values("neo19", "neo30", "titan05",
                                           "titan10", "orient", "sqlg",
                                           "arango", "blaze", "sparksee"));

// ---------------------------------------------------------------------
// Writer abort: an injected commit fault fires before the batch is
// logged, so the store, the WAL, and the epoch gate are untouched and
// the commit is safely retryable.

TEST(WriterAbortTest, InjectedCommitFaultLeavesStoreIntact) {
  auto opened = OpenEngine("neo19", EngineOptions{});
  ASSERT_TRUE(opened.ok()) << opened.status();
  GraphEngine& engine = **opened;
  ASSERT_TRUE(engine.AddVertex("seed", {}).ok());

  GraphWriter writer(&engine);
  QueryFaultInjector injector({1.0, 99});
  writer.set_fault_injector(&injector);

  // Sessions pin their epoch, and a publishing commit waits for pinned
  // readers to drain — so every session here is scoped to its check and
  // released before the next Commit.
  CancelToken never;
  uint64_t count_before = 0;
  {
    auto session = engine.CreateSession();
    auto count = engine.CountVertices(*session, never);
    ASSERT_TRUE(count.ok());
    count_before = *count;
  }
  uint64_t epoch_before = engine.epochs().current();
  uint64_t commits_before = writer.commits();

  WriteBatch batch;
  batch.AddVertex("added", {});
  auto receipt = writer.Commit(batch);
  ASSERT_FALSE(receipt.ok());
  EXPECT_TRUE(receipt.status().IsUnavailable()) << receipt.status();

  // Nothing moved: no vertex, no epoch, no commit counted.
  {
    auto session = engine.CreateSession();
    auto count = engine.CountVertices(*session, never);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, count_before);
  }
  EXPECT_EQ(engine.epochs().current(), epoch_before);
  EXPECT_EQ(writer.commits(), commits_before);

  // The retry succeeds once the transient clears, publishing an epoch.
  injector.Reset({0.0, 99});
  auto retried = writer.Commit(batch);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_GT(engine.epochs().current(), epoch_before);
  {
    auto session = engine.CreateSession();
    auto count = engine.CountVertices(*session, never);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, count_before + 1);
  }
}

// ---------------------------------------------------------------------
// Runner retry: injected read faults are absorbed by bounded retry with
// the per-class accounting keeping its identity.

TEST(RunnerRetryTest, BoundedRetryAbsorbsTransientFaults) {
  datasets::GenOptions gen;
  gen.scale = 0.004;
  auto data = datasets::GenerateByName("mico", gen);
  ASSERT_TRUE(data.ok()) << data.status();

  QueryFaultInjector injector({0.3, 5});
  core::RunnerOptions options;
  options.deadline = std::chrono::milliseconds(10000);
  options.batch_iterations = 10;
  options.enable_cost_model = false;
  options.memory_budget_bytes = 0;
  options.max_attempts = 5;
  options.retry_backoff_us = 10;
  options.fault_injector = &injector;
  core::Runner runner(options);

  // The document engine probes the injector on every REST-like fetch, so
  // Q.14 (g.V(id)) exercises attempt/backoff on each iteration.
  auto loaded = runner.Load("arango", *data);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto specs = core::QueriesByNumber({14, 15});
  core::OutcomeCounters totals;
  for (const core::QuerySpec* spec : specs) {
    for (const core::Measurement& m : runner.RunQuery(*loaded, *data, *spec)) {
      totals.Merge(m.outcomes);
      EXPECT_TRUE(m.status.ok() || m.status.IsUnavailable()) << m.status;
    }
  }
  // 2 specs x (1 single + 10 batch) = 22 issued; at a 30% per-probe fault
  // rate with 5 attempts some queries must have retried, and every issued
  // query lands in exactly one class.
  EXPECT_EQ(totals.Issued(), 22u);
  EXPECT_GT(totals.retried, 0u);
  EXPECT_GT(totals.retry_attempts, 0u);
  EXPECT_EQ(totals.timeout, 0u);
  EXPECT_EQ(totals.oom, 0u);
  EXPECT_EQ(totals.ok + totals.retried + totals.failed, 22u);
  EXPECT_GT(injector.faults(), 0u);

  // No-injector control: same runner shape, no retries recorded.
  core::RunnerOptions clean = options;
  clean.fault_injector = nullptr;
  core::Runner clean_runner(clean);
  auto clean_loaded = clean_runner.Load("arango", *data);
  ASSERT_TRUE(clean_loaded.ok());
  core::OutcomeCounters clean_totals;
  for (const core::QuerySpec* spec : specs) {
    for (const core::Measurement& m :
         clean_runner.RunQuery(*clean_loaded, *data, *spec)) {
      EXPECT_TRUE(m.status.ok()) << m.status;
      clean_totals.Merge(m.outcomes);
    }
  }
  EXPECT_EQ(clean_totals.ok, 22u);
  EXPECT_EQ(clean_totals.retried, 0u);
  EXPECT_EQ(clean_totals.retry_attempts, 0u);
}

}  // namespace
}  // namespace gdbmicro
