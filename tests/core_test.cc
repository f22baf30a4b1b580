// End-to-end tests of the benchmark core: query catalog integrity, runner
// execution (single/batch, timeouts, failure recording), space
// measurement, reporting, the Table 4 summarizer, and the complex query
// workload on the ldbc dataset.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>

#include "src/core/complex.h"
#include "src/core/queries.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/datasets/generators.h"
#include "src/query/algorithms.h"
#include "tests/temp_file.h"

namespace gdbmicro {
namespace {

using core::Category;
using core::ComplexQueryCatalog;
using core::Measurement;
using core::QueryCatalog;
using core::Runner;
using core::RunnerOptions;

datasets::GenOptions TinyScale() {
  datasets::GenOptions options;
  options.scale = 0.004;
  return options;
}

RunnerOptions FastRunner() {
  RunnerOptions options;
  options.deadline = std::chrono::milliseconds(5000);
  options.batch_iterations = 3;
  options.enable_cost_model = false;  // unit tests measure semantics
  options.memory_budget_bytes = 0;
  return options;
}

TEST(QueryCatalogTest, CoversTable2) {
  std::set<int> numbers;
  int bfs_variants = 0;
  for (const auto& spec : QueryCatalog()) {
    numbers.insert(spec.number);
    EXPECT_FALSE(spec.gremlin.empty()) << spec.name;
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    ASSERT_TRUE(spec.run != nullptr) << spec.name;
    if (spec.number == 32 || spec.number == 33) ++bfs_variants;
  }
  // Q2..Q35 (Q1, the load, is the runner's job).
  for (int q = 2; q <= 35; ++q) {
    EXPECT_EQ(numbers.count(q), 1u) << "missing Q" << q;
  }
  EXPECT_EQ(bfs_variants, 8);  // depths 2-5 for both Q32 and Q33

  // Category sanity: Table 2's row ranges.
  for (const auto& spec : QueryCatalog()) {
    if (spec.number <= 7) {
      EXPECT_EQ(spec.category, Category::kCreate);
    }
    if (spec.number >= 8 && spec.number <= 15) {
      EXPECT_EQ(spec.category, Category::kRead);
    }
    if (spec.number >= 16 && spec.number <= 17) {
      EXPECT_EQ(spec.category, Category::kUpdate);
    }
    if (spec.number >= 18 && spec.number <= 21) {
      EXPECT_EQ(spec.category, Category::kDelete);
    }
    if (spec.number >= 22) {
      EXPECT_EQ(spec.category, Category::kTraversal);
    }
    EXPECT_EQ(spec.mutates,
              spec.category == Category::kCreate ||
                  spec.category == Category::kUpdate ||
                  spec.category == Category::kDelete)
        << spec.name;
  }
}

TEST(QueriesByNumberTest, SelectsRequestedSubsets) {
  auto bfs = core::QueriesByNumber({32});
  EXPECT_EQ(bfs.size(), 4u);
  auto cud = core::QueriesByNumber({2, 3, 4});
  EXPECT_EQ(cud.size(), 3u);
}

TEST(RunnerTest, FullSuiteOnSmallDatasetAllEnginesSucceed) {
  GraphData data = datasets::GenerateYeast(TinyScale());
  Runner runner(FastRunner());
  std::vector<const core::QuerySpec*> specs;
  for (const auto& spec : QueryCatalog()) specs.push_back(&spec);

  for (const char* engine :
       {"neo19", "sparksee", "sqlg", "arango", "titan10", "orient", "blaze"}) {
    auto results = runner.RunEngine(engine, data, specs);
    ASSERT_TRUE(results.ok()) << engine << ": " << results.status();
    // Load + every spec in single and batch mode.
    EXPECT_EQ(results->size(), 1 + 2 * specs.size()) << engine;
    for (const Measurement& m : *results) {
      EXPECT_TRUE(m.status.ok())
          << engine << " " << m.query << ": " << m.status;
      EXPECT_GE(m.millis, 0.0);
    }
  }
}

TEST(RunnerTest, ReadQueriesRunBeforeMutations) {
  GraphData data = datasets::GenerateYeast(TinyScale());
  Runner runner(FastRunner());
  std::vector<const core::QuerySpec*> specs;
  // Hand the runner a mutation-first order; it must still run reads first.
  for (const auto& spec : QueryCatalog()) {
    if (spec.mutates) specs.push_back(&spec);
  }
  for (const auto& spec : QueryCatalog()) {
    if (!spec.mutates) specs.push_back(&spec);
  }
  auto results = runner.RunEngine("neo19", data, specs);
  ASSERT_TRUE(results.ok());
  bool seen_mutation = false;
  for (const Measurement& m : *results) {
    if (m.category == Category::kLoad) continue;
    bool is_mutation = m.category == Category::kCreate ||
                       m.category == Category::kUpdate ||
                       m.category == Category::kDelete;
    if (is_mutation) seen_mutation = true;
    if (!is_mutation) {
      EXPECT_FALSE(seen_mutation)
          << m.query << " ran after a mutating query";
    }
  }
}

TEST(RunnerTest, DeadlineProducesTimeoutMeasurement) {
  GraphData data = datasets::GenerateMiCo(TinyScale());
  RunnerOptions options = FastRunner();
  options.deadline = std::chrono::milliseconds(0);  // everything times out
  options.batch_iterations = 0;
  Runner runner(options);
  auto specs = core::QueriesByNumber({31});
  auto results = runner.RunEngine("neo19", data, specs);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);  // load + Q31
  const Measurement& q31 = results->back();
  EXPECT_TRUE(q31.timed_out()) << q31.status;
}

TEST(RunnerTest, MemoryBudgetProducesResourceExhausted) {
  GraphData data = datasets::GenerateMiCo(TinyScale());
  RunnerOptions options = FastRunner();
  options.memory_budget_bytes = 16 * 1024;  // tiny arena
  options.batch_iterations = 0;
  Runner runner(options);
  auto specs = core::QueriesByNumber({30});
  auto results = runner.RunEngine("sparksee", data, specs);
  ASSERT_TRUE(results.ok());
  const Measurement& q30 = results->back();
  EXPECT_TRUE(q30.status.IsResourceExhausted()) << q30.status;

  // Other engines are unaffected by the arena budget.
  auto neo = runner.RunEngine("neo19", data, specs);
  ASSERT_TRUE(neo.ok());
  EXPECT_TRUE(neo->back().status.ok());
}

TEST(RunnerTest, BatchIsAtLeastSingleWork) {
  GraphData data = datasets::GenerateYeast(TinyScale());
  RunnerOptions options = FastRunner();
  options.batch_iterations = 10;
  Runner runner(options);
  auto specs = core::QueriesByNumber({23});
  auto results = runner.RunEngine("neo19", data, specs);
  ASSERT_TRUE(results.ok());
  double single = 0, batch = 0;
  uint64_t single_items = 0, batch_items = 0;
  for (const Measurement& m : *results) {
    if (m.query != "Q23") continue;
    if (m.mode == Measurement::Mode::kSingle) {
      single = m.millis;
      single_items = m.items;
    } else {
      batch = m.millis;
      batch_items = m.items;
    }
  }
  // Batch does at least comparable work. Both runs are microseconds at
  // this scale and the single run pays the one-time plan lowering, so
  // allow scheduler-noise slop around the wall-time comparison; the item
  // accumulation below is the deterministic part of the contract.
  EXPECT_GE(batch + 0.25, single * 0.5);
  EXPECT_GE(batch_items, single_items);  // 10 distinct picks accumulated
}

TEST(RunnerTest, PropertyIndexOptionSpeedsUpSearch) {
  datasets::GenOptions gen;
  gen.scale = 0.02;
  GraphData data = datasets::GenerateMiCo(gen);
  RunnerOptions options = FastRunner();
  options.batch_iterations = 0;
  auto specs = core::QueriesByNumber({11});

  Runner plain(options);
  auto unindexed = plain.RunEngine("neo19", data, specs);
  ASSERT_TRUE(unindexed.ok());

  options.create_property_index = true;
  Runner indexed(options);
  auto with_index = indexed.RunEngine("neo19", data, specs);
  ASSERT_TRUE(with_index.ok());

  double t_plain = unindexed->back().millis;
  double t_indexed = with_index->back().millis;
  EXPECT_TRUE(with_index->back().status.ok());
  EXPECT_LT(t_indexed, t_plain) << "index should accelerate Q11";
  // Same result cardinality either way.
  EXPECT_EQ(unindexed->back().items, with_index->back().items);
}

// Runner::RunClients: the closed-loop client mode behind the concurrency
// and robustness scenarios.
TEST(RunClientsTest, ReadOnlyClientsCompleteEveryOp) {
  GraphData data = datasets::GenerateMiCo(TinyScale());
  Runner runner(FastRunner());
  auto loaded = runner.Load("neo19", data);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto reads = core::QueriesByNumber({14, 15, 22, 23, 24});
  auto result = runner.RunClients(*loaded, data, reads, {}, /*threads=*/2,
                                  /*ops_per_thread=*/25, /*write_ratio=*/0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(result->outcomes.Issued(), 50u);
  EXPECT_EQ(result->outcomes.Completed(), 50u);
  EXPECT_EQ(result->read_latency.samples, 50u);
  EXPECT_EQ(result->create_latency.samples + result->update_latency.samples +
                result->delete_latency.samples,
            0u);
  EXPECT_EQ(result->epochs_published, 0u);
  // A point read can take under a microsecond; a clock that keeps
  // nanoseconds still never reads it as zero.
  EXPECT_GT(result->read_latency.min_ms, 0.0);
}

TEST(RunClientsTest, EveryCompletedWritePublishesOneEpoch) {
  GraphData data = datasets::GenerateMiCo(TinyScale());
  Runner runner(FastRunner());
  auto loaded = runner.Load("neo19", data);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto reads = core::QueriesByNumber({14, 22});
  auto writes = core::QueriesByNumber({2, 16, 18});  // one C, U and D each
  auto result = runner.RunClients(*loaded, data, reads, writes,
                                  /*threads=*/1, /*ops_per_thread=*/40,
                                  /*write_ratio=*/0.5);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->status.ok()) << result->status;
  const uint64_t writes_done = result->create_latency.samples +
                               result->update_latency.samples +
                               result->delete_latency.samples;
  EXPECT_GT(result->create_latency.samples, 0u);
  EXPECT_GT(result->update_latency.samples, 0u);
  EXPECT_GT(result->delete_latency.samples, 0u);
  EXPECT_GT(result->read_latency.samples, 0u);
  EXPECT_EQ(result->outcomes.Issued(), 40u);
  EXPECT_EQ(result->outcomes.Completed(),
            result->read_latency.samples + writes_done);
  EXPECT_EQ(result->epochs_published, writes_done);
  EXPECT_EQ(result->wal_commits, writes_done);

  // The runner's own session was recycled around the run: it is live
  // again, on the snapshot the last commit published, and runs queries.
  ASSERT_NE(loaded->session, nullptr);
  EXPECT_EQ(loaded->session->epoch(), loaded->engine->epochs().current());
  std::vector<Measurement> after = runner.RunQuery(*loaded, data, *reads[0]);
  ASSERT_FALSE(after.empty());
  EXPECT_TRUE(after[0].ok()) << after[0].status;
}

TEST(RunClientsTest, SpentDeadlineStopsEachClientAfterOneTimeout) {
  GraphData data = datasets::GenerateMiCo(TinyScale());
  RunnerOptions options = FastRunner();
  options.deadline = std::chrono::milliseconds(0);
  Runner runner(options);
  auto loaded = runner.Load("neo19", data);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto reads = core::QueriesByNumber({14});
  auto result = runner.RunClients(*loaded, data, reads, {}, /*threads=*/3,
                                  /*ops_per_thread=*/10, /*write_ratio=*/0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->status.IsDeadlineExceeded()) << result->status;
  EXPECT_EQ(result->outcomes.timeout, 3u);
  EXPECT_EQ(result->outcomes.Issued(), 3u);
  EXPECT_EQ(result->read_latency.samples, 0u);
}

TEST(RunClientsTest, RejectsSpecsInTheWrongList) {
  GraphData data = datasets::GenerateMiCo(TinyScale());
  Runner runner(FastRunner());
  auto loaded = runner.Load("neo19", data);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto reads = core::QueriesByNumber({14});
  auto writes = core::QueriesByNumber({2});
  auto code = [&](const auto& r, const auto& w, double ratio) {
    return runner.RunClients(*loaded, data, r, w, 1, 1, ratio).status().code();
  };
  EXPECT_EQ(code(writes, reads, 0), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(reads, reads, 0.5), StatusCode::kInvalidArgument);
  // Writes in the mix need a write spec to draw from.
  EXPECT_EQ(code(reads, std::vector<const core::QuerySpec*>{}, 0.5),
            StatusCode::kInvalidArgument);
}

TEST(SpaceTest, LoadedEngineReportsCheckpointBytes) {
  GraphData data = datasets::GenerateYeast(TinyScale());
  Runner runner(FastRunner());
  auto loaded = runner.Load("neo19", data);
  ASSERT_TRUE(loaded.ok());
  EXPECT_GT(loaded->engine->CheckpointBytes(), 1000u);
}

TEST(ComplexTest, CatalogHasThirteenQueries) {
  const auto& catalog = ComplexQueryCatalog();
  ASSERT_EQ(catalog.size(), 13u);
  std::vector<std::string> expected = {
      "max-iid",  "max-oid",  "create",   "city",
      "company",  "university", "friend1", "friend2",
      "friend-tags", "add-tags", "friend-of-friend", "triangle", "places"};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(catalog[i].name, expected[i]);
  }
}

// The complex catalog runs as gdbmicro_suite fig2_complex runs it: through
// Runner::RunQuery in catalog order on one loaded engine, single mode.
RunnerOptions ComplexRunner() {
  RunnerOptions options = FastRunner();
  options.deadline = std::chrono::seconds(30);
  options.batch_iterations = 0;
  return options;
}

TEST(ComplexTest, AllComplexQueriesRunOnLdbc) {
  GraphData data = datasets::GenerateLdbc(TinyScale());
  Runner runner(ComplexRunner());
  for (const char* engine : {"neo19", "sqlg", "sparksee"}) {
    auto loaded = runner.Load(engine, data);
    ASSERT_TRUE(loaded.ok()) << engine;
    for (const core::QuerySpec& spec : ComplexQueryCatalog()) {
      std::vector<Measurement> runs = runner.RunQuery(*loaded, data, spec);
      ASSERT_EQ(runs.size(), 1u) << engine << " " << spec.name;
      EXPECT_TRUE(runs[0].ok())
          << engine << " " << spec.name << ": " << runs[0].status;
    }
  }
}

TEST(ComplexTest, ResultsAgreeAcrossEngines) {
  GraphData data = datasets::GenerateLdbc(TinyScale());
  Runner runner(ComplexRunner());
  std::map<std::string, uint64_t> reference;  // query -> items from neo19
  for (const char* engine : {"neo19", "sqlg", "titan10", "blaze"}) {
    auto loaded = runner.Load(engine, data);
    ASSERT_TRUE(loaded.ok()) << engine;
    for (const core::QuerySpec& spec : ComplexQueryCatalog()) {
      std::vector<Measurement> runs = runner.RunQuery(*loaded, data, spec);
      ASSERT_EQ(runs.size(), 1u) << engine << " " << spec.name;
      ASSERT_TRUE(runs[0].ok())
          << engine << " " << spec.name << ": " << runs[0].status;
      if (spec.mutates) continue;  // read-only queries must agree exactly
      auto [it, inserted] = reference.emplace(spec.name, runs[0].items);
      if (!inserted) {
        EXPECT_EQ(runs[0].items, it->second) << engine << " " << spec.name;
      }
    }
  }
}

// Fig. 2's creating queries write through QueryContext::Commit, as every
// Table 2 write does, so a path index built over the loaded graph is
// dropped and a path search from any neighbour of the new person finds it.
TEST(ComplexTest, CreatesDropThePathIndex) {
  datasets::GenOptions gen;
  gen.scale = 0.005;
  GraphData data = datasets::GenerateLdbc(gen);
  Runner runner(ComplexRunner());
  auto spec_named = [](const std::string& name) -> const core::QuerySpec* {
    for (const core::QuerySpec& spec : ComplexQueryCatalog()) {
      if (spec.name == name) return &spec;
    }
    return nullptr;
  };
  const core::QuerySpec* create = spec_named("create");
  const core::QuerySpec* add_tags = spec_named("add-tags");
  ASSERT_NE(create, nullptr);
  ASSERT_NE(add_tags, nullptr);
  CancelToken never;
  for (const char* engine : {"arango", "blaze", "neo19", "neo30", "orient",
                             "sparksee", "sqlg", "titan05", "titan10"}) {
    SCOPED_TRACE(engine);
    auto loaded = runner.Load(engine, data);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    GraphEngine& g = *loaded->engine;
    ASSERT_TRUE(g.BuildPathIndex(never).ok());
    std::vector<Measurement> runs = runner.RunQuery(*loaded, data, *create);
    ASSERT_EQ(runs.size(), 1u);
    ASSERT_TRUE(runs[0].ok()) << runs[0].status;
    EXPECT_EQ(runs[0].items, 7u);
    EXPECT_EQ(g.path_index(), nullptr);

    std::unique_ptr<QuerySession> session = g.CreateSession();
    auto person = g.FindVerticesByProperty(*session, "firstName",
                                           PropertyValue("newuser0"), never);
    ASSERT_TRUE(person.ok()) << person.status();
    ASSERT_EQ(person->size(), 1u);
    const VertexId added = person->front();
    auto neighbours =
        g.NeighborsOf(*session, added, Direction::kBoth, nullptr, never);
    ASSERT_TRUE(neighbours.ok()) << neighbours.status();
    EXPECT_EQ(neighbours->size(), 6u);
    for (VertexId n : *neighbours) {
      auto bfs = query::BreadthFirst(g, *session, n, 1, std::nullopt, never,
                                     query::PathMode::kAuto);
      ASSERT_TRUE(bfs.ok()) << bfs.status();
      EXPECT_EQ(std::count(bfs->visited.begin(), bfs->visited.end(), added),
                1)
          << "from " << n;
    }

    // add-tags drops a rebuilt index too.
    ASSERT_TRUE(g.BuildPathIndex(never).ok());
    runs = runner.RunQuery(*loaded, data, *add_tags);
    ASSERT_EQ(runs.size(), 1u);
    ASSERT_TRUE(runs[0].ok()) << runs[0].status;
    EXPECT_EQ(runs[0].items, 2u);
    EXPECT_EQ(g.path_index(), nullptr);
  }
}

TEST(ReportTest, FormatCellClasses) {
  Measurement m;
  m.millis = 12.5;
  EXPECT_EQ(core::FormatCell(m), "12.50 ms");
  m.status = Status::DeadlineExceeded("x");
  EXPECT_EQ(core::FormatCell(m), "timeout");
  m.status = Status::ResourceExhausted("x");
  EXPECT_EQ(core::FormatCell(m), "oom");
  m.status = Status::Internal("x");
  EXPECT_EQ(core::FormatCell(m), "err");
}

std::vector<Measurement> FakeResults() {
  std::vector<Measurement> results;
  auto add = [&](const char* engine, const char* query, Status status,
                 double ms) {
    Measurement m;
    m.engine = engine;
    m.dataset = "frb-s";
    m.query = query;
    m.status = status;
    m.millis = ms;
    m.mode = Measurement::Mode::kSingle;
    results.push_back(m);
  };
  add("neo19", "Q8", Status::OK(), 1.0);
  add("neo19", "Q9", Status::OK(), 2.0);
  add("blaze", "Q8", Status::OK(), 100.0);
  add("blaze", "Q9", Status::DeadlineExceeded("t"), 5000.0);
  return results;
}

TEST(ReportTest, PivotTableLaysOutCells) {
  core::PivotOptions options;
  options.dataset = "frb-s";
  options.mode = Measurement::Mode::kSingle;
  options.engine_order = {"neo19", "blaze"};
  std::string table = core::PivotTable(FakeResults(), options);
  EXPECT_NE(table.find("Q8"), std::string::npos);
  EXPECT_NE(table.find("timeout"), std::string::npos);
  EXPECT_NE(table.find("neo19"), std::string::npos);
}

TEST(ReportTest, CountFailuresAndCumulative) {
  auto failures =
      core::CountFailures(FakeResults(), Measurement::Mode::kSingle);
  EXPECT_EQ(failures["neo19"], 0u);
  EXPECT_EQ(failures["blaze"], 1u);

  auto totals = core::CumulativeMillis(FakeResults(), "frb-s",
                                       Measurement::Mode::kSingle, 7000.0);
  EXPECT_DOUBLE_EQ(totals["neo19"], 3.0);
  EXPECT_DOUBLE_EQ(totals["blaze"], 100.0 + 7000.0);  // timeout charged
}

TEST(ReportTest, Table4SymbolsReflectPerformance) {
  auto table = core::SummarizeTable4(FakeResults());
  // neo19 is near-best on GraphStatistics; blaze failed a test there.
  EXPECT_EQ(table["neo19"]["GraphStatistics"], core::SummarySymbol::kGood);
  EXPECT_EQ(table["blaze"]["GraphStatistics"], core::SummarySymbol::kWarn);
  std::string rendered =
      core::FormatTable4(table, {"neo19", "blaze"});
  EXPECT_NE(rendered.find("neo19"), std::string::npos);
  EXPECT_NE(rendered.find("GraphStatistics"), std::string::npos);
}

TEST(ReportTest, CsvExport) {
  TempFile file("gdbmicro_results.csv");
  ASSERT_TRUE(core::WriteCsv(FakeResults(), file.path()).ok());
  std::ifstream in(file.path());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "engine,dataset,query,category,mode,status,millis,items,"
            "lat_samples,lat_min_ms,lat_p50_ms,lat_p95_ms,lat_p99_ms,"
            "lat_max_ms");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 4);
}

}  // namespace
}  // namespace gdbmicro
