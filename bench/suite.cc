// gdbmicro_suite: the paper's evaluation driver (§5's test suite).
// `gdbmicro_suite <report> [flags]` prints one of the paper's figures or
// tables, or, as `run`, any Table 2 queries on any engines and dataset, a
// GraphSON file included. Run it without arguments for the reports and the
// flags each one reads. A report is one row of kReports: its panels
// (datasets x queries), run through core::Runner, and the summary that
// prints them with the src/core/report functions. Exit status: 2 for a
// usage error, before any work; 1 when --json or --csv cannot be written.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/complex.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/datasets/generators.h"
#include "src/datasets/metrics.h"
#include "src/graph/registry.h"
#include "src/gson/graphson.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {
namespace {

using core::Measurement;
using Mode = Measurement::Mode;

/// Every gdbmicro_suite flag: the runner's options and what they run on. A
/// report accepts only the flags its row in kReports lists.
struct SuiteFlags : core::RunnerOptions {
  double scale = 0.02;                // --scale=f
  int deadline_ms = 10000;            // --deadline-ms=n, per test
  std::vector<std::string> engines;   // --engines=a,b,c, else all
  std::vector<std::string> datasets;  // --datasets=a,b,c
  std::vector<int> queries;           // --queries=2,5,8-15
  std::string json_path;              // --json=path
  std::string csv_path;               // --csv=path
  std::string graphson_path;          // --graphson=path
};

/// "2,5,8-15": Table 2 numbers and ascending ranges of them. Both ends of
/// a range must be in the catalog, which numbers its queries without gaps.
bool ParseQueries(const std::string& text, std::vector<int>* out) {
  out->clear();
  for (const std::string& entry : Split(text, ',')) {
    size_t dash = entry.find('-');
    int lo = 0, hi = 0;
    if (!ParsePositiveInt(entry.substr(0, dash), &lo) ||
        !ParsePositiveInt(dash == entry.npos ? entry : entry.substr(dash + 1),
                          &hi) ||
        lo > hi || core::QueriesByNumber({lo}).empty() ||
        core::QueriesByNumber({hi}).empty()) {
      return false;
    }
    for (int q = lo; q <= hi; ++q) out->push_back(q);
  }
  return true;
}

/// An integer in [0, INT_MAX].
bool ParseCount(const std::string& text, int* out) {
  *out = 0;
  return text == "0" || ParsePositiveInt(text, out);
}

using F = SuiteFlags;
const Flag<F> kFlags[] = {
    {"scale", "a number > 0", Set<&F::scale, ParsePositiveDouble>},
    {"deadline-ms", "an integer >= 1", Set<&F::deadline_ms, ParsePositiveInt>},
    {"batch", "an integer >= 0", Set<&F::batch_iterations, ParseCount>},
    {"engines", "registered engine names",
     Set<&F::engines, ParseListOf<std::string, ParseEngineName>>},
    {"datasets", "dataset names",
     Set<&F::datasets, ParseListOf<std::string, ParseDatasetName>>},
    {"queries", "Table 2 numbers and ranges, as in 2,5,8-15",
     Set<&F::queries, ParseQueries>},
    {"seed", "an unsigned integer", Set<&F::workload_seed, ParseUint64>},
    {"memory-budget", "a byte count (0 = unlimited)",
     Set<&F::memory_budget_bytes, ParseUint64>},
    {"no-cost-model", nullptr, Set<&F::enable_cost_model, Switch<false>>},
    {"indexed", nullptr, Set<&F::create_property_index, Switch<true>>},
    {"stats", "on or off", Set<&F::collect_statistics, ParseOnOff>},
    {"json", "a path", Set<&F::json_path, ParsePath>},
    {"csv", "a path", Set<&F::csv_path, ParsePath>},
    {"graphson", "a path", Set<&F::graphson_path, ParsePath>},
};

/// One section of a report: queries run on each of its datasets.
struct Panel {
  std::vector<std::string> datasets;  // --datasets replaces them
  std::vector<int> queries;  // Table 2 numbers; empty = the whole catalog,
                             // --queries replaces them
  bool pinned = false;       // --datasets leaves its datasets alone
  bool complex = false;      // the Fig. 2 catalog instead of Table 2
};

struct ReportRun;

struct Report {
  const char* name;
  const char* flags;                  // the flags it reads, space-separated
  std::vector<std::string> defaults;  // parsed before the command line
  const char* title;
  const char* note;  // the shape the paper reports, printed last
  std::vector<Panel> panels;
  void (*summarize)(ReportRun& run);  // runs the panels, prints the summary
  const Report* indexed = nullptr;  // what --indexed prints instead
};

/// The Q1 row of an engine that failed to load.
Measurement LoadFailure(const std::string& engine, const GraphData& data,
                        Status status) {
  return {.engine = engine, .dataset = data.name, .query = "Q1",
          .category = core::Category::kLoad, .status = std::move(status),
          .latency = {}, .outcomes = {}};
}

/// One run of a report: the flags, the runner they configure, and every
/// measurement taken, for --csv and --json.
struct ReportRun {
  const Report& report;
  const SuiteFlags& flags;
  core::Runner runner;
  std::optional<GraphData> graphson;  // run --graphson: the only dataset
  std::vector<Measurement> rows;
  Json::Array load_rows;  // fig3_load's --json rows, in place of `rows`

  /// Calls each(panel, data) for every dataset of every panel.
  template <typename Fn>
  void ForEachDataset(Fn each) {
    for (const Panel& panel : report.panels) {
      if (graphson) {
        each(panel, *graphson);
        continue;
      }
      for (const std::string& name : panel.pinned || flags.datasets.empty()
                                         ? panel.datasets
                                         : flags.datasets) {
        each(panel, GetDataset(name, flags.scale));
      }
    }
  }

  /// Runs the panel's queries on `data` on every engine; returns the rows.
  std::vector<Measurement> Run(const Panel& panel, const GraphData& data) {
    std::vector<Measurement> out;
    if (panel.complex) {
      // The complex queries simulate one user session: catalog order, one
      // loaded instance per engine (see ComplexQueryCatalog).
      for (const std::string& engine : flags.engines) {
        auto loaded = runner.Load(engine, data);
        out.push_back(loaded.ok() ? loaded->load_measurement
                                  : LoadFailure(engine, data, loaded.status()));
        if (!loaded.ok()) continue;
        for (const core::QuerySpec& spec : core::ComplexQueryCatalog()) {
          std::vector<Measurement> runs = runner.RunQuery(*loaded, data, spec);
          out.insert(out.end(), runs.begin(), runs.end());
        }
      }
    } else {
      const std::vector<int>& numbers =
          flags.queries.empty() ? panel.queries : flags.queries;
      std::vector<const core::QuerySpec*> specs =
          core::QueriesByNumber(numbers);
      if (numbers.empty()) {
        for (const core::QuerySpec& spec : core::QueryCatalog()) {
          specs.push_back(&spec);
        }
      }
      out = runner.RunAll(flags.engines, data, specs);
    }
    rows.insert(rows.end(), out.begin(), out.end());
    return out;
  }
};

/// The --json results: one row per measurement.
Json MeasurementsJson(const std::vector<Measurement>& rows) {
  Json::Array out;
  for (const Measurement& m : rows) {
    Json::Object row{
        {"engine", Json(m.engine)},
        {"dataset", Json(m.dataset)},
        {"query", Json(m.query)},
        {"mode", Json(m.mode == Mode::kBatch ? "batch" : "single")},
        {"ok", Json(m.ok())},
        {"millis", Json(m.millis)},
        {"items", Json(m.items)},
    };
    if (!m.ok()) row.emplace_back("status", Json(m.status.ToString()));
    if (m.latency.samples > 0) {
      row.emplace_back("latency_ms",
                       Json(Json::Object{
                           {"samples", Json(m.latency.samples)},
                           {"min", Json(m.latency.min_ms)},
                           {"p50", Json(m.latency.p50_ms)},
                           {"p95", Json(m.latency.p95_ms)},
                           {"p99", Json(m.latency.p99_ms)},
                           {"max", Json(m.latency.max_ms)},
                       }));
    }
    if (m.outcomes.Issued() > 0) {
      row.emplace_back("outcomes",
                       Json(Json::Object{
                           {"ok", Json(m.outcomes.ok)},
                           {"retried", Json(m.outcomes.retried)},
                           {"timeout", Json(m.outcomes.timeout)},
                           {"oom", Json(m.outcomes.oom)},
                           {"failed", Json(m.outcomes.failed)},
                       }));
    }
    out.push_back(Json(std::move(row)));
  }
  return Json(std::move(out));
}

/// Queries x engines, per dataset: the single-mode pivot, then, when
/// --batch > 0, the batch pivot and the per-iteration latency behind each
/// batch cell (the aggregate wall time hides stragglers; p95/p99 do not).
void PrintPivots(ReportRun& run) {
  run.ForEachDataset([&run](const Panel& panel, const GraphData& data) {
    std::printf("%s-- %s (%llu nodes / %llu edges) --\n",
                run.rows.empty() ? "" : "\n", data.name.c_str(),
                (unsigned long long)data.VertexCount(),
                (unsigned long long)data.EdgeCount());
    std::fflush(stdout);
    std::vector<Measurement> rows = run.Run(panel, data);
    core::PivotOptions pivot{.dataset = data.name,
                             .mode = Mode::kSingle,
                             .engine_order = run.flags.engines};
    std::printf("%s", core::PivotTable(rows, pivot).c_str());
    if (run.flags.batch_iterations == 0) return;
    pivot.mode = Mode::kBatch;
    std::printf("\nbatch execution (%d iterations):\n%s",
                run.flags.batch_iterations,
                core::PivotTable(rows, pivot).c_str());
    std::printf("\nbatch per-iteration latency:\n");
    for (const Measurement& m : rows) {
      if (m.mode == Mode::kBatch && m.latency.samples >= 2) {
        std::printf("  %-9s %-10s %s\n", m.engine.c_str(), m.query.c_str(),
                    core::FormatLatency(m.latency).c_str());
      }
    }
  });
}

/// Fig. 1(c): failed tests per engine and mode, then the same bars split
/// by governor class (the paper reports them as one "failed" bar; the
/// governor tells deadline from memory trips). Both are cumulative and
/// printed after every dataset, so that a partial run still reports.
void PrintFailures(ReportRun& run) {
  const std::vector<std::string>& engines = run.flags.engines;
  run.ForEachDataset([&](const Panel& panel, const GraphData& data) {
    const char* name = data.name.c_str();
    std::printf("running %s (%llu nodes / %llu edges)...\n", name,
                (unsigned long long)data.VertexCount(),
                (unsigned long long)data.EdgeCount());
    std::fflush(stdout);
    run.Run(panel, data);
    auto interactive = core::CountFailures(run.rows, Mode::kSingle);
    auto batch = core::CountFailures(run.rows, Mode::kBatch);
    std::printf("\ncumulative failures through %s:\n%-9s %12s %12s\n", name,
                "engine", "interactive", "batch");
    for (const std::string& engine : engines) {
      std::printf("%-9s %12llu %12llu\n", engine.c_str(),
                  (unsigned long long)interactive[engine],
                  (unsigned long long)batch[engine]);
    }
    auto single_dnf = core::CountOutcomes(run.rows, Mode::kSingle);
    auto batch_dnf = core::CountOutcomes(run.rows, Mode::kBatch);
    std::printf("\ngovernor DNF classes through %s (I=interactive B=batch):\n",
                name);
    std::printf("%-9s %10s %10s %10s %10s %10s %10s\n", "engine", "I-timeout",
                "I-oom", "I-err", "B-timeout", "B-oom", "B-err");
    for (const std::string& engine : engines) {
      const core::OutcomeCounters& s = single_dnf[engine];
      const core::OutcomeCounters& b = batch_dnf[engine];
      std::printf("%-9s %10llu %10llu %10llu %10llu %10llu %10llu\n",
                  engine.c_str(), (unsigned long long)s.timeout,
                  (unsigned long long)s.oom, (unsigned long long)s.failed,
                  (unsigned long long)b.timeout, (unsigned long long)b.oom,
                  (unsigned long long)b.failed);
    }
  });
}

/// Runs every dataset, printing only its name; returns the names.
std::vector<std::string> RunDatasets(ReportRun& run) {
  std::vector<std::string> names;
  run.ForEachDataset([&run, &names](const Panel& panel,
                                    const GraphData& data) {
    std::printf("running %s...\n", data.name.c_str());
    std::fflush(stdout);
    run.Run(panel, data);
    names.push_back(data.name);
  });
  return names;
}

/// Fig. 7(c,d): cumulative time per engine and dataset, failed tests
/// charged the deadline as in the paper's totals.
void PrintCumulative(ReportRun& run) {
  std::vector<std::string> names = RunDatasets(run);
  const std::vector<std::string>& engines = run.flags.engines;
  for (auto mode : {Mode::kSingle, Mode::kBatch}) {
    std::printf("\n%s cumulative time (failures charged the deadline):\n",
                mode == Mode::kSingle ? "Single" : "Batch");
    std::printf("%-7s", "dataset");
    for (const auto& e : engines) std::printf(" %10s", e.c_str());
    std::printf("\n");
    for (const std::string& name : names) {
      auto totals = core::CumulativeMillis(run.rows, name, mode,
                                           run.flags.deadline_ms);
      std::printf("%-7s", name.c_str());
      for (const auto& e : engines) {
        std::printf(" %10s", HumanMillis(totals[e]).c_str());
      }
      std::printf("\n");
    }
  }
}

void PrintTable4(ReportRun& run) {
  RunDatasets(run);
  auto table = core::SummarizeTable4(run.rows);
  std::printf("\n%s", core::FormatTable4(table, run.flags.engines).c_str());
}

/// Fig. 1(a,b): each engine bulk loads the dataset and counts the bytes of
/// its checkpoint image (GraphEngine::CheckpointBytes), against the size of
/// the dataset's GraphSON text (WriteGraphSON).
void PrintSpace(ReportRun& run) {
  const std::vector<std::string>& engines = run.flags.engines;
  std::printf("%-7s %12s", "dataset", "raw-json");
  for (const auto& e : engines) std::printf(" %12s", e.c_str());
  std::printf("\n");
  run.ForEachDataset([&](const Panel&, const GraphData& data) {
    std::printf("%-7s %12s", data.name.c_str(),
                HumanBytes(WriteGraphSON(data).size()).c_str());
    std::fflush(stdout);
    for (const std::string& engine : engines) {
      auto loaded = run.runner.Load(engine, data);
      if (!loaded.ok()) {
        std::printf(" %12s", "load-err");
        continue;
      }
      std::printf(" %12s",
                  HumanBytes(loaded->engine->CheckpointBytes()).c_str());
      std::fflush(stdout);
    }
    std::printf("\n");
  });
}

/// Fig. 3(a): Q1 per engine. A load failure prints its status to stderr (a
/// silent "err" cell is useless when a loader regresses). The --json rows
/// carry the loader's own statistics.
void PrintLoad(ReportRun& run) {
  const std::vector<std::string>& engines = run.flags.engines;
  std::printf("%-7s", "dataset");
  for (const auto& e : engines) std::printf(" %10s", e.c_str());
  std::printf("\n");
  run.ForEachDataset([&](const Panel&, const GraphData& data) {
    std::printf("%-7s", data.name.c_str());
    std::fflush(stdout);
    for (const std::string& engine : engines) {
      auto loaded = run.runner.Load(engine, data);
      run.rows.push_back(loaded.ok() ? loaded->load_measurement
                                     : LoadFailure(engine, data,
                                                   loaded.status()));
      std::printf(" %10s", core::FormatCell(run.rows.back()).c_str());
      std::fflush(stdout);
      Json::Object row;
      row.emplace_back("dataset", Json(data.name));
      row.emplace_back("engine", Json(engine));
      row.emplace_back("ok", Json(loaded.ok()));
      if (loaded.ok()) {
        const BulkLoadStats& stats = loaded->engine->load_stats();
        row.emplace_back("millis", Json(loaded->load_measurement.millis));
        row.emplace_back("elements", Json(stats.Elements()));
        row.emplace_back("elements_per_sec", Json(stats.ElementsPerSec()));
        row.emplace_back("index_build_millis",
                         Json(stats.index_build_millis));
        row.emplace_back("bytes", Json(stats.bytes));
      } else {
        std::fprintf(stderr, "%s/%s load failed: %s\n", engine.c_str(),
                     data.name.c_str(), loaded.status().ToString().c_str());
        row.emplace_back("status", Json(loaded.status().ToString()));
      }
      run.load_rows.push_back(Json(std::move(row)));
    }
    std::printf("\n");
  });
}

/// Table 1: each engine's EngineInfo row. The query-execution column has
/// two faces: the typed contract the planner consumes and the paper's
/// human-readable cell.
void PrintFeatures(ReportRun& run) {
  std::printf("%-9s %-12s %-20s %-48s %-28s %-10s %-32s %s\n", "engine",
              "emulates", "type", "storage", "edge traversal", "contract",
              "query execution", "attr-index");
  for (const std::string& name : run.flags.engines) {
    auto engine = OpenEngine(name, EngineOptions{});
    if (!engine.ok()) {
      std::printf("%-9s <unavailable: %s>\n", name.c_str(),
                  engine.status().ToString().c_str());
      continue;
    }
    EngineInfo info = (*engine)->info();
    std::printf("%-9s %-12s %-20s %-48s %-28s %-10s %-32s %s\n",
                info.name.c_str(), info.emulates.c_str(), info.type.c_str(),
                info.storage.c_str(), info.edge_traversal.c_str(),
                std::string(QueryExecutionToString(info.query_execution))
                    .c_str(),
                info.query_execution_display.c_str(),
                info.supports_property_index ? "yes" : "no/ineffective");
  }
}

/// Table 3: datasets::ComputeStats of each dataset.
void PrintDatasetStats(ReportRun& run) {
  run.ForEachDataset([](const Panel&, const GraphData& data) {
    datasets::MetricsOptions options;
    options.diameter_samples = 4;
    datasets::GraphStats stats = datasets::ComputeStats(data, options);
    std::printf("%s\n", datasets::FormatStatsRow(stats).c_str());
  });
}

// The flags of the reports that run Table 2 queries.
const char kQueryFlags[] =
    "scale deadline-ms batch engines datasets seed memory-budget "
    "no-cost-model indexed stats json csv";

const std::vector<std::string> kFreebase = {"frb-s", "frb-o", "frb-m", "frb-l"};

const Report kFig4Indexed = {
    "fig4_select", kQueryFlags, {},
    "Figure 4(c): Q11 with a user attribute index",
    "(paper shape: 2-5 orders of magnitude for neo19/orient/titan;\n"
    " ~600x for sqlg; no effect for sparksee/neo30/arango; blaze has no\n"
    " user indexes)",
    {{kFreebase, {11}}}, PrintPivots};

// The failure boundaries of Fig. 1(c) and Fig. 5(b) scale with the
// dataset, so those reports set a memory budget matched to their scale.
const Report kReports[] = {
    // Fig. 1 prints only byte counts, which the cost model's emulated
    // charges cannot change: its loads run without them.
    {"fig1_space", "scale engines datasets no-cost-model",
     {"--scale=0.01", "--no-cost-model"},
     "Figure 1(a,b): Space occupancy",
     "(paper shape: titan smallest on frb via delta encoding; orient &\n"
     " sparksee smallest on ldbc via value dedup; orient penalized on\n"
     " frb-s by per-label clusters; blaze ~3x everyone, journal+3 indexes)",
     {{{"frb-o", "frb-m", "frb-l", "frb-s", "ldbc", "mico"}, {}}}, PrintSpace},
    {"fig1_timeouts", kQueryFlags,
     {"--scale=0.02", "--deadline-ms=2000", "--memory-budget=8388608"},
     "Figure 1(c): Time-outs for Interactive (I) and Batch (B) modes",
     "(paper shape: neo4j completes everything; orient few failures on\n"
     " frb-l; blaze the most failures; sparksee fails Q28-31 on every frb\n"
     " sample by memory exhaustion; arango fails scans/degree on m+l;\n"
     " sqlg fails unrestricted traversals except Q31)",
     {{kFreebase, {}}}, PrintFailures},
    // Each complex query runs once unless --batch asks for more.
    {"fig2_complex",
     "scale deadline-ms batch engines seed memory-budget no-cost-model stats "
     "json csv",
     {"--scale=0.03", "--deadline-ms=6000", "--batch=0"},
     "Figure 2: Complex Query Performance on ldbc",
     "(paper shape: sqlg fastest on ~half the queries (short\n"
     " label-restricted joins) but slow on unrestricted multi-hop; arango\n"
     " and titan05 slowest overall; blaze times out)",
     {{{"ldbc"}, {}, false, true}}, PrintPivots},
    {"fig3_load", "scale engines datasets no-cost-model stats json csv",
     {"--scale=0.01"}, "Figure 3(a): Loading time",
     "(paper shape: arango & neo4j fastest; orient & sqlg sensitive to\n"
     " edge-label cardinality; blaze orders of magnitude slower — it\n"
     " rebalances three statement indexes per insertion)",
     {{{"frb-o", "frb-m", "frb-l"}, {}}}, PrintLoad},
    {"fig3_cud", kQueryFlags, {"--scale=0.01", "--deadline-ms=2500"},
     "Figure 3(b,c): Insertions (Q2-7), updates and deletions (Q16-21)",
     "(paper shape: sparksee/neo19/arango fastest (sub-100ms class, with\n"
     " arango's async-write caveat); neo30 >10x neo19 (wrapper); sqlg fast\n"
     " on plain inserts, slow when the schema grows (Q5/Q6); titan seconds\n"
     " per op but deletions an order cheaper (tombstones); blaze slowest)",
     {{kFreebase, {2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21}}}, PrintPivots},
    {"fig4_select", kQueryFlags,
     {"--scale=0.01", "--deadline-ms=2500"},
     "Figure 4(a,b): selections (Q8-13) and search by id (Q14-15)",
     "(paper shape: id lookups far faster than everything else for all\n"
     " engines; sparksee best at counts; sqlg an order faster on\n"
     " property/label equality search; arango cannot finish edge scans;\n"
     " blaze slowest throughout)",
     {{kFreebase, {8, 9, 10, 11, 12, 13, 14, 15}}}, PrintPivots,
     &kFig4Indexed},
    // Where the paper separates native from hybrid architectures, and
    // where Sparksee's Gremlin adapter exhausts memory.
    {"fig5_traversal", kQueryFlags,
     {"--scale=0.02", "--deadline-ms=2000", "--memory-budget=8388608"},
     "Figure 5: local traversals (Q22-27) and degree filters (Q28-31)",
     "(paper shape: orient/neo19/arango fastest on neighborhoods, sqlg\n"
     " slowest unless label-filtered; on Q28-31 only the neo variants\n"
     " complete everywhere, sparksee exhausts memory on every frb sample,\n"
     " arango fails m+l, sqlg completes only Q31, blaze fails everything)",
     {{kFreebase, {22, 23, 24, 25, 26, 27, 28, 29, 30, 31}}}, PrintPivots},
    {"fig6_bfs", kQueryFlags, {"--scale=0.01", "--deadline-ms=2500"},
     "Figure 6: breadth-first traversal, depths 2-5 (Q32)",
     "(paper shape: neo4j scales best at every depth; orient and titan\n"
     " second at depth 2, orient slightly ahead deeper; sqlg and sparksee\n"
     " slowest — sqlg pays a join union across every edge table per hop)",
     {{kFreebase, {32}}}, PrintPivots},
    // The label filter empties out almost immediately on Freebase (paper
    // §6.4), so the constrained variants run on ldbc, as the paper does.
    {"fig7_sp", kQueryFlags, {"--scale=0.01", "--deadline-ms=2500"},
     "Figure 7(a): shortest path (Q34) on Freebase; (b): label-constrained "
     "BFS (Q33, depths 2-5) and SP (Q35) on ldbc",
     "(paper shape: neo4j fastest; sparksee on par with orient for the\n"
     " label-filtered BFS; titan10 second on the label-filtered SP; sqlg\n"
     " slowest on unconstrained SP — it joins across all edge tables)",
     {{kFreebase, {34}}, {{"ldbc"}, {33, 35}, true}}, PrintPivots},
    {"fig7_overall", kQueryFlags,
     {"--scale=0.01", "--deadline-ms=1500", "--memory-budget=4194304"},
     "Figure 7(c,d): overall cumulative time, single and batch",
     "(paper shape: neo4j shortest total time in both modes; batch does\n"
     " not change the ranking — reads cost ~10x one iteration, CUD less,\n"
     " because single mode carries per-operation setup)",
     {{kFreebase, {}}}, PrintCumulative},
    {"table1_features", "engines", {},
     "Table 1: Features and Characteristics of the tested systems", nullptr,
     {}, PrintFeatures},
    {"table3_datasets", "scale datasets", {"--scale=0.01"},
     "Table 3: Dataset Characteristics",
     "(paper Table 3 regimes to compare: yeast/ldbc dense, frb sparse &\n"
     " fragmented with high modularity; ldbc one component, modularity 0;\n"
     " frb max-degree hubs orders above the average)",
     {{datasets::AllDatasetNames(), {}}}, PrintDatasetStats},
    {"table4_summary", kQueryFlags,
     {"--scale=0.01", "--deadline-ms=1500", "--memory-budget=4194304"},
     "Table 4: Evaluation Summary",
     "(paper Table 4 to compare: neo19 good nearly everywhere; blaze\n"
     " warnings everywhere; sparksee best CUD but warned on degree\n"
     " filters; sqlg good on search, warned on traversals; titan mid)",
     {{{"frb-s", "frb-o", "frb-m"}, {}}}, PrintTable4},
    // Any Table 2 queries on any dataset: a generated one, or a GraphSON
    // file, so that adding a dataset is dropping in a file.
    {"run",
     "scale deadline-ms batch engines datasets queries seed no-cost-model "
     "indexed json csv graphson",
     {"--scale=0.02"}, "Table 2 queries", nullptr, {{{"ldbc"}, {}}},
     PrintPivots},
};

const Driver<Report, SuiteFlags> kDriver{"gdbmicro_suite", "report",
                                         kReports, kFlags};

void PrintBanner(const Report& report, const SuiteFlags& flags) {
  std::printf("== %s ==\n", report.title);
  if (Reads(report.flags, "deadline-ms")) {
    std::printf("   scale=%.3f (paper sizes x %.2f)  deadline=%dms  batch=%d  "
                "cost-model=%s%s\n",
                flags.scale, flags.scale * 20.0, flags.deadline_ms,
                flags.batch_iterations,
                flags.enable_cost_model ? "on" : "off",
                flags.create_property_index ? "  indexed" : "");
  } else if (Reads(report.flags, "scale")) {
    std::printf("   scale=%.3f (paper sizes x %.2f)\n", flags.scale,
                flags.scale * 20.0);
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  RegisterBuiltinEngines();
  SuiteFlags flags;
  const Report* report = kDriver.Parse(argc, argv, &flags);
  if (report == nullptr) return 2;
  if (!flags.graphson_path.empty() && !flags.datasets.empty()) {
    return kDriver.Usage("--graphson and --datasets exclude each other");
  }
  if (flags.create_property_index && report->indexed) report = report->indexed;
  if (flags.engines.empty()) flags.engines = EngineRegistry::Instance().Names();

  flags.deadline = std::chrono::milliseconds(flags.deadline_ms);
  ReportRun run{*report, flags, core::Runner(flags), std::nullopt, {}, {}};
  if (!flags.graphson_path.empty()) {
    auto parsed = ReadGraphSONFile(flags.graphson_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n",
                   flags.graphson_path.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    run.graphson = std::move(parsed).value();
    run.graphson->name = flags.graphson_path;
  }
  PrintBanner(*report, flags);
  report->summarize(run);
  if (report->note != nullptr) std::printf("\n%s\n", report->note);

  int status = 0;
  if (!flags.json_path.empty()) {
    Json doc(Json::Object{
        {"bench", Json(report->name)},
        {"scale", Json(flags.scale)},
        {"cost_model", Json(flags.enable_cost_model)},
        {"results", run.load_rows.empty() ? MeasurementsJson(run.rows)
                                          : Json(std::move(run.load_rows))},
    });
    if (!WriteJsonArtifact(flags.json_path, doc)) status = 1;
  }
  if (!flags.csv_path.empty()) {
    Status written = core::WriteCsv(run.rows, flags.csv_path);
    if (!written.ok()) {
      std::fprintf(stderr, "gdbmicro_suite: %s\n",
                   written.ToString().c_str());
      status = 1;
    }
  }
  return status;
}

}  // namespace
}  // namespace bench
}  // namespace gdbmicro

int main(int argc, char** argv) { return gdbmicro::bench::Main(argc, argv); }
