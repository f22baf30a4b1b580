// Figure 3(a): bulk loading time (Q.1) per engine on the Freebase samples.
//
// Load failures print the status to stderr (a silent "err" cell is
// useless when a loader regresses); --json=<path> writes the per-cell
// measurements as a BENCH_*.json artifact like the micro benches.

#include <cstdio>

#include "bench_common.h"
#include "src/util/json.h"
#include "src/util/string_util.h"

int main(int argc, char** argv) {
  using namespace gdbmicro;
  bench::BenchProfile profile = bench::ParseFlags(argc, argv, 0.01, 2500);
  bench::PrintBanner("Figure 3(a): Loading time", profile);

  std::vector<std::string> names =
      profile.datasets.empty()
          ? std::vector<std::string>{"frb-o", "frb-m", "frb-l"}
          : profile.datasets;
  const std::vector<std::string>& engines = profile.engines;
  core::Runner runner(bench::RunnerOptionsFrom(profile));

  Json::Array json_rows;
  std::printf("%-7s", "dataset");
  for (const auto& e : engines) std::printf(" %10s", e.c_str());
  std::printf("\n");
  for (const std::string& name : names) {
    const GraphData& data = bench::GetDataset(name, profile.scale);
    std::printf("%-7s", name.c_str());
    std::fflush(stdout);
    for (const std::string& engine : engines) {
      auto loaded = runner.Load(engine, data);
      if (loaded.ok()) {
        std::printf(" %10s",
                    HumanMillis(loaded->load_measurement.millis).c_str());
      } else {
        std::printf(" %10s", "err");
        std::fprintf(stderr, "%s/%s load failed: %s\n", engine.c_str(),
                     name.c_str(), loaded.status().ToString().c_str());
      }
      std::fflush(stdout);
      Json::Object row{
          {"dataset", Json(name)},
          {"engine", Json(engine)},
          {"ok", Json(loaded.ok())},
      };
      if (loaded.ok()) {
        const BulkLoadStats& stats = loaded->engine->load_stats();
        row.emplace_back("millis", Json(loaded->load_measurement.millis));
        row.emplace_back("elements", Json(stats.Elements()));
        row.emplace_back("elements_per_sec", Json(stats.ElementsPerSec()));
        row.emplace_back("index_build_millis",
                         Json(stats.index_build_millis));
        row.emplace_back("bytes", Json(stats.bytes));
      } else {
        row.emplace_back("status", Json(loaded.status().ToString()));
      }
      json_rows.push_back(Json(std::move(row)));
    }
    std::printf("\n");
  }
  if (!profile.json_path.empty()) {
    Json doc(Json::Object{
        {"bench", Json("fig3_load")},
        {"scale", Json(profile.scale)},
        {"cost_model", Json(profile.cost_model)},
        {"results", Json(std::move(json_rows))},
    });
    if (!bench::WriteJsonArtifact(profile.json_path, doc)) return 1;
  }
  std::printf(
      "\n(paper shape: arango & neo4j fastest; orient & sqlg sensitive to\n"
      " edge-label cardinality; blaze orders of magnitude slower — it\n"
      " rebalances three statement indexes per insertion)\n");
  return 0;
}
