// Figure 7(c,d): overall cumulative time per engine across the whole
// microbenchmark, in single and batch execution. Failed tests are charged
// the deadline, as in the paper's totals. Also derives Table 4 from the
// same grid (see bench_table4_summary for the standalone version).

#include <cstdio>

#include "bench_common.h"
#include "src/core/report.h"
#include "src/util/string_util.h"

int main(int argc, char** argv) {
  using namespace gdbmicro;
  bench::BenchProfile profile = bench::ParseFlags(argc, argv, 0.01, 1500, 4ULL << 20);
  bench::PrintBanner(
      "Figure 7(c,d): overall cumulative time, single and batch", profile);

  std::vector<std::string> names =
      profile.datasets.empty()
          ? std::vector<std::string>{"frb-s", "frb-o", "frb-m", "frb-l"}
          : profile.datasets;
  const std::vector<std::string>& engines = profile.engines;
  core::Runner runner(bench::RunnerOptionsFrom(profile));
  std::vector<const core::QuerySpec*> specs;
  for (const auto& spec : core::QueryCatalog()) specs.push_back(&spec);

  std::vector<core::Measurement> all;
  for (const std::string& name : names) {
    const GraphData& data = bench::GetDataset(name, profile.scale);
    std::printf("running %s...\n", name.c_str());
    std::fflush(stdout);
    auto results = runner.RunAll(engines, data, specs);
    all.insert(all.end(), results.begin(), results.end());
  }

  double deadline_ms = static_cast<double>(profile.deadline_ms);
  for (auto mode : {core::Measurement::Mode::kSingle,
                    core::Measurement::Mode::kBatch}) {
    std::printf("\n%s cumulative time (failures charged the deadline):\n",
                mode == core::Measurement::Mode::kSingle ? "Single" : "Batch");
    std::printf("%-7s", "dataset");
    for (const auto& e : engines) std::printf(" %10s", e.c_str());
    std::printf("\n");
    for (const std::string& name : names) {
      auto totals = core::CumulativeMillis(all, name, mode, deadline_ms);
      std::printf("%-7s", name.c_str());
      for (const auto& e : engines) {
        std::printf(" %10s", HumanMillis(totals[e]).c_str());
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\n(paper shape: neo4j shortest total time in both modes; batch does\n"
      " not change the ranking — reads cost ~10x one iteration, CUD less,\n"
      " because single mode carries per-operation setup)\n");
  core::WriteCsv(all, "fig7_overall_results.csv").ok();
  std::printf("full grid written to fig7_overall_results.csv\n");
  return 0;
}
