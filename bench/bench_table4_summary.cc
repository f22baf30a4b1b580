// Table 4: the qualitative evaluation summary — per engine, per query
// group, near-best (+) / mid-field (.) / low-end-or-failing (!) — derived
// from a fresh run of the whole microbenchmark over the Freebase samples.

#include <cstdio>

#include "bench_common.h"
#include "src/core/report.h"

int main(int argc, char** argv) {
  using namespace gdbmicro;
  bench::BenchProfile profile = bench::ParseFlags(argc, argv, 0.01, 1500, 4ULL << 20);
  bench::PrintBanner("Table 4: Evaluation Summary", profile);

  std::vector<std::string> names =
      profile.datasets.empty()
          ? std::vector<std::string>{"frb-s", "frb-o", "frb-m"}
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

  auto table = core::SummarizeTable4(all);
  std::printf("\n%s", core::FormatTable4(table, engines).c_str());
  std::printf(
      "\n(paper Table 4 to compare: neo19 good nearly everywhere; blaze\n"
      " warnings everywhere; sparksee best CUD but warned on degree\n"
      " filters; sqlg good on search, warned on traversals; titan mid)\n");
  return 0;
}
