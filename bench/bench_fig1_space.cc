// Figure 1(a,b): space occupancy per engine per dataset, against the raw
// GraphSON footprint. Each engine bulk-loads the dataset, checkpoints to a
// scratch directory, and the directory size is measured.

#include <cstdio>

#include "bench_common.h"
#include "src/core/report.h"
#include "src/util/string_util.h"

int main(int argc, char** argv) {
  using namespace gdbmicro;
  bench::BenchProfile profile = bench::ParseFlags(argc, argv, 0.01, 5000);
  bench::PrintBanner("Figure 1(a,b): Space occupancy", profile);

  std::vector<std::string> names =
      profile.datasets.empty()
          ? std::vector<std::string>{"frb-o", "frb-m", "frb-l", "frb-s",
                                     "ldbc", "mico"}
          : profile.datasets;
  const std::vector<std::string>& engines = profile.engines;

  core::Runner runner(bench::RunnerOptionsFrom(profile));
  std::printf("%-7s %12s", "dataset", "raw-json");
  for (const auto& e : engines) std::printf(" %12s", e.c_str());
  std::printf("\n");

  for (const std::string& name : names) {
    const GraphData& data = bench::GetDataset(name, profile.scale);
    std::printf("%-7s %12s", name.c_str(),
                HumanBytes(data.EstimatedJsonBytes()).c_str());
    std::fflush(stdout);
    for (const std::string& engine : engines) {
      auto loaded = runner.Load(engine, data);
      if (!loaded.ok()) {
        std::printf(" %12s", "load-err");
        continue;
      }
      auto bytes = core::MeasureSpace(*loaded->engine,
                                      "/tmp/gdbmicro_space_scratch");
      std::printf(" %12s",
                  bytes.ok() ? HumanBytes(*bytes).c_str() : "ckpt-err");
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "\n(paper shape: titan smallest on frb via delta encoding; orient &\n"
      " sparksee smallest on ldbc via value dedup; orient penalized on\n"
      " frb-s by per-label clusters; blaze ~3x everyone, journal+3 indexes)\n");
  return 0;
}
