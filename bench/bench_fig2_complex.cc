// Figure 2: complex query performance on the ldbc dataset — the 13
// LDBC-derived queries (paper §4.7), which is the macro-benchmark the
// micro-benchmark results are contrasted against.

#include <cstdio>

#include "bench_common.h"
#include "src/core/complex.h"
#include "src/util/string_util.h"
#include "src/util/timer.h"

int main(int argc, char** argv) {
  using namespace gdbmicro;
  bench::BenchProfile profile = bench::ParseFlags(argc, argv, 0.03, 6000);
  bench::PrintBanner("Figure 2: Complex Query Performance on ldbc", profile);

  const std::vector<std::string>& engines = profile.engines;
  const GraphData& data = bench::GetDataset("ldbc", profile.scale);
  core::Runner runner(bench::RunnerOptionsFrom(profile));

  std::printf("%-16s", "query");
  for (const auto& e : engines) std::printf(" %10s", e.c_str());
  std::printf("\n");

  // One loaded instance per engine, reused across the workload (the
  // paper's complex set simulates one user session).
  std::vector<core::LoadedEngine> loaded;
  std::vector<bool> usable;
  for (const std::string& engine : engines) {
    auto l = runner.Load(engine, data);
    usable.push_back(l.ok());
    if (l.ok()) {
      loaded.push_back(std::move(l).value());
    } else {
      loaded.emplace_back();
      std::fprintf(stderr, "%s failed to load: %s\n", engine.c_str(),
                   l.status().ToString().c_str());
    }
  }

  for (const auto& spec : core::ComplexQueryCatalog()) {
    std::printf("%-16s", spec.name.c_str());
    for (size_t i = 0; i < engines.size(); ++i) {
      if (!usable[i]) {
        std::printf(" %10s", "load-err");
        continue;
      }
      core::QueryContext ctx;
      ctx.engine = loaded[i].engine.get();
      ctx.session = loaded[i].session.get();
      ctx.workload = loaded[i].workload.get();
      ctx.cancel = CancelToken::WithTimeout(
          std::chrono::milliseconds(profile.deadline_ms));
      ctx.iteration = 0;
      loaded[i].session->BeginQuery();
      Timer timer;
      auto r = spec.run(ctx);
      double ms = timer.ElapsedMillis();
      if (r.ok()) {
        std::printf(" %10s", HumanMillis(ms).c_str());
      } else if (r.status().IsDeadlineExceeded()) {
        std::printf(" %10s", "timeout");
      } else {
        std::printf(" %10s", "err");
      }
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "\n(paper shape: sqlg fastest on ~half the queries (short\n"
      " label-restricted joins) but slow on unrestricted multi-hop; arango\n"
      " and titan05 slowest overall; blaze times out)\n");
  return 0;
}
