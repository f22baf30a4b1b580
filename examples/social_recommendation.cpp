// Social-network recommendation scenario (the paper's complex workload,
// §4.7): generate an LDBC-style social graph, load it into an engine, and
// run a new user's session — profile creation, friends-of-friends,
// tag discovery, and place recommendation — timing each step.
//
// Usage: ./build/examples/example_social_recommendation [engine] [scale]

#include <cstdio>
#include <cstdlib>

#include "src/core/complex.h"
#include "src/core/runner.h"
#include "src/datasets/generators.h"
#include "src/util/string_util.h"
#include "src/util/timer.h"

using namespace gdbmicro;

int main(int argc, char** argv) {
  const std::string engine_name = argc > 1 ? argv[1] : "neo19";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.02;

  datasets::GenOptions gen;
  gen.scale = scale;
  GraphData data = datasets::GenerateLdbc(gen);
  std::printf("ldbc social graph: %llu vertices / %llu edges\n",
              (unsigned long long)data.VertexCount(),
              (unsigned long long)data.EdgeCount());

  core::RunnerOptions options;
  options.enable_cost_model = false;
  core::Runner runner(options);
  auto loaded = runner.Load(engine_name, data);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded into %s in %s\n\n", engine_name.c_str(),
              HumanMillis(loaded->load_measurement.millis).c_str());

  core::QueryContext ctx;
  ctx.engine = loaded->engine.get();
  ctx.session = loaded->session.get();
  ctx.workload = loaded->workload.get();
  ctx.cancel = CancelToken::WithLimits(std::chrono::seconds(60), 0);

  std::printf("%-18s %-62s %10s %8s\n", "query", "description", "time",
              "items");
  for (const auto& spec : core::ComplexQueryCatalog()) {
    ctx.iteration = 0;
    Timer timer;
    auto r = spec.run(ctx);
    if (r.ok()) {
      std::printf("%-18s %-62s %10s %8llu\n", spec.name.c_str(),
                  spec.description.c_str(),
                  HumanMillis(timer.ElapsedMillis()).c_str(),
                  (unsigned long long)r->items);
    } else {
      std::printf("%-18s %-62s %10s\n", spec.name.c_str(),
                  spec.description.c_str(), r.status().ToString().c_str());
    }
  }
  return 0;
}
