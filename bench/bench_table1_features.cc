// Table 1: features and characteristics of the tested systems, produced
// from each engine's EngineInfo (the static row it contributes).

#include <cstdio>

#include "bench_common.h"
#include "src/graph/registry.h"

int main(int argc, char** argv) {
  using namespace gdbmicro;
  bench::BenchProfile profile = bench::ParseFlags(argc, argv, 0.05, 5000);
  bench::PrintBanner("Table 1: Features and Characteristics of the tested systems",
                     profile);

  const std::vector<std::string>& engines = profile.engines;

  std::printf("%-9s %-12s %-20s %-48s %-28s %-10s %-32s %s\n", "engine",
              "emulates", "type", "storage", "edge traversal", "contract",
              "query execution", "attr-index");
  for (const std::string& name : engines) {
    auto engine = OpenEngine(name, EngineOptions{});
    if (!engine.ok()) {
      std::printf("%-9s <unavailable: %s>\n", name.c_str(),
                  engine.status().ToString().c_str());
      continue;
    }
    EngineInfo info = (*engine)->info();
    // Both faces of the query-execution column: the typed contract the
    // planner consumes and the paper's human-readable cell.
    std::printf("%-9s %-12s %-20s %-48s %-28s %-10s %-32s %s\n",
                info.name.c_str(), info.emulates.c_str(), info.type.c_str(),
                info.storage.c_str(), info.edge_traversal.c_str(),
                std::string(QueryExecutionToString(info.query_execution))
                    .c_str(),
                info.query_execution_display.c_str(),
                info.supports_property_index ? "yes" : "no/ineffective");
  }
  return 0;
}
