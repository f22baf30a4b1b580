// Quickstart: the 5-minute tour of the public API.
//
//   1. open an engine by name,
//   2. create a tiny property graph,
//   3. run point reads, searches and traversals,
//   4. run a Gremlin-style Traversal and a BFS,
//   5. measure the footprint of the engine's checkpoint image.
//
// Build & run:  ./build/examples/example_quickstart [engine-name]

#include <cstdio>
#include <cstdlib>

#include "src/graph/registry.h"
#include "src/query/algorithms.h"
#include "src/query/traversal.h"
#include "src/util/string_util.h"

using namespace gdbmicro;

int main(int argc, char** argv) {
  const std::string engine_name = argc > 1 ? argv[1] : "neo19";

  // 1. Engines are created through the registry; all nine variants
  //    ("arango", "blaze", "neo19", "neo30", "orient", "sparksee", "sqlg",
  //    "titan05", "titan10") implement the same GraphEngine interface.
  auto engine_or = OpenEngine(engine_name, EngineOptions{});
  if (!engine_or.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", engine_name.c_str(),
                 engine_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<GraphEngine> engine = std::move(engine_or).value();
  std::printf("engine: %s (emulates %s)\n", engine->info().name.c_str(),
              engine->info().emulates.c_str());

  // 2. Build a small graph. Every fallible call returns Status/Result.
  auto must = [](auto result) {
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(result).value();
  };
  VertexId ada = must(engine->AddVertex(
      "person", {{"name", PropertyValue("ada")},
                 {"born", PropertyValue(int64_t{1815})}}));
  VertexId charles = must(engine->AddVertex(
      "person", {{"name", PropertyValue("charles")}}));
  VertexId engine_v = must(engine->AddVertex(
      "machine", {{"name", PropertyValue("analytical engine")}}));
  must(engine->AddEdge(ada, charles, "collaboratesWith",
                       {{"since", PropertyValue(int64_t{1833})}}));
  must(engine->AddEdge(ada, engine_v, "programs", {}));
  must(engine->AddEdge(charles, engine_v, "designs", {}));

  // 3. Point reads, counts, searches — through a read session (one per
  // client thread; see the concurrency contract in src/graph/engine.h).
  CancelToken never;
  auto session = engine->CreateSession();
  std::printf("vertices: %llu, edges: %llu\n",
              (unsigned long long)must(engine->CountVertices(*session, never)),
              (unsigned long long)must(engine->CountEdges(*session, never)));
  VertexRecord rec = must(engine->GetVertex(*session, ada));
  std::printf("v[%llu] label=%s name=%s\n", (unsigned long long)rec.id,
              rec.label.c_str(),
              FindProperty(rec.properties, "name")->ToString().c_str());
  auto found = must(engine->FindVerticesByProperty(
      *session, "name", PropertyValue("charles"), never));
  std::printf("search name=charles -> %zu hit(s)\n", found.size());

  // 4. Gremlin-style traversal + BFS.
  uint64_t collaborators = must(query::Traversal::V(ada)
                                    .Both(std::string("collaboratesWith"))
                                    .Dedup()
                                    .Count()
                                    .ExecuteCount(*engine, *session, never));
  std::printf("ada's collaborators: %llu\n",
              (unsigned long long)collaborators);
  auto bfs = must(query::BreadthFirst(*engine, *session, ada, 2, std::nullopt, never));
  std::printf("reachable from ada within 2 hops: %zu vertices\n",
              bfs.visited.size());

  // 5. Space: the bytes of the engine's checkpoint image.
  std::printf("checkpoint footprint: %s\n",
              HumanBytes(engine->CheckpointBytes()).c_str());
  return 0;
}
