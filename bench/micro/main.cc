// The bench_micro driver: picks the scenario named by the first argument,
// parses the flags it accepts, and runs it (see micro.h).

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/micro/micro.h"
#include "src/graph/registry.h"
#include "src/util/string_util.h"

// --- the allocation counter ------------------------------------------------
// One counter per thread: a thread only ever bumps its own, so the counter
// needs neither a lock nor an atomic add, and Measure() sees exactly the
// allocations of the thread that runs the measured body. The nothrow forms
// are replaced too: memory they return reaches the plain operator delete
// (std::stable_sort's temporary buffer does this), so it must come from
// malloc even where a sanitizer runtime supplies its own nothrow new.

namespace {
thread_local uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gdbmicro {
namespace bench {

uint64_t ThreadAllocations() { return t_allocs; }

std::optional<LoadedMicroEngine> MicroRun::Load(const std::string& name,
                                                const GraphData& graph,
                                                const EngineOptions& options) {
  auto engine = OpenEngine(name, options, /*honor_cost_model_env=*/false);
  if (!Check(engine.status(), name + " open")) return std::nullopt;
  auto mapping = (*engine)->BulkLoad(graph);
  if (!Check(mapping.status(), name + " load")) return std::nullopt;
  LoadedMicroEngine loaded{std::move(engine).value(),
                           std::move(mapping).value(), nullptr};
  loaded.session = loaded.engine->CreateSession();
  return loaded;
}

void MicroRun::Fail(const std::string& what) {
  std::fprintf(stderr, "VIOLATION %s\n", what.c_str());
  violations_.push_back(what);
}

bool MicroRun::Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
  return status.ok();
}

void MicroRun::Table(std::vector<Column> columns) {
  columns_ = std::move(columns);
  for (const Column& c : columns_) {
    std::printf("%s%*s", &c == &columns_[0] ? "" : " ", c.width,
                c.heading.c_str());
  }
  std::printf("\n");
}

void MicroRun::Emit(Json::Object row) {
  Json json(std::move(row));
  for (const Column& c : columns_) {
    if (&c != &columns_[0]) std::printf(" ");
    const Json* v = &json;
    for (const std::string& part : Split(c.key, '.')) {
      if (v->is_array()) {
        size_t i = std::strtoul(part.c_str(), nullptr, 10);
        v = i < v->array().size() ? &v->array()[i] : nullptr;
      } else {
        v = v->Find(part);
      }
      if (v == nullptr) break;
    }
    if (v == nullptr) {
      std::printf("%*s", c.width, "-");
    } else if (v->is_string()) {
      std::printf("%*s", c.width, v->string_value().c_str());
    } else if (v->is_double()) {
      std::printf("%*.*f", c.width, c.precision, v->double_value());
    } else if (v->is_int()) {
      std::printf("%*lld", c.width, static_cast<long long>(v->int_value()));
    } else {
      std::printf("%*s", c.width, v->Dump().c_str());
    }
  }
  std::printf("\n");
  std::fflush(stdout);
  rows_.push_back(std::move(json));
}

namespace {

// --- flags -----------------------------------------------------------------

using F = MicroBenchFlags;
const Flag<F> kFlags[] = {
    {"scale", "a number > 0", Set<&F::scale, ParsePositiveDouble>},
    {"rounds", "an integer >= 1", Set<&F::rounds, ParsePositiveInt>},
    {"dataset", "a dataset name", Set<&F::dataset, ParseDatasetName>},
    {"engines", "registered engine names",
     Set<&F::engines, ParseListOf<std::string, ParseEngineName>>},
    {"json", "a path", Set<&F::json_path, ParsePath>},
    {"threads", "integers >= 1",
     Set<&F::threads, ParseListOf<int, ParsePositiveInt>>},
    {"write-ratio", "numbers in [0,1]",
     Set<&F::write_ratios, ParseListOf<double, ParseFraction>>},
    {"iterations", "an integer >= 1", Set<&F::iterations, ParsePositiveInt>},
    {"cost-model", nullptr, Set<&F::cost_model, Switch<true>>},
    {"stats", "on or off", Set<&F::stats, ParseOnOff>},
    {"fault-rate", "a number in [0,1]", Set<&F::fault_rate, ParseFraction>},
    {"fault-seed", "an unsigned integer", Set<&F::fault_seed, ParseUint64>},
    {"max-attempts", "an integer >= 1",
     Set<&F::max_attempts, ParsePositiveInt>},
    {"memory-budgets", "byte counts (0 = unlimited)",
     Set<&F::memory_budgets, ParseListOf<uint64_t, ParseUint64>>},
};

// --- scenarios -------------------------------------------------------------

struct Scenario {
  const char* name;
  const char* flags;  // the flags it reads, space-separated
  std::vector<std::string> defaults;  // parsed before the command line
  Json::Object (*run)(MicroRun& run);
};

const Scenario kScenarios[] = {
    {"adjacency", "scale rounds dataset engines json", {}, RunAdjacency},
    {"plan", "scale rounds dataset engines json", {}, RunPlan},
    // frb-o: the paper's Fig. 3(a) loading regime.
    {"load", "scale rounds dataset engines json", {"--dataset=frb-o"},
     RunLoad},
    {"prepared", "scale iterations dataset engines json",
     {"--iterations=2000"}, RunPrepared},
    {"optimizer", "scale rounds engines json stats", {}, RunOptimizer},
    {"pathindex", "scale rounds engines json", {}, RunPathIndex},
    // --iterations: closed-loop rounds per client thread.
    {"concurrency",
     "scale iterations dataset engines json threads write-ratio cost-model",
     {"--iterations=200"}, RunConcurrency},
    {"robustness",
     "scale iterations dataset engines json cost-model stats fault-rate "
     "fault-seed max-attempts memory-budgets",
     {"--iterations=10", "--memory-budgets=16384,262144,0"}, RunRobustness},
    {"ablation", "rounds json", {}, RunAblation},
};

const Driver<Scenario, MicroBenchFlags> kDriver{"bench_micro", "scenario",
                                                kScenarios, kFlags};

int Main(int argc, char** argv) {
  RegisterBuiltinEngines();
  MicroBenchFlags flags;
  const Scenario* scenario = kDriver.Parse(argc, argv, &flags);
  if (scenario == nullptr) return 2;

  if (flags.engines.empty()) {
    flags.engines = EngineRegistry::Instance().Names();
  }
  static const GraphData kNoData;
  const GraphData& data = Reads(scenario->flags, "dataset")
                              ? GetDataset(flags.dataset, flags.scale)
                              : kNoData;
  if (&data != &kNoData) {
    std::printf("dataset=%s scale=%.3f: %zu vertices, %zu edges\n",
                flags.dataset.c_str(), flags.scale, data.vertices.size(),
                data.edges.size());
  }

  MicroRun run(flags, data);
  Json doc(scenario->run(run));
  if (!flags.json_path.empty() && !WriteJsonArtifact(flags.json_path, doc)) {
    run.Fail("cannot write " + flags.json_path);
  }
  if (!run.violations().empty()) {
    std::fprintf(stderr, "%zu violation(s)\n", run.violations().size());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gdbmicro

int main(int argc, char** argv) { return gdbmicro::bench::Main(argc, argv); }
