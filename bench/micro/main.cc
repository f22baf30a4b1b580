// The bench_micro driver: picks the scenario named by the first argument,
// parses the flags it accepts, and runs it (see micro.h).

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "bench/micro/micro.h"
#include "src/datasets/generators.h"
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

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && *end == '\0' && std::isfinite(*out);
}

bool ParseUint64(const std::string& text, uint64_t* out) {
  // strtoull would accept a sign and wrap a negative value around.
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0;
}

bool ParsePositiveInt(const std::string& text, int* out) {
  uint64_t value = 0;
  if (!ParseUint64(text, &value) || value < 1 ||
      value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseFraction(const std::string& text, double* out) {
  return ParseDouble(text, out) && *out >= 0.0 && *out <= 1.0;
}

/// Parses every comma-separated entry of `text` into `out` with `parse`.
template <typename T, typename Parse>
bool ParseList(const std::string& text, Parse parse, std::vector<T>* out) {
  out->clear();
  for (const std::string& entry : Split(text, ',')) {
    T value{};
    if (!parse(entry, &value)) return false;
    out->push_back(value);
  }
  return true;
}

/// One flag: its name, what a valid value is (nullptr for a switch that
/// takes none), and how it is stored.
struct FlagSpec {
  const char* name;
  const char* want;
  bool (*set)(const std::string& value, MicroBenchFlags* flags);
};

const FlagSpec kFlags[] = {
    {"scale", "a number > 0",
     [](const std::string& v, MicroBenchFlags* f) {
       return ParseDouble(v, &f->scale) && f->scale > 0;
     }},
    {"rounds", "an integer >= 1",
     [](const std::string& v, MicroBenchFlags* f) {
       return ParsePositiveInt(v, &f->rounds);
     }},
    {"dataset", "a dataset name",
     [](const std::string& v, MicroBenchFlags* f) {
       f->dataset = v;
       for (const std::string& name : datasets::AllDatasetNames()) {
         if (name == v) return true;
       }
       return false;
     }},
    {"engines", "registered engine names",
     [](const std::string& v, MicroBenchFlags* f) {
       f->engines = Split(v, ',');
       for (const std::string& name : f->engines) {
         if (!EngineRegistry::Instance().Has(name)) return false;
       }
       return true;
     }},
    {"json", "a path",
     [](const std::string& v, MicroBenchFlags* f) {
       f->json_path = v;
       return !v.empty();
     }},
    {"threads", "integers >= 1",
     [](const std::string& v, MicroBenchFlags* f) {
       return ParseList(v, ParsePositiveInt, &f->threads);
     }},
    {"write-ratio", "numbers in [0,1]",
     [](const std::string& v, MicroBenchFlags* f) {
       return ParseList(v, ParseFraction, &f->write_ratios);
     }},
    {"iterations", "an integer >= 1",
     [](const std::string& v, MicroBenchFlags* f) {
       return ParsePositiveInt(v, &f->iterations);
     }},
    {"cost-model", nullptr,
     [](const std::string&, MicroBenchFlags* f) {
       f->cost_model = true;
       return true;
     }},
    {"stats", "on or off",
     [](const std::string& v, MicroBenchFlags* f) {
       f->stats = v == "on";
       return v == "on" || v == "off";
     }},
    {"fault-rate", "a number in [0,1]",
     [](const std::string& v, MicroBenchFlags* f) {
       return ParseFraction(v, &f->fault_rate);
     }},
    {"fault-seed", "an unsigned integer",
     [](const std::string& v, MicroBenchFlags* f) {
       return ParseUint64(v, &f->fault_seed);
     }},
    {"max-attempts", "an integer >= 1",
     [](const std::string& v, MicroBenchFlags* f) {
       return ParsePositiveInt(v, &f->max_attempts);
     }},
    {"memory-budgets", "byte counts (0 = unlimited)",
     [](const std::string& v, MicroBenchFlags* f) {
       return ParseList(v, ParseUint64, &f->memory_budgets);
     }},
};

// --- scenarios -------------------------------------------------------------

struct Scenario {
  const char* name;
  const char* flags;  // the flags it reads, space-separated
  std::vector<std::string> defaults;  // parsed before the command line
  Json::Object (*run)(MicroRun& run);

  bool Reads(std::string_view flag) const {
    for (const std::string& name : Split(flags, ' ')) {
      if (name == flag) return true;
    }
    return false;
  }
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
};

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_micro: %s\nusage: bench_micro <scenario> [flags]\n",
               error.c_str());
  for (const Scenario& s : kScenarios) {
    std::fprintf(stderr, "  %-12s", s.name);
    for (const FlagSpec& flag : kFlags) {
      if (!s.Reads(flag.name)) continue;
      std::fprintf(stderr, " --%s%s", flag.name, flag.want ? "=" : "");
    }
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr, "engines: %s\ndatasets: %s\n",
               Join(EngineRegistry::Instance().Names(), ",").c_str(),
               Join(datasets::AllDatasetNames(), ",").c_str());
  return 2;
}

int Main(int argc, char** argv) {
  RegisterBuiltinEngines();
  if (argc < 2) return Usage("no scenario given");
  const Scenario* scenario = nullptr;
  for (const Scenario& s : kScenarios) {
    if (std::string_view(argv[1]) == s.name) scenario = &s;
  }
  if (scenario == nullptr) {
    return Usage(StrFormat("unknown scenario %s", argv[1]));
  }

  std::vector<std::string> args = scenario->defaults;
  args.insert(args.end(), argv + 2, argv + argc);
  MicroBenchFlags flags;
  for (const std::string& arg : args) {
    size_t eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : kFlags) {
      if (name == std::string("--") + f.name) spec = &f;
    }
    if (spec == nullptr || !scenario->Reads(spec->name)) {
      return Usage(StrFormat("%s does not take %s", scenario->name,
                             name.c_str()));
    }
    if ((spec->want != nullptr) != (eq != std::string::npos)) {
      return Usage(spec->want ? StrFormat("%s needs =<%s>", name.c_str(),
                                          spec->want)
                              : StrFormat("%s takes no value", name.c_str()));
    }
    std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (!spec->set(value, &flags)) {
      return Usage(StrFormat("%s: want %s", arg.c_str(), spec->want));
    }
  }

  if (flags.engines.empty()) {
    flags.engines = EngineRegistry::Instance().Names();
  }
  static const GraphData kNoData;
  const GraphData& data = scenario->Reads("dataset")
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
