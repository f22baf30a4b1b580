#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "src/core/report.h"
#include "src/graph/registry.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {

namespace {

std::vector<std::string> SplitList(const char* value) {
  return Split(value, ',');
}

}  // namespace

BenchProfile ParseFlags(int argc, char** argv, double default_scale,
                        int default_deadline_ms, uint64_t default_budget) {
  BenchProfile profile;
  profile.scale = default_scale;
  profile.deadline_ms = default_deadline_ms;
  profile.memory_budget = default_budget;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      if (std::strncmp(arg, prefix, len) == 0) return arg + len;
      return nullptr;
    };
    if (const char* v = value_of("--scale=")) {
      profile.scale = std::atof(v);
    } else if (const char* v = value_of("--deadline-ms=")) {
      profile.deadline_ms = std::atoi(v);
    } else if (const char* v = value_of("--batch=")) {
      profile.batch = std::atoi(v);
    } else if (const char* v = value_of("--engines=")) {
      profile.engines = SplitList(v);
    } else if (const char* v = value_of("--datasets=")) {
      profile.datasets = SplitList(v);
    } else if (const char* v = value_of("--seed=")) {
      profile.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--memory-budget=")) {
      profile.memory_budget = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--json=")) {
      profile.json_path = v;
    } else if (std::strcmp(arg, "--no-cost-model") == 0) {
      profile.cost_model = false;
    } else if (std::strcmp(arg, "--indexed") == 0) {
      profile.indexed = true;
    } else if (const char* v = value_of("--stats=")) {
      if (std::strcmp(v, "on") != 0 && std::strcmp(v, "off") != 0) {
        std::fprintf(stderr, "--stats takes on|off, got %s\n", v);
        std::exit(2);
      }
      profile.stats = std::strcmp(v, "on") == 0;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "flags: --scale=F --deadline-ms=N --batch=N --engines=a,b,c\n"
          "       --datasets=a,b,c --seed=N --memory-budget=N\n"
          "       --no-cost-model --indexed --stats=on|off --json=PATH\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", arg);
      std::exit(2);
    }
  }
  RegisterBuiltinEngines();
  if (profile.engines.empty()) {
    profile.engines = EngineRegistry::Instance().Names();
  }
  return profile;
}

const GraphData& GetDataset(const std::string& name, double scale) {
  static std::map<std::string, GraphData>* cache =
      new std::map<std::string, GraphData>();
  std::string key = name + "@" + StrFormat("%.6f", scale);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  datasets::GenOptions options;
  options.scale = scale;
  auto data = datasets::GenerateByName(name, options);
  if (!data.ok()) {
    std::fprintf(stderr, "cannot generate dataset %s: %s\n", name.c_str(),
                 data.status().ToString().c_str());
    std::exit(2);
  }
  return cache->emplace(key, std::move(data).value()).first->second;
}

core::RunnerOptions RunnerOptionsFrom(const BenchProfile& profile) {
  core::RunnerOptions options;
  options.deadline = std::chrono::milliseconds(profile.deadline_ms);
  options.batch_iterations = profile.batch > 0 ? profile.batch : 10;
  options.run_batch = profile.batch > 0;
  options.enable_cost_model = profile.cost_model;
  options.memory_budget_bytes = profile.memory_budget;
  options.workload_seed = profile.seed;
  options.create_property_index = profile.indexed;
  options.collect_statistics = profile.stats;
  return options;
}

void PrintBanner(const std::string& title, const BenchProfile& profile) {
  std::printf("== %s ==\n", title.c_str());
  std::printf(
      "   scale=%.3f (paper sizes x %.2f)  deadline=%dms  batch=%d  "
      "cost-model=%s%s\n\n",
      profile.scale, profile.scale * 20.0, profile.deadline_ms, profile.batch,
      profile.cost_model ? "on" : "off", profile.indexed ? "  indexed" : "");
}

bool WriteJsonArtifact(const std::string& path, const Json& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::string text = doc.Pretty();
  text += '\n';
  bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  bool closed = std::fclose(f) == 0;  // always close, even on short write
  if (!wrote || !closed) {
    std::fprintf(stderr, "failed writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

Json MeasurementsJson(const std::vector<core::Measurement>& rows) {
  Json::Array out;
  for (const core::Measurement& m : rows) {
    Json::Object row{
        {"engine", Json(m.engine)},
        {"dataset", Json(m.dataset)},
        {"query", Json(m.query)},
        {"mode", Json(m.mode == core::Measurement::Mode::kBatch ? "batch"
                                                                : "single")},
        {"ok", Json(m.ok())},
        {"millis", Json(m.millis)},
        {"items", Json(m.items)},
    };
    if (!m.ok()) row.emplace_back("status", Json(m.status.ToString()));
    if (m.latency.samples > 0) {
      row.emplace_back("latency_ms",
                       Json(Json::Object{
                           {"samples", Json(m.latency.samples)},
                           {"min", Json(m.latency.min_ms)},
                           {"p50", Json(m.latency.p50_ms)},
                           {"p95", Json(m.latency.p95_ms)},
                           {"p99", Json(m.latency.p99_ms)},
                           {"max", Json(m.latency.max_ms)},
                       }));
    }
    if (m.outcomes.Issued() > 0) {
      row.emplace_back("outcomes",
                       Json(Json::Object{
                           {"ok", Json(m.outcomes.ok)},
                           {"retried", Json(m.outcomes.retried)},
                           {"timeout", Json(m.outcomes.timeout)},
                           {"oom", Json(m.outcomes.oom)},
                           {"failed", Json(m.outcomes.failed)},
                       }));
    }
    out.push_back(Json(std::move(row)));
  }
  return Json(std::move(out));
}

std::vector<core::Measurement> RunAndPrint(
    const BenchProfile& profile, const std::vector<std::string>& datasets,
    const std::vector<int>& query_numbers) {
  std::vector<std::string> names =
      profile.datasets.empty() ? datasets : profile.datasets;
  const std::vector<std::string>& engines = profile.engines;
  core::Runner runner(RunnerOptionsFrom(profile));
  auto specs = core::QueriesByNumber(query_numbers);

  std::vector<core::Measurement> all;
  for (const std::string& name : names) {
    const GraphData& data = GetDataset(name, profile.scale);
    std::printf("-- %s (%llu nodes / %llu edges) --\n", name.c_str(),
                (unsigned long long)data.VertexCount(),
                (unsigned long long)data.EdgeCount());
    std::fflush(stdout);
    auto results = runner.RunAll(engines, data, specs);

    core::PivotOptions pivot;
    pivot.dataset = name;
    pivot.mode = core::Measurement::Mode::kSingle;
    pivot.engine_order = engines;
    std::printf("%s\n", core::PivotTable(results, pivot).c_str());
    all.insert(all.end(), std::make_move_iterator(results.begin()),
               std::make_move_iterator(results.end()));
  }
  return all;
}

}  // namespace bench
}  // namespace gdbmicro
