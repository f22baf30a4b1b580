// Concurrency scenario: N closed-loop client threads, each with its own
// QuerySession and workload seed, hammer one shared loaded engine with the
// Table 2 point-read and 1-hop queries (Q.14, Q.15, Q.22-Q.24). Sweeps
// the thread count 1 -> hardware_concurrency per engine and reports
// queries/sec, speedup over one thread, and the latency distribution
// (p50/p95/p99) — the dimension the paper's single-client methodology
// cannot see. Cost models are off by default so the numbers are the data
// structures' own; --cost-model turns the emulated round trips back on
// (each thread burns its own CPU-clock charges, see cost_model.h).
//
// With --write-ratio the sweep switches to mixed mode: each client flips
// a coin per op and either reads through a fresh epoch-pinned session or
// commits one of the Fig. 3 CUD batches (Q.2-Q.7, Q.16-Q.21) through the
// engine's single-writer WAL path (src/graph/writer.h). Rows then carry
// per-class latency (R/C/U/D) plus WAL and epoch counters.
//
// Engines load through core::Runner, whose client loop (RunClients) is
// what this scenario measures. Every load failure and client failure is a
// violation.

#include <string>
#include <thread>
#include <vector>

#include "bench/micro/micro.h"
#include "src/core/queries.h"
#include "src/core/runner.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {
namespace {

// The read mix: id lookups + neighborhood expansions, the operations a
// serving workload issues per request (cheap enough per call that the
// sweep measures concurrency, not one giant scan).
const std::vector<int> kReadQueryNumbers = {14, 15, 22, 23, 24};

// The write mix for --write-ratio mode: the Fig. 3 C/U/D operations
// (insert node/edge, set properties, deletes), each committed as one
// WriteBatch through the shared GraphWriter.
const std::vector<int> kWriteQueryNumbers = {2,  3,  4,  5,  6,  7,
                                             16, 17, 18, 19, 20, 21};

std::vector<int> DefaultThreadSweep() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::vector<int> sweep;
  for (int t = 1; t <= static_cast<int>(hw); t *= 2) sweep.push_back(t);
  if (sweep.back() != static_cast<int>(hw)) {
    sweep.push_back(static_cast<int>(hw));
  }
  return sweep;
}

uint64_t Failures(const core::ClientsMeasurement& m) {
  return m.outcomes.Issued() - m.outcomes.Completed();
}

Json LatencyJson(const core::LatencyStats& lat) {
  return Json(Json::Object{
      {"samples", Json(static_cast<int64_t>(lat.samples))},
      {"p50_ms", Json(lat.p50_ms)},
      {"p95_ms", Json(lat.p95_ms)},
      {"p99_ms", Json(lat.p99_ms)},
      {"mean_ms", Json(lat.mean_ms)},
      {"max_ms", Json(lat.max_ms)},
  });
}

// Mixed read/write sweep (--write-ratio): every (threads, ratio) point
// runs against a freshly loaded instance — deletes consume their victim
// pools, so reusing one instance across points would skew later rows.
Json::Object RunMixedSweep(MicroRun& run, const std::vector<int>& sweep,
                           const core::Runner& runner) {
  const MicroBenchFlags& flags = run.flags;
  auto read_specs = core::QueriesByNumber(kReadQueryNumbers);
  auto write_specs = core::QueriesByNumber(kWriteQueryNumbers);

  std::printf(
      "mixed read/write micro-bench: %d iterations/thread, %zu read + %zu "
      "write queries\n\n",
      flags.iterations, read_specs.size(), write_specs.size());
  run.Table({{"engine", "engine", -9},
             {"threads", "threads", 8},
             {"write_ratio", "w-ratio", 7, 2},
             {"ops_per_sec", "ops/s", 10},
             {"failures", "failures", 8},
             {"read_latency.p95_ms", "R p95", 9, 3},
             {"create_latency.p95_ms", "C p95", 9, 3},
             {"update_latency.p95_ms", "U p95", 9, 3},
             {"delete_latency.p95_ms", "D p95", 9, 3},
             {"epochs_published", "epochs", 7}});

  for (const std::string& name : flags.engines) {
    for (int threads : sweep) {
      for (double ratio : flags.write_ratios) {
        std::string point = StrFormat("%s x%d w=%.2f", name.c_str(), threads,
                                      ratio);
        auto loaded = runner.Load(name, run.data);
        if (!run.Check(loaded.status(), point + " load")) continue;
        auto result = runner.RunClients(*loaded, run.data, read_specs,
                                        write_specs, threads,
                                        flags.iterations, ratio);
        if (!run.Check(result.status(), point)) continue;
        run.Check(result->status, point + " client failure");
        const uint64_t reads_ok = result->read_latency.samples;
        run.Emit({
            {"engine", Json(name)},
            {"mode", Json(std::string("mixed"))},
            {"threads", Json(static_cast<int64_t>(threads))},
            {"write_ratio", Json(ratio)},
            {"reads_ok", Json(static_cast<int64_t>(reads_ok))},
            {"writes_ok",
             Json(static_cast<int64_t>(result->outcomes.Completed() -
                                       reads_ok))},
            {"failures", Json(static_cast<int64_t>(Failures(*result)))},
            {"wall_millis", Json(result->wall_millis)},
            {"ops_per_sec", Json(result->OpsPerSec())},
            {"read_latency", LatencyJson(result->read_latency)},
            {"create_latency", LatencyJson(result->create_latency)},
            {"update_latency", LatencyJson(result->update_latency)},
            {"delete_latency", LatencyJson(result->delete_latency)},
            {"epochs_published",
             Json(static_cast<int64_t>(result->epochs_published))},
            {"wal_commits", Json(static_cast<int64_t>(result->wal_commits))},
            {"wal_flushes", Json(static_cast<int64_t>(result->wal_flushes))},
            {"wal_bytes", Json(static_cast<int64_t>(result->wal_bytes))},
        });
      }
    }
  }
  std::printf(
      "\n(mixed closed loop: each op is a WAL commit with probability\n"
      " w-ratio, a read through a fresh epoch-pinned session otherwise;\n"
      " per-class latency is the Fig. 3 C/R/U/D decomposition measured\n"
      " under concurrency — see src/graph/writer.h.)\n");
  return {
      {"bench", Json("micro_concurrency")},
      {"mode", Json(std::string("mixed"))},
      {"dataset", Json(flags.dataset)},
      {"scale", Json(flags.scale)},
      {"iterations_per_thread", Json(static_cast<int64_t>(flags.iterations))},
      {"hardware_concurrency",
       Json(static_cast<int64_t>(std::thread::hardware_concurrency()))},
      {"results", run.TakeRows()},
  };
}

}  // namespace

Json::Object RunConcurrency(MicroRun& run) {
  const MicroBenchFlags& flags = run.flags;
  const std::vector<int> sweep =
      flags.threads.empty() ? DefaultThreadSweep() : flags.threads;

  core::RunnerOptions runner_options;
  runner_options.enable_cost_model = flags.cost_model;
  runner_options.deadline = std::chrono::seconds(120);
  runner_options.memory_budget_bytes = 0;
  core::Runner runner(runner_options);

  if (!flags.write_ratios.empty()) return RunMixedSweep(run, sweep, runner);

  auto specs = core::QueriesByNumber(kReadQueryNumbers);
  std::printf(
      "concurrency micro-bench: %d iterations/thread x %zu read queries, "
      "cost model %s\n\n",
      flags.iterations, specs.size(), flags.cost_model ? "on" : "off");
  run.Table({{"engine", "engine", -9},
             {"threads", "threads", 8},
             {"queries", "queries", 8},
             {"failures", "failures", 8},
             {"queries_per_sec", "queries/s", 12},
             {"speedup_vs_1_thread", "speedup", 8, 2},
             {"lat_p50_ms", "p50 ms", 9, 3},
             {"lat_p95_ms", "p95 ms", 9, 3},
             {"lat_p99_ms", "p99 ms", 9, 3}});

  for (const std::string& name : flags.engines) {
    auto loaded = runner.Load(name, run.data);
    if (!run.Check(loaded.status(), name + " load")) continue;
    double single_thread_qps = 0;
    for (int threads : sweep) {
      std::string point = StrFormat("%s x%d", name.c_str(), threads);
      // --iterations counts rounds over the read mix.
      auto result = runner.RunClients(
          *loaded, run.data, specs, {}, threads,
          flags.iterations * static_cast<int>(specs.size()),
          /*write_ratio=*/0);
      if (!run.Check(result.status(), point)) break;
      run.Check(result->status, point + " client failure");
      // The baseline is strictly the 1-thread row; a sweep without one
      // (e.g. --threads=2,4) reports no speedup rather than a mislabeled
      // ratio.
      if (threads == 1) single_thread_qps = result->OpsPerSec();
      const core::LatencyStats& lat = result->read_latency;
      run.Emit({
          {"engine", Json(name)},
          {"threads", Json(static_cast<int64_t>(threads))},
          {"queries", Json(static_cast<int64_t>(lat.samples))},
          {"failures", Json(static_cast<int64_t>(Failures(*result)))},
          {"wall_millis", Json(result->wall_millis)},
          {"queries_per_sec", Json(result->OpsPerSec())},
          {"speedup_vs_1_thread",
           Json(Ratio(result->OpsPerSec(), single_thread_qps))},
          {"lat_p50_ms", Json(lat.p50_ms)},
          {"lat_p95_ms", Json(lat.p95_ms)},
          {"lat_p99_ms", Json(lat.p99_ms)},
          {"lat_min_ms", Json(lat.min_ms)},
          {"lat_max_ms", Json(lat.max_ms)},
          {"lat_mean_ms", Json(lat.mean_ms)},
      });
    }
  }
  std::printf(
      "\n(closed loop: every thread issues the next query as soon as the\n"
      " previous one returns; speedup is queries/sec relative to the\n"
      " 1-thread row. Reads share one immutable engine snapshot through\n"
      " per-thread QuerySessions — see src/graph/engine.h.)\n");
  return {
      {"bench", Json("micro_concurrency")},
      {"dataset", Json(flags.dataset)},
      {"scale", Json(flags.scale)},
      {"iterations_per_thread", Json(static_cast<int64_t>(flags.iterations))},
      {"cost_model", Json(flags.cost_model)},
      {"hardware_concurrency",
       Json(static_cast<int64_t>(std::thread::hardware_concurrency()))},
      {"results", run.TakeRows()},
  };
}

}  // namespace bench
}  // namespace gdbmicro
