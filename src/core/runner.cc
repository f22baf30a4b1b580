#include "src/core/runner.h"

#include <algorithm>
#include <numeric>
#include <thread>

#include "src/query/governor.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace gdbmicro {
namespace core {

namespace {

/// Nanoseconds of `budget` left after `elapsed_ms`; <= 0 means spent.
std::chrono::nanoseconds RemainingNanos(std::chrono::milliseconds budget,
                                        double elapsed_ms) {
  double left_ms = static_cast<double>(budget.count()) - elapsed_ms;
  return std::chrono::nanoseconds(static_cast<int64_t>(left_ms * 1e6));
}

/// Deterministic exponential backoff before re-attempt `attempt` (the
/// first retry is attempt 1): base << (attempt-1) microseconds plus
/// seeded jitter, spun on the cost-model clock (SpinFor burns the calling
/// thread's CPU clock), so the same (seed, stream, attempt) always waits
/// the same emulated time.
void BackoffBeforeRetry(const RunnerOptions& options, uint64_t stream_key,
                        int attempt) {
  int shift = attempt - 1;
  if (shift > 10) shift = 10;  // cap the exponent, not the determinism
  uint64_t base = options.retry_backoff_us << shift;
  if (base == 0) return;
  uint64_t jitter =
      HashInt(options.workload_seed ^ (stream_key * 0x9e3779b97f4a7c15ULL) ^
              static_cast<uint64_t>(attempt)) %
      (base / 2 + 1);
  SpinFor(static_cast<int64_t>(base + jitter));
}

/// Runs one spec under the Runner's bounded-retry policy: only transient
/// (kUnavailable) failures are re-attempted, up to options.max_attempts
/// total tries, with deterministic backoff between them. Successful
/// outcomes are classed ok/retried here; failures are returned for the
/// caller to classify (timeout/oom/failed).
Result<QueryResult> RunAttempts(const QuerySpec& spec, QueryContext& ctx,
                                const RunnerOptions& options,
                                uint64_t stream_key,
                                OutcomeCounters* outcomes) {
  for (int attempt = 1;; ++attempt) {
    if (ctx.session != nullptr) ctx.session->BeginQuery();
    Result<QueryResult> r = spec.run(ctx);
    if (r.ok()) {
      if (attempt > 1) {
        ++outcomes->retried;
      } else {
        ++outcomes->ok;
      }
      return r;
    }
    if (!r.status().IsUnavailable() || attempt >= options.max_attempts) {
      return r;
    }
    ++outcomes->retry_attempts;
    BackoffBeforeRetry(options, stream_key, attempt);
  }
}

/// What one op step saw: whether the op completed (with its latency and
/// result size), and whether its loop must stop.
struct OpStep {
  bool completed = false;
  bool stop = false;
  double millis = 0;
  uint64_t items = 0;
};

/// The per-op step of every runner loop. It arms a governor with what is
/// left of the loop's deadline budget, which started on `budget`, times
/// RunAttempts on `ctx` (whose session the caller chose), and classifies
/// a failure into `outcomes`, keeping the first non-OK status in `*first`
/// for display. A spent budget or a deadline trip stops the loop: further
/// ops cannot complete either. Memory exhaustion and permanent errors
/// leave the session reusable, so the loop goes on.
OpStep RunOp(const QuerySpec& spec, QueryContext& ctx,
             const RunnerOptions& options, const Timer& budget,
             uint64_t stream_key, OutcomeCounters* outcomes, Status* first) {
  OpStep step;
  std::chrono::nanoseconds remaining =
      RemainingNanos(options.deadline, budget.ElapsedMillis());
  if (remaining.count() <= 0) {
    if (first->ok()) {
      *first = Status::DeadlineExceeded(
          "deadline budget (" + std::to_string(options.deadline.count()) +
          " ms) spent");
    }
    ++outcomes->timeout;
    step.stop = true;
    return step;
  }
  query::ResourceGovernor governor(
      {remaining, options.governor_memory_budget_bytes});
  ctx.cancel = governor.token();
  Timer timer;
  Result<QueryResult> r = RunAttempts(spec, ctx, options, stream_key, outcomes);
  step.millis = timer.ElapsedMillis();
  if (r.ok()) {
    step.completed = true;
    step.items = r->items;
    return step;
  }
  const Status& s = r.status();
  if (first->ok()) *first = s;
  if (s.IsDeadlineExceeded()) {
    ++outcomes->timeout;
    step.stop = true;
  } else if (s.IsResourceExhausted()) {
    ++outcomes->oom;
  } else {
    ++outcomes->failed;
  }
  return step;
}

}  // namespace

LatencyStats LatencyStats::FromSamples(std::vector<double> samples_ms) {
  LatencyStats s;
  if (samples_ms.empty()) return s;
  std::sort(samples_ms.begin(), samples_ms.end());
  s.samples = samples_ms.size();
  s.min_ms = samples_ms.front();
  s.max_ms = samples_ms.back();
  s.mean_ms = std::accumulate(samples_ms.begin(), samples_ms.end(), 0.0) /
              static_cast<double>(samples_ms.size());
  // Linear interpolation between closest ranks (the numpy default).
  auto pct = [&samples_ms](double p) {
    double rank = p * static_cast<double>(samples_ms.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, samples_ms.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_ms[lo] * (1.0 - frac) + samples_ms[hi] * frac;
  };
  s.p50_ms = pct(0.50);
  s.p95_ms = pct(0.95);
  s.p99_ms = pct(0.99);
  return s;
}

Result<LoadedEngine> Runner::Load(const std::string& engine_name,
                                  const GraphData& data) const {
  // Reject malformed datasets before an engine is even opened: the
  // engines' native loaders assume in-range endpoint indexes, and a
  // dangling edge should fail with the dataset diagnostic (which edge,
  // which endpoint), not an engine-specific NotFound.
  GDB_RETURN_IF_ERROR(data.Validate());
  EngineOptions engine_options;
  engine_options.enable_cost_model = options_.enable_cost_model;
  engine_options.memory_budget_bytes = options_.memory_budget_bytes;
  engine_options.collect_statistics = options_.collect_statistics;
  engine_options.query_fault_injector = options_.fault_injector;
  // The runner's cost-model setting is an explicit benchmark-profile
  // choice, which the GDBMICRO_COST_MODEL CI toggle must not overrule.
  GDB_ASSIGN_OR_RETURN(std::unique_ptr<GraphEngine> engine,
                       OpenEngine(engine_name, engine_options,
                                  /*honor_cost_model_env=*/false));

  LoadedEngine loaded;
  Timer timer;
  GDB_ASSIGN_OR_RETURN(LoadMapping mapping, engine->BulkLoad(data));
  double load_ms = timer.ElapsedMillis();

  loaded.engine = std::move(engine);
  loaded.session = loaded.engine->CreateSession();
  loaded.prepared = std::make_unique<PreparedQueryCache>(loaded.engine.get());
  loaded.writer = std::make_unique<GraphWriter>(loaded.engine.get());
  loaded.writer->set_fault_injector(options_.fault_injector);
  loaded.mapping = std::make_unique<LoadMapping>(std::move(mapping));
  loaded.workload = std::make_unique<datasets::Workload>(
      &data, loaded.mapping.get(), options_.workload_seed);
  loaded.load_measurement.engine = engine_name;
  loaded.load_measurement.dataset = data.name;
  loaded.load_measurement.query = "Q1";
  loaded.load_measurement.category = Category::kLoad;
  loaded.load_measurement.status = Status::OK();
  loaded.load_measurement.millis = load_ms;
  loaded.load_measurement.items = data.VertexCount() + data.EdgeCount();

  if (options_.create_property_index) {
    auto [name, value] = loaded.workload->VertexProperty(0);
    (void)value;
    // Unsupported index creation is not an error: the paper simply notes
    // which systems cannot exploit it.
    loaded.engine->CreateVertexPropertyIndex(name).ok();
  }
  return loaded;
}

std::vector<Measurement> Runner::RunQuery(LoadedEngine& loaded,
                                          const GraphData& data,
                                          const QuerySpec& spec) const {
  std::vector<Measurement> out;
  auto run_mode = [&](Measurement::Mode mode, int iterations) {
    Measurement m;
    m.engine = std::string(loaded.engine->name());
    m.dataset = data.name;
    m.query = spec.name;
    m.category = spec.category;
    m.mode = mode;
    QueryContext ctx;
    ctx.engine = loaded.engine.get();
    ctx.session = loaded.session.get();
    ctx.workload = loaded.workload.get();
    ctx.prepared = loaded.prepared.get();
    // The whole mode runs under one time budget; each iteration's
    // governor gets what is left of it, so each trip carries its own
    // typed diagnostics and a memory DNF does not poison the next
    // iteration.
    Timer timer;
    std::vector<double> iteration_ms;
    iteration_ms.reserve(static_cast<size_t>(iterations));
    for (int i = 0; i < iterations; ++i) {
      // Batch iterations use indexes 1..N so they never resample the
      // single run's pick (deletion victims must be distinct).
      ctx.iteration = mode == Measurement::Mode::kBatch ? i + 1 : 0;
      OpStep step = RunOp(spec, ctx, options_, timer,
                          static_cast<uint64_t>(ctx.iteration), &m.outcomes,
                          &m.status);
      if (step.completed) {
        // Only completed iterations enter the distribution (a failed run
        // has samples == 0; see the LatencyStats contract in runner.h).
        iteration_ms.push_back(step.millis);
        m.items += step.items;
      }
      if (step.stop) break;
    }
    m.millis = timer.ElapsedMillis();
    m.latency = LatencyStats::FromSamples(std::move(iteration_ms));
    out.push_back(std::move(m));
  };
  run_mode(Measurement::Mode::kSingle, 1);
  if (options_.batch_iterations > 0) {
    run_mode(Measurement::Mode::kBatch, options_.batch_iterations);
  }
  return out;
}

Result<ClientsMeasurement> Runner::RunClients(
    LoadedEngine& loaded, const GraphData& data,
    const std::vector<const QuerySpec*>& read_specs,
    const std::vector<const QuerySpec*>& write_specs, int threads,
    int ops_per_thread, double write_ratio) const {
  const bool writes = write_ratio > 0.0;
  if (threads < 1) {
    return Status::InvalidArgument("RunClients needs at least one thread");
  }
  if (write_ratio < 0.0 || write_ratio > 1.0) {
    return Status::InvalidArgument("write_ratio must be in [0, 1]");
  }
  if (read_specs.empty() || (writes && write_specs.empty())) {
    return Status::InvalidArgument(
        "RunClients needs a read spec, and a write spec when it writes");
  }
  for (const QuerySpec* spec : read_specs) {
    if (spec->mutates) {
      return Status::InvalidArgument(spec->name +
                                     " mutates; pass it in write_specs");
    }
  }
  for (const QuerySpec* spec : write_specs) {
    if (!spec->mutates) {
      return Status::InvalidArgument(spec->name +
                                     " is read-only; pass it in read_specs");
    }
  }
  if (loaded.writer == nullptr) {
    return Status::InvalidArgument("loaded engine has no GraphWriter");
  }

  ClientsMeasurement out;
  // The runner's long-lived session pins the current epoch; holding it
  // across a run with writes would park every commit in BeginApply
  // forever.
  if (writes) loaded.session.reset();
  const uint64_t epochs_before = loaded.engine->epochs().current();
  const Wal& wal = loaded.writer->wal();
  const uint64_t wal_commits_before = wal.commits_logged();
  const uint64_t wal_flushes_before = wal.flushes();

  // Where each op class's latency lands: reads, then the write
  // categories.
  static constexpr LatencyStats ClientsMeasurement::*kClassLatency[] = {
      &ClientsMeasurement::read_latency, &ClientsMeasurement::create_latency,
      &ClientsMeasurement::update_latency,
      &ClientsMeasurement::delete_latency};
  constexpr size_t kClasses = std::size(kClassLatency);
  // Per-client result slots, indexed by thread: no locks on the hot path,
  // no sharing until after the join.
  struct Client {
    std::vector<double> ms[kClasses];
    Status status;
    OutcomeCounters outcomes;
  };
  std::vector<Client> clients(static_cast<size_t>(threads));
  // Per-client workloads: same dataset, disjoint parameter streams.
  std::vector<std::unique_ptr<datasets::Workload>> workloads;
  workloads.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workloads.push_back(std::make_unique<datasets::Workload>(
        &data, loaded.mapping.get(),
        options_.workload_seed + static_cast<uint64_t>(t)));
  }

  Timer wall;
  {
    std::vector<std::thread> running;
    running.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      running.emplace_back([&, t] {
        Client& client = clients[static_cast<size_t>(t)];
        // A coin stream independent of the workload parameter streams, so
        // the read/write interleaving does not perturb victim selection.
        Rng coin(options_.workload_seed ^
                 (0xc0ffee00ULL + static_cast<uint64_t>(t)));
        QueryContext ctx;
        ctx.engine = loaded.engine.get();
        ctx.workload = workloads[static_cast<size_t>(t)].get();
        // The prepared-plan cache is shared across clients by design:
        // lowering happens once, every client runs the same plan through
        // its own session scratch.
        ctx.prepared = loaded.prepared.get();
        ctx.writer = loaded.writer.get();
        std::unique_ptr<QuerySession> session =
            writes ? nullptr : loaded.engine->CreateSession();
        size_t next_read = 0;
        size_t next_write = 0;
        Timer budget;
        for (int op = 0; op < ops_per_thread; ++op) {
          // Victim streams must be globally disjoint: Q.18's delete pool
          // is indexed by iteration, and two clients sharing an index
          // would race to the same victim.
          ctx.iteration = t * ops_per_thread + op;
          const bool is_write = coin.Chance(write_ratio);
          const QuerySpec* spec =
              is_write ? write_specs[next_write++ % write_specs.size()]
                       : read_specs[next_read++ % read_specs.size()];
          // Writes never touch a session: the spec stages a WriteBatch
          // and commits through the shared writer. An injected commit
          // fault aborts with the store and epoch gate intact, which is
          // what makes the retry safe. Amid writes each read opens its
          // own session, which pins the read's snapshot and lets the
          // writer drain; retries reuse it (same snapshot).
          std::unique_ptr<QuerySession> op_session;
          if (!is_write && writes) op_session = loaded.engine->CreateSession();
          ctx.session = is_write ? nullptr
                        : writes ? op_session.get()
                                 : session.get();
          OpStep step = RunOp(*spec, ctx, options_, budget,
                              static_cast<uint64_t>(ctx.iteration),
                              &client.outcomes, &client.status);
          if (step.completed) {
            const size_t c = !is_write ? 0
                             : spec->category == Category::kCreate ? 1
                             : spec->category == Category::kUpdate ? 2
                                                                    : 3;
            client.ms[c].push_back(step.millis);
          }
          if (step.stop) break;
        }
      });
    }
    for (std::thread& c : running) c.join();
  }
  out.wall_millis = wall.ElapsedMillis();
  if (writes) loaded.session = loaded.engine->CreateSession();

  std::vector<double> ms[kClasses];
  for (Client& client : clients) {
    out.outcomes.Merge(client.outcomes);
    for (size_t c = 0; c < kClasses; ++c) {
      ms[c].insert(ms[c].end(), client.ms[c].begin(), client.ms[c].end());
    }
    if (out.status.ok() && !client.status.ok()) out.status = client.status;
  }
  for (size_t c = 0; c < kClasses; ++c) {
    out.*kClassLatency[c] = LatencyStats::FromSamples(std::move(ms[c]));
  }
  out.epochs_published = loaded.engine->epochs().current() - epochs_before;
  out.wal_commits = wal.commits_logged() - wal_commits_before;
  out.wal_flushes = wal.flushes() - wal_flushes_before;
  out.wal_bytes = wal.bytes_logged();
  return out;
}

Result<std::vector<Measurement>> Runner::RunEngine(
    const std::string& engine_name, const GraphData& data,
    const std::vector<const QuerySpec*>& specs) const {
  GDB_ASSIGN_OR_RETURN(LoadedEngine loaded, Load(engine_name, data));
  std::vector<Measurement> results;
  results.push_back(loaded.load_measurement);

  // Non-mutating queries first (stable order otherwise), so reads and
  // traversals observe the pristine dataset.
  std::vector<const QuerySpec*> ordered = specs;
  std::stable_partition(ordered.begin(), ordered.end(),
                        [](const QuerySpec* s) { return !s->mutates; });

  for (const QuerySpec* spec : ordered) {
    std::vector<Measurement> rs = RunQuery(loaded, data, *spec);
    results.insert(results.end(), std::make_move_iterator(rs.begin()),
                   std::make_move_iterator(rs.end()));
  }
  return results;
}

std::vector<Measurement> Runner::RunAll(
    const std::vector<std::string>& engines, const GraphData& data,
    const std::vector<const QuerySpec*>& specs) const {
  std::vector<Measurement> all;
  for (const std::string& name : engines) {
    Result<std::vector<Measurement>> rs = RunEngine(name, data, specs);
    if (rs.ok()) {
      all.insert(all.end(), std::make_move_iterator(rs->begin()),
                 std::make_move_iterator(rs->end()));
    } else {
      Measurement failed;
      failed.engine = name;
      failed.dataset = data.name;
      failed.query = "Q1";
      failed.category = Category::kLoad;
      failed.status = std::move(rs).status();
      all.push_back(std::move(failed));
    }
  }
  return all;
}

}  // namespace core
}  // namespace gdbmicro
