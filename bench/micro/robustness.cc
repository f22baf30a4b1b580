// Robustness scenario (chaos): graceful degradation of the full query
// stack under injected transient faults and shrinking governor memory
// budgets.
//
// Per engine, four sequential legs against freshly loaded instances:
//
//   1. baseline   — fault-free run of the light read mix (Q.14, Q.15,
//                   Q.22, Q.23), recording golden item counts and the
//                   per-class outcome counters.
//   2. faulted x2 — same mix with a QueryFaultInjector at --fault-rate
//                   and bounded retry (--max-attempts). Run twice with
//                   the same seed: counters, item counts, and the
//                   injector's probe/fault totals must be identical
//                   (the determinism contract), goodput must stay within
//                   10% of baseline, and completed runs must reproduce
//                   the golden items (no correctness drift).
//   3. mixed      — single-threaded mixed read/write leg under the same
//                   injector: commits route through GraphWriter, whose
//                   injected aborts leave the store intact and retry.
//   4. memory     — fault-free sweep over --memory-budgets (ascending,
//                   0 = unlimited) with the allocation-heavy queries
//                   (Q.10, Q.31, Q.32): OOM counts must be monotone
//                   non-increasing in the budget, every leg must keep
//                   the outcome identity ok+retried+timeout+oom+failed
//                   == issued, and whatever completes must match the
//                   unlimited leg's items.
//
// Any violated invariant is recorded and fails the run — this is the
// regression harness for the governor/retry machinery, not just a
// reporter. Engines load through core::Runner: its retry policy and
// governor are the subject.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench/micro/micro.h"
#include "src/core/queries.h"
#include "src/core/runner.h"
#include "src/graph/fault.h"
#include "src/util/string_util.h"

namespace gdbmicro {
namespace bench {
namespace {

// Light per-query fault surface (~1-3 emulated remote probes each) so a
// per-probe fault rate of 0.01 keeps per-attempt success high and the
// retry policy — not luck — carries the goodput.
const std::vector<int> kFaultQueryNumbers = {14, 15, 22, 23};

// Allocation-heavy queries for the budget sweep: dedup hash sets (Q.10,
// Q.31), streamed row charges, and the BFS visited structures (Q.32).
const std::vector<int> kMemoryQueryNumbers = {10, 31, 32};

// Mixed-mode mixes for the writer-abort leg.
const std::vector<int> kMixedReadNumbers = {14, 22};
const std::vector<int> kMixedWriteNumbers = {5, 16, 17};

struct LegResult {
  core::OutcomeCounters outcomes;
  double wall_ms = 0;
  // (query name, mode) -> (completed iterations, summed items): the
  // correctness fingerprint compared across legs.
  std::map<std::pair<std::string, int>, std::pair<uint64_t, uint64_t>> items;
};

LegResult RunLeg(MicroRun& run, const core::Runner& runner,
                 const std::string& engine,
                 const std::vector<const core::QuerySpec*>& specs) {
  LegResult leg;
  auto loaded = runner.Load(engine, run.data);
  if (!run.Check(loaded.status(), engine + ": load failed")) return leg;
  for (const core::QuerySpec* spec : specs) {
    for (core::Measurement& m : runner.RunQuery(*loaded, run.data, *spec)) {
      leg.outcomes.Merge(m.outcomes);
      leg.wall_ms += m.millis;
      leg.items[{m.query, static_cast<int>(m.mode)}] = {
          m.outcomes.Completed(), m.items};
    }
  }
  return leg;
}

Json CountersJson(const core::OutcomeCounters& c) {
  Json doc = Json::MakeObject();
  doc.Set("issued", c.Issued());
  doc.Set("ok", c.ok);
  doc.Set("retried", c.retried);
  doc.Set("timeout", c.timeout);
  doc.Set("oom", c.oom);
  doc.Set("failed", c.failed);
  doc.Set("retry_attempts", c.retry_attempts);
  return doc;
}

bool SameCounters(const core::OutcomeCounters& a,
                  const core::OutcomeCounters& b) {
  return a.ok == b.ok && a.retried == b.retried && a.timeout == b.timeout &&
         a.oom == b.oom && a.failed == b.failed &&
         a.retry_attempts == b.retry_attempts;
}

}  // namespace

Json::Object RunRobustness(MicroRun& run) {
  const MicroBenchFlags& flags = run.flags;
  // Ascending budgets, unlimited (0) last: the monotonicity check below
  // walks them as ever-looser limits.
  std::vector<uint64_t> budgets = flags.memory_budgets;
  std::sort(budgets.begin(), budgets.end(), [](uint64_t a, uint64_t b) {
    if (a == 0) return false;
    if (b == 0) return true;
    return a < b;
  });
  const int iterations = flags.iterations;

  core::RunnerOptions base;
  base.deadline = std::chrono::milliseconds(10000);
  base.batch_iterations = iterations;
  base.enable_cost_model = flags.cost_model;
  base.workload_seed = 42;
  base.collect_statistics = flags.stats;
  base.max_attempts = flags.max_attempts;

  auto fault_specs = core::QueriesByNumber(kFaultQueryNumbers);
  auto memory_specs = core::QueriesByNumber(kMemoryQueryNumbers);
  auto mixed_reads = core::QueriesByNumber(kMixedReadNumbers);
  auto mixed_writes = core::QueriesByNumber(kMixedWriteNumbers);
  // Every fault-mix query issues 1 single + `iterations` batch runs.
  const uint64_t expected_issued = fault_specs.size() * (1 + iterations);

  std::printf(
      "robustness micro-bench: fault-rate=%.3f fault-seed=%llu "
      "max-attempts=%d iterations=%d\n\n",
      flags.fault_rate, (unsigned long long)flags.fault_seed,
      flags.max_attempts, iterations);
  // The faulted leg's counters, then the oom count of each budget leg.
  std::vector<Column> columns = {{"engine", "engine", -9},
                                 {"faulted.issued", "issued", 7},
                                 {"faulted.ok", "ok", 7},
                                 {"faulted.retried", "retried", 7},
                                 {"faulted.timeout", "timeout", 7},
                                 {"faulted.oom", "oom", 7},
                                 {"faulted.failed", "failed", 7},
                                 {"faulted.goodput_ratio", "goodput", 7, 3},
                                 {"faulted.probes", "probes", 7}};
  for (size_t i = 0; i < budgets.size(); ++i) {
    columns.push_back(
        {StrFormat("memory_sweep.%zu.oom", i),
         budgets[i] == 0 ? std::string("oom@unlim")
                         : StrFormat("oom@%lluK",
                                     (unsigned long long)(budgets[i] >> 10)),
         10});
  }
  run.Table(std::move(columns));

  for (const std::string& engine : flags.engines) {
    auto fail = [&](const std::string& what) {
      run.Fail(engine + ": " + what);
    };

    // Leg 1: fault-free baseline (golden items, reference goodput).
    core::Runner base_runner(base);
    LegResult baseline = RunLeg(run, base_runner, engine, fault_specs);
    if (baseline.outcomes.Issued() != expected_issued) {
      fail(StrFormat("baseline issued %llu != expected %llu",
                     (unsigned long long)baseline.outcomes.Issued(),
                     (unsigned long long)expected_issued));
    }

    // Leg 2: the same mix under injected faults, twice with the same
    // seed — byte-identical accounting or the determinism contract is
    // broken.
    LegResult faulted[2];
    uint64_t probes[2] = {0, 0};
    uint64_t faults[2] = {0, 0};
    core::OutcomeCounters mixed_outcomes[2];
    uint64_t mixed_epochs[2] = {0, 0};
    for (int rep = 0; rep < 2; ++rep) {
      QueryFaultInjector injector(
          {flags.fault_rate, flags.fault_seed});
      core::RunnerOptions with_faults = base;
      with_faults.fault_injector = &injector;
      core::Runner fault_runner(with_faults);
      faulted[rep] = RunLeg(run, fault_runner, engine, fault_specs);

      // Leg 3 (same injector stream): mixed read/write ops, one client,
      // commits through the writer — injected aborts must retry cleanly.
      auto loaded = fault_runner.Load(engine, run.data);
      if (!loaded.ok()) {
        fail("mixed-mode load failed: " + loaded.status().ToString());
      } else {
        auto mixed = fault_runner.RunClients(*loaded, run.data, mixed_reads,
                                             mixed_writes, /*threads=*/1,
                                             /*ops_per_thread=*/2 * iterations,
                                             /*write_ratio=*/0.5);
        if (!mixed.ok()) {
          fail("mixed-mode run failed: " + mixed.status().ToString());
        } else {
          mixed_outcomes[rep] = mixed->outcomes;
          mixed_epochs[rep] = mixed->epochs_published;
          if (mixed->outcomes.Issued() !=
              static_cast<uint64_t>(2 * iterations)) {
            fail(StrFormat("mixed issued %llu != expected %d",
                           (unsigned long long)mixed->outcomes.Issued(),
                           2 * iterations));
          }
        }
      }
      probes[rep] = injector.probes();
      faults[rep] = injector.faults();
    }
    if (!SameCounters(faulted[0].outcomes, faulted[1].outcomes) ||
        faulted[0].items != faulted[1].items || probes[0] != probes[1] ||
        faults[0] != faults[1] ||
        !SameCounters(mixed_outcomes[0], mixed_outcomes[1]) ||
        mixed_epochs[0] != mixed_epochs[1]) {
      fail("fault legs with the same seed diverged (determinism broken)");
    }
    const LegResult& chaos = faulted[0];
    if (chaos.outcomes.Issued() != expected_issued) {
      fail(StrFormat("faulted issued %llu != expected %llu",
                     (unsigned long long)chaos.outcomes.Issued(),
                     (unsigned long long)expected_issued));
    }
    // Goodput in completed queries: the retry policy must absorb the
    // fault rate to within 10% of fault-free completion.
    if (10 * chaos.outcomes.Completed() < 9 * baseline.outcomes.Completed()) {
      fail(StrFormat("goodput %llu/%llu below 90%% of baseline",
                     (unsigned long long)chaos.outcomes.Completed(),
                     (unsigned long long)baseline.outcomes.Completed()));
    }
    // No correctness drift: a (query, mode) cell that completed as many
    // iterations as the baseline must report the same items.
    for (const auto& [key, golden] : baseline.items) {
      auto it = chaos.items.find(key);
      if (it == chaos.items.end()) continue;
      if (it->second.first == golden.first &&
          it->second.second != golden.second) {
        fail(key.first + " drifted under faults: items " +
             std::to_string(it->second.second) + " != golden " +
             std::to_string(golden.second));
      }
    }

    double goodput_ratio = Ratio(chaos.outcomes.Completed(),
                                 baseline.outcomes.Completed());

    // Leg 4: fault-free budget sweep, loosest budget last. OOM counts
    // must fall (or hold) as the budget grows, and anything that
    // completes under a limit must match the unlimited leg's items.
    std::vector<LegResult> sweep;
    for (uint64_t budget : budgets) {
      core::RunnerOptions with_budget = base;
      with_budget.governor_memory_budget_bytes = budget;
      core::Runner budget_runner(with_budget);
      sweep.push_back(RunLeg(run, budget_runner, engine, memory_specs));
      const LegResult& leg = sweep.back();
      if (leg.outcomes.failed != 0) {
        fail(StrFormat("budget %llu produced %llu permanent failures",
                       (unsigned long long)budget,
                       (unsigned long long)leg.outcomes.failed));
      }
      if (!sweep.empty() && sweep.size() >= 2 &&
          leg.outcomes.oom > sweep[sweep.size() - 2].outcomes.oom) {
        fail(StrFormat("oom count rose with a looser budget (%llu bytes)",
                       (unsigned long long)budget));
      }
    }
    if (!sweep.empty() && budgets.back() == 0) {
      const LegResult& unlimited = sweep.back();
      if (unlimited.outcomes.oom != 0) {
        fail("unlimited budget still reported oom");
      }
      for (size_t i = 0; i + 1 < sweep.size(); ++i) {
        for (const auto& [key, golden] : unlimited.items) {
          auto it = sweep[i].items.find(key);
          if (it == sweep[i].items.end()) continue;
          if (it->second.first == golden.first &&
              it->second.second != golden.second) {
            fail(key.first + " drifted under a memory budget");
          }
        }
      }
    }

    Json chaos_json = CountersJson(chaos.outcomes);
    chaos_json.Set("probes", probes[0]);
    chaos_json.Set("faults", faults[0]);
    chaos_json.Set("goodput_ratio", goodput_ratio);
    Json mixed_json = CountersJson(mixed_outcomes[0]);
    mixed_json.Set("epochs_published", mixed_epochs[0]);
    Json sweep_json = Json::MakeArray();
    for (size_t i = 0; i < sweep.size(); ++i) {
      Json leg_json = CountersJson(sweep[i].outcomes);
      leg_json.Set("budget_bytes", budgets[i]);
      sweep_json.Append(std::move(leg_json));
    }
    run.Emit({
        {"engine", Json(engine)},
        {"baseline", CountersJson(baseline.outcomes)},
        {"faulted", std::move(chaos_json)},
        {"mixed", std::move(mixed_json)},
        {"memory_sweep", std::move(sweep_json)},
    });
  }

  if (run.violations().empty()) {
    std::printf(
        "\nall robustness invariants held: deterministic chaos, goodput "
        "within 10%%, no drift, monotone oom\n");
  }
  Json violations = Json::MakeArray();
  for (const std::string& v : run.violations()) violations.Append(v);
  return {
      {"bench", Json("robustness")},
      {"dataset", Json(flags.dataset)},
      {"scale", Json(flags.scale)},
      {"fault_rate", Json(flags.fault_rate)},
      {"fault_seed", Json(flags.fault_seed)},
      {"max_attempts", Json(flags.max_attempts)},
      {"iterations", Json(iterations)},
      {"engines", run.TakeRows()},
      {"violations", std::move(violations)},
  };
}

}  // namespace bench
}  // namespace gdbmicro
