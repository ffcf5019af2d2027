// Chaos fuzzing: randomized gray-failure schedules vs workflow invariants.
//
// Property-based companion to resilience_sweep: instead of a fixed scenario
// grid, each schedule draws a random solution, fault plan (a named scenario,
// a membership scenario — permanent node loss / healed partition, run with
// the membership plane armed — or a composite of random fail-slow / lossy /
// overload / bit-flip windows), workload size, seed, and health/hedge
// toggles — then runs the ensemble and checks the invariants every recovery
// path promises:
//
//   * completeness    every expected frame is consumed exactly once
//   * integrity       zero unrecovered corrupt reads (checksum runs)
//   * liveness        the run reaches quiescence with a positive makespan
//   * determinism     re-running the identical schedule is bit-identical
//                     (checked on a rotating subset to bound runtime)
//
// On a violation the harness shrinks the schedule — dropping fault windows
// and halving the frame count while the failure persists — and prints a
// minimal reproducer (master seed + schedule index re-derive everything),
// also written to chaos_repro_<index>.txt for CI artifact upload.
//
//   chaos_fuzz [schedules=60] [seed=20260806] [only=<index>] [verbose=1]
//             [threads=1] [cotenant=0] [dag=0]
//
// threads=N fans the independent schedule checks across the sweep engine's
// work-stealing pool; the canonically-first (lowest-index) violation is
// reported and shrunk regardless of which worker found it first, so output
// and exit code match the serial run.
//
// cotenant=1 fuzzes multi-tenant co-schedules instead: each schedule places
// a healthy victim ensemble next to 1-2 chaotic neighbors (workflow tenants
// with crash/bit-flip/overload scenarios, or KVS noise storms) on one
// shared testbed and checks the cross-tenant invariants — every workflow
// tenant still consumes all its frames, nothing loses data, chaos in a
// neighbor never triggers the healthy tenants' recovery machinery, and the
// merged CSV is byte-identical across worker thread counts.
//
// dag=1 fuzzes DAG workload execution instead: each schedule draws a random
// synthetic topology (chain / fork-join / montage), task budget, edge
// payload size, solution, and a recoverable fault plan (the node-loss
// family is excluded — DAG runs have no membership plane), then checks the
// same invariants with the DAG's edge-frame total as the completeness
// denominator.  Shrinking drops fault windows first, then halves the task
// budget; reproducers land in chaos_repro_dag_<index>.txt.
//
// Exit code 0 when every schedule holds, 1 with a reproducer otherwise.
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mdwf/common/format.hpp"
#include "mdwf/common/keyval.hpp"
#include "mdwf/common/rng.hpp"
#include "mdwf/fault/plan.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/tenant/tenant.hpp"
#include "mdwf/wload/wload.hpp"
#include "mdwf/workflow/dag_run.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace {

using namespace mdwf;
using workflow::EnsembleConfig;
using workflow::EnsembleResult;
using workflow::Placement;
using workflow::Solution;

// Named scenarios safe for every solution (fail-slow or recoverable faults;
// DYAD always runs with its full recovery protocol here).
const std::vector<std::string> kNamedPool = {
    "none",      "slow-nvme",  "slow-disk", "lossy-link",
    "overload",  "ost-storm",  "flaky-fabric", "broker-outage",
    "node-crash", "bit-flip",  "crash-flip"};

// Scenarios that need the membership plane armed: permanent loss (with and
// without a straddling publish), a healed partition (the zombie-fencing
// path), and plain crash-recovery run under the plane's heartbeats.  Without
// the plane a permanent loss ends in the deadlock reporter by design — that
// termination path has its own directed test, so the fuzzer always enables
// membership for these.
const std::vector<std::string> kMembershipPool = {
    "node-loss", "loss-after-publish", "heal-after-declare", "node-crash"};

struct Schedule {
  std::uint32_t index = 0;
  Solution solution = Solution::kDyad;
  std::string scenario;  // named scenario, or "composite"
  std::vector<fault::FaultWindow> windows;  // resolved plan
  std::uint64_t seed = 1;
  std::uint64_t frames = 8;
  std::uint32_t pairs = 1;
  bool health = false;
  bool hedge = false;
  bool integrity = false;
  bool membership = false;
};

bool has_corruption_or_crash(const std::vector<fault::FaultWindow>& ws) {
  for (const auto& w : ws) {
    if (w.mode == fault::FaultMode::kBitFlip ||
        w.mode == fault::FaultMode::kCrash ||
        w.mode == fault::FaultMode::kKill) {
      return true;
    }
  }
  return false;
}

// A random degraded-mode window against a random gray target (plus the
// occasional silent-corruption window so integrity re-fetch is exercised).
fault::FaultWindow random_window(Rng& rng, std::uint32_t nodes) {
  fault::FaultWindow w;
  w.start = TimePoint::origin() +
            Duration::seconds(rng.uniform(0.2, 2.0));
  w.duration = Duration::seconds(rng.uniform(0.5, 10.0));
  switch (rng.next_below(5)) {
    case 0:
      w.target = fault::FaultTarget::kSlowDevice;
      w.index = static_cast<std::uint32_t>(rng.next_below(nodes));
      w.mode = fault::FaultMode::kFailSlow;
      w.severity = rng.uniform(0.3, 0.95);
      break;
    case 1:
      w.target = fault::FaultTarget::kLossyLink;
      w.index = static_cast<std::uint32_t>(rng.next_below(nodes));
      w.mode = fault::FaultMode::kLossy;
      w.severity = rng.uniform(0.05, 0.4);
      break;
    case 2:
      w.target = fault::FaultTarget::kSlowNode;
      w.index = static_cast<std::uint32_t>(rng.next_below(nodes));
      w.mode = fault::FaultMode::kFailSlow;
      w.severity = rng.uniform(0.2, 0.8);
      break;
    case 3:
      w.target = fault::FaultTarget::kOverloadedServer;
      w.index = static_cast<std::uint32_t>(rng.next_below(2));
      w.mode = fault::FaultMode::kFailSlow;
      w.severity = rng.uniform(0.5, 0.99);
      break;
    default:
      w.target = rng.bernoulli(0.5) ? fault::FaultTarget::kNodeSsd
                                    : fault::FaultTarget::kNodeLink;
      w.index = static_cast<std::uint32_t>(rng.next_below(nodes));
      w.mode = fault::FaultMode::kBitFlip;
      w.severity = rng.uniform(0.005, 0.02);
      break;
  }
  return w;
}

constexpr std::uint32_t kNodes = 2;

// Derives schedule `index` from the master seed alone: the (seed, index)
// pair IS the reproducer.
Schedule draw_schedule(std::uint64_t master_seed, std::uint32_t index) {
  Rng rng = Rng(master_seed).fork("chaos:" + std::to_string(index));
  Schedule s;
  s.index = index;
  switch (index % 4) {
    case 0: s.solution = Solution::kDyad; break;
    case 1: s.solution = Solution::kXfs; break;
    case 2: s.solution = Solution::kLustre; break;
    default: s.solution = Solution::kStream; break;
  }
  s.frames = 8 + rng.next_below(8);
  s.pairs = 1 + static_cast<std::uint32_t>(rng.next_below(2));
  s.seed = 1 + rng.next_below(1u << 20);
  s.health = rng.bernoulli(0.5);
  s.hedge = s.health && rng.bernoulli(0.7);

  if (rng.bernoulli(0.25)) {
    s.membership = true;
    s.scenario = kMembershipPool[rng.next_below(kMembershipPool.size())];
    fault::ScenarioShape shape;
    shape.compute_nodes = kNodes;
    shape.seed = s.seed;
    s.windows = fault::make_scenario(s.scenario, shape).windows;
  } else if (rng.bernoulli(0.5)) {
    s.scenario = kNamedPool[rng.next_below(kNamedPool.size())];
    fault::ScenarioShape shape;
    shape.compute_nodes = kNodes;
    shape.seed = s.seed;
    s.windows = fault::make_scenario(s.scenario, shape).windows;
  } else {
    s.scenario = "composite";
    const std::uint64_t count = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < count; ++i) {
      s.windows.push_back(random_window(rng, kNodes));
    }
  }
  s.integrity = has_corruption_or_crash(s.windows) || rng.bernoulli(0.25);
  return s;
}

EnsembleConfig make_config(const Schedule& s) {
  EnsembleConfig cfg;
  cfg.solution = s.solution;
  cfg.pairs = s.pairs;
  cfg.nodes = kNodes;
  cfg.placement =
      s.solution == Solution::kXfs ? Placement::kColocated : Placement::kSplit;
  cfg.workload.frames = s.frames;
  cfg.repetitions = 1;
  cfg.base_seed = s.seed;
  cfg.testbed.faults.windows = s.windows;
  cfg.testbed.faults.seed = s.seed;
  cfg.testbed.integrity.enabled = s.integrity;
  cfg.testbed.membership.enabled = s.membership;
  if (s.solution == Solution::kDyad) {
    cfg.testbed.dyad.retry.enabled = true;
    cfg.testbed.dyad.retry.lustre_fallback = true;
    cfg.testbed.dyad.health.enabled = s.health;
    cfg.testbed.dyad.health.hedge.enabled = s.hedge;
  }
  if (s.solution == Solution::kStream) {
    cfg.testbed.stream.health.enabled = s.health;
    cfg.testbed.stream.health.hedge.enabled = s.hedge;
  }
  return cfg;
}

// Checks every invariant; returns the first violation's description.
std::optional<std::string> violation(const Schedule& s,
                                     const EnsembleResult& r) {
  const std::uint64_t expected = s.pairs * s.frames;
  if (r.counters.get("frames_consumed") != expected) {
    return "completeness: consumed " + std::to_string(r.counters.get("frames_consumed")) +
           " of " + std::to_string(expected) + " frames";
  }
  if (r.counters.get("integrity_unrecovered") != 0) {
    return "integrity: " + std::to_string(r.counters.get("integrity_unrecovered")) +
           " unrecovered corrupt reads";
  }
  if (r.counters.get("frames_lost") != 0) {
    return "zero-loss: " + std::to_string(r.counters.get("frames_lost")) +
           " frames lost to a declared node";
  }
  if (!(r.makespan_s.mean() > 0.0)) {
    return "liveness: non-positive makespan " +
           format_double(r.makespan_s.mean(), 6);
  }
  return std::nullopt;
}

std::optional<std::string> check_once(const Schedule& s) {
  return violation(s, workflow::run_ensemble(make_config(s)));
}

// Determinism invariant: the identical schedule replayed must be
// bit-identical in timing and counters.
std::optional<std::string> check_determinism(const Schedule& s) {
  const EnsembleResult a = workflow::run_ensemble(make_config(s));
  const EnsembleResult b = workflow::run_ensemble(make_config(s));
  if (a.makespan_s.mean() != b.makespan_s.mean()) {
    return "determinism: makespan " + format_double(a.makespan_s.mean(), 9) +
           " != " + format_double(b.makespan_s.mean(), 9);
  }
  for (const char* key : {"kvs_lookups", "frames_consumed", "dyad_hedges",
                          "dyad_breaker_trips", "integrity_refetches",
                          "membership_declares", "rank_migrations",
                          "stale_epoch_rejects"}) {
    if (a.counters.get(key) != b.counters.get(key)) {
      return std::string("determinism: counter ") + key + " " +
             std::to_string(a.counters.get(key)) + " != " +
             std::to_string(b.counters.get(key));
    }
  }
  return std::nullopt;
}

std::string describe(const Schedule& s) {
  std::string out = "schedule " + std::to_string(s.index) + ": " +
                    std::string(workflow::to_string(s.solution)) + " " +
                    s.scenario + " seed=" + std::to_string(s.seed) +
                    " frames=" + std::to_string(s.frames) +
                    " pairs=" + std::to_string(s.pairs) +
                    (s.health ? " health" : "") + (s.hedge ? " hedge" : "") +
                    (s.integrity ? " integrity" : "") +
                    (s.membership ? " membership" : "") + ", " +
                    std::to_string(s.windows.size()) + " windows";
  for (const auto& w : s.windows) {
    out += "\n    " + std::string(fault::to_string(w.target)) + "[" +
           std::to_string(w.index) + "] " +
           std::string(fault::to_string(w.mode)) + " sev=" +
           format_double(w.severity, 3) + " at " +
           format_double((w.start - TimePoint::origin()).to_seconds(), 3) +
           "s for " + format_double(w.duration.to_seconds(), 3) + "s";
  }
  return out;
}

// Greedy ddmin-style shrink: drop fault windows one at a time, then halve
// the frame count, keeping every step that still reproduces the violation.
Schedule shrink(Schedule s, const std::string& original) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < s.windows.size(); ++i) {
      Schedule candidate = s;
      candidate.windows.erase(candidate.windows.begin() +
                              static_cast<long>(i));
      if (check_once(candidate).has_value()) {
        s = candidate;
        progressed = true;
        break;
      }
    }
  }
  while (s.frames > 1) {
    Schedule candidate = s;
    candidate.frames /= 2;
    if (!check_once(candidate).has_value()) break;
    s = candidate;
  }
  (void)original;
  return s;
}

void write_reproducer(const Schedule& minimal, std::uint64_t master_seed,
                      const std::string& what) {
  const std::string path =
      "chaos_repro_" + std::to_string(minimal.index) + ".txt";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "violation: %s\nreproduce: chaos_fuzz seed=%llu only=%u\n"
                 "minimal %s\n",
                 what.c_str(),
                 static_cast<unsigned long long>(master_seed), minimal.index,
                 describe(minimal).c_str());
    std::fclose(f);
    std::printf("reproducer written to %s\n", path.c_str());
  }
}

// --- DAG workload mode ----------------------------------------------------

// One randomized DAG schedule: a synthetic graph spec plus the same fault/
// toggle surface as the classic mode.  The graph is regenerated from the
// spec on every check, so shrinking the task budget stays deterministic.
struct DagSchedule {
  std::uint32_t index = 0;
  Solution solution = Solution::kDyad;
  std::string scenario;
  std::vector<fault::FaultWindow> windows;
  wload::SynthSpec spec;
  Bytes chunk = Bytes::mib(1);
  std::uint64_t seed = 1;
  bool health = false;
  bool hedge = false;
  bool integrity = false;
};

// Derives DAG schedule `index` from the master seed alone.  The scenario
// pool is the recoverable subset only: the node-loss family needs the
// membership plane, which DAG runs reject.
DagSchedule draw_dag_schedule(std::uint64_t master_seed, std::uint32_t index) {
  Rng rng = Rng(master_seed).fork("dagchaos:" + std::to_string(index));
  DagSchedule s;
  s.index = index;
  switch (index % 4) {
    case 0: s.solution = Solution::kDyad; break;
    case 1: s.solution = Solution::kXfs; break;
    case 2: s.solution = Solution::kLustre; break;
    default: s.solution = Solution::kStream; break;
  }
  switch (rng.next_below(3)) {
    case 0: s.spec.topology = wload::Topology::kChain; break;
    case 1: s.spec.topology = wload::Topology::kForkJoin; break;
    default: s.spec.topology = wload::Topology::kMontage; break;
  }
  s.spec.tasks = 4 + static_cast<std::uint32_t>(rng.next_below(7));
  s.spec.width = 2 + static_cast<std::uint32_t>(rng.next_below(3));
  s.spec.seed = 1 + rng.next_below(1u << 16);
  s.spec.runtime_median_s = 0.3;
  // Mostly 0.5-4 MiB payloads over a 1 MiB chunk: a mix of single- and
  // multi-frame edges.  One schedule in four moves 64-192 MiB payloads over
  // a 128 MiB chunk instead: frames of 64 MiB and more keep a copy in flight
  // long enough for a crash window to land inside it.  That choice has a
  // stream of its own, so the schedule's other draws stay as they were.
  const double size_draw = rng.uniform(0.0, 3584.0);
  if (Rng(master_seed)
          .fork("dagchaos-size:" + std::to_string(index))
          .bernoulli(0.25)) {
    s.chunk = Bytes::mib(128);
    s.spec.output_median_bytes =
        (64.0 + size_draw / 3584.0 * 128.0) * 1024.0 * 1024.0;
  } else {
    s.spec.output_median_bytes = (512.0 + size_draw) * 1024.0;
  }
  s.seed = 1 + rng.next_below(1u << 20);
  s.health = rng.bernoulli(0.5);
  s.hedge = s.health && rng.bernoulli(0.7);

  if (rng.bernoulli(0.6)) {
    s.scenario = kNamedPool[rng.next_below(kNamedPool.size())];
    fault::ScenarioShape shape;
    shape.compute_nodes = kNodes;
    shape.seed = s.seed;
    s.windows = fault::make_scenario(s.scenario, shape).windows;
  } else {
    s.scenario = "composite";
    const std::uint64_t count = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < count; ++i) {
      s.windows.push_back(random_window(rng, kNodes));
    }
  }
  s.integrity = has_corruption_or_crash(s.windows) || rng.bernoulli(0.25);
  return s;
}

EnsembleConfig make_config(const DagSchedule& s) {
  EnsembleConfig cfg;
  cfg.solution = s.solution;
  cfg.nodes = s.solution == Solution::kXfs ? 1 : kNodes;
  cfg.repetitions = 1;
  cfg.base_seed = s.seed;
  cfg.dag = std::make_shared<const wload::Dag>(
      wload::generate_synthetic(s.spec));
  cfg.dag_chunk = s.chunk;
  cfg.testbed.faults.windows = s.windows;
  cfg.testbed.faults.seed = s.seed;
  cfg.testbed.integrity.enabled = s.integrity;
  if (s.solution == Solution::kDyad) {
    cfg.testbed.dyad.retry.enabled = true;
    cfg.testbed.dyad.retry.lustre_fallback = true;
    cfg.testbed.dyad.health.enabled = s.health;
    cfg.testbed.dyad.health.hedge.enabled = s.hedge;
  }
  if (s.solution == Solution::kStream) {
    cfg.testbed.stream.health.enabled = s.health;
    cfg.testbed.stream.health.hedge.enabled = s.hedge;
  }
  return cfg;
}

// Invariants with the DAG's edge-frame total as the denominator; distinct
// progress only, so crash re-execution never inflates completeness.
std::optional<std::string> violation(const DagSchedule& s,
                                     const EnsembleConfig& cfg,
                                     const EnsembleResult& r) {
  const workflow::DagPlan plan =
      workflow::plan_dag(*cfg.dag, cfg.dag_chunk, cfg.nodes);
  if (r.counters.get("frames_consumed") != plan.total_edge_frames) {
    return "completeness: consumed " +
           std::to_string(r.counters.get("frames_consumed")) + " of " +
           std::to_string(plan.total_edge_frames) + " edge-frames";
  }
  if (r.counters.get("frames_lost") != 0) {
    return "zero-loss: " + std::to_string(r.counters.get("frames_lost")) +
           " edge-frames lost";
  }
  if (r.counters.get("integrity_unrecovered") != 0) {
    return "integrity: " +
           std::to_string(r.counters.get("integrity_unrecovered")) +
           " unrecovered corrupt reads";
  }
  if (!(r.makespan_s.mean() > 0.0)) {
    return "liveness: non-positive makespan " +
           format_double(r.makespan_s.mean(), 6);
  }
  (void)s;
  return std::nullopt;
}

std::optional<std::string> check_once(const DagSchedule& s) {
  const EnsembleConfig cfg = make_config(s);
  return violation(s, cfg, workflow::run_ensemble(cfg));
}

std::optional<std::string> check_determinism(const DagSchedule& s) {
  const EnsembleResult a = workflow::run_ensemble(make_config(s));
  const EnsembleResult b = workflow::run_ensemble(make_config(s));
  if (a.makespan_s.mean() != b.makespan_s.mean()) {
    return "determinism: makespan " + format_double(a.makespan_s.mean(), 9) +
           " != " + format_double(b.makespan_s.mean(), 9);
  }
  for (const char* key :
       {"kvs_lookups", "frames_consumed", "frames_reexecuted",
        "crash_recoveries", "stream_spills", "integrity_refetches"}) {
    if (a.counters.get(key) != b.counters.get(key)) {
      return std::string("determinism: counter ") + key + " " +
             std::to_string(a.counters.get(key)) + " != " +
             std::to_string(b.counters.get(key));
    }
  }
  return std::nullopt;
}

std::string describe(const DagSchedule& s) {
  std::string out =
      "dag-schedule " + std::to_string(s.index) + ": " +
      std::string(workflow::to_string(s.solution)) + " synth:" +
      std::string(wload::topology_name(s.spec.topology)) +
      " tasks=" + std::to_string(s.spec.tasks) +
      " width=" + std::to_string(s.spec.width) +
      " dag_seed=" + std::to_string(s.spec.seed) +
      " bytes~" + std::to_string(
          static_cast<std::uint64_t>(s.spec.output_median_bytes)) +
      " chunk=" + std::to_string(s.chunk.count()) + " " + s.scenario +
      " seed=" + std::to_string(s.seed) +
      (s.health ? " health" : "") + (s.hedge ? " hedge" : "") +
      (s.integrity ? " integrity" : "") + ", " +
      std::to_string(s.windows.size()) + " windows";
  for (const auto& w : s.windows) {
    out += "\n    " + std::string(fault::to_string(w.target)) + "[" +
           std::to_string(w.index) + "] " +
           std::string(fault::to_string(w.mode)) + " sev=" +
           format_double(w.severity, 3) + " at " +
           format_double((w.start - TimePoint::origin()).to_seconds(), 3) +
           "s for " + format_double(w.duration.to_seconds(), 3) + "s";
  }
  return out;
}

// ddmin for DAG schedules: drop fault windows one at a time, then halve
// the task budget (the graph regenerates from the smaller spec, so the
// minimal reproducer is still derived from (seed, index) + the printout).
DagSchedule shrink(DagSchedule s) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < s.windows.size(); ++i) {
      DagSchedule candidate = s;
      candidate.windows.erase(candidate.windows.begin() +
                              static_cast<long>(i));
      if (check_once(candidate).has_value()) {
        s = candidate;
        progressed = true;
        break;
      }
    }
  }
  while (s.spec.tasks > 2) {
    DagSchedule candidate = s;
    candidate.spec.tasks /= 2;
    if (!check_once(candidate).has_value()) break;
    s = candidate;
  }
  return s;
}

int run_dag_fuzz(std::uint64_t schedules, std::uint64_t master_seed,
                 std::int64_t only, bool verbose, std::uint32_t threads) {
  struct Outcome {
    DagSchedule s;
    std::optional<std::string> bad;
    bool checked = false;
  };
  std::vector<Outcome> outcomes(schedules);
  std::vector<std::function<void()>> checks;
  for (std::uint32_t i = 0; i < schedules; ++i) {
    if (only >= 0 && static_cast<std::int64_t>(i) != only) continue;
    checks.push_back([&outcomes, master_seed, only, i] {
      Outcome& o = outcomes[i];
      o.s = draw_dag_schedule(master_seed, i);
      o.bad = (i % 8 == 0 || only >= 0) ? check_determinism(o.s)
                                        : std::nullopt;
      if (!o.bad.has_value()) o.bad = check_once(o.s);
      o.checked = true;
    });
  }
  sweep::run_tasks(std::move(checks), threads);

  std::uint64_t ran = 0;
  for (std::uint32_t i = 0; i < schedules; ++i) {
    const Outcome& o = outcomes[i];
    if (!o.checked) continue;
    ++ran;
    if (verbose) std::printf("%s\n", describe(o.s).c_str());
    if (!o.bad.has_value()) continue;

    std::printf("FAILED %s\n  %s\nshrinking...\n", describe(o.s).c_str(),
                o.bad->c_str());
    const DagSchedule minimal = shrink(o.s);
    const std::string repro = "chaos_fuzz dag=1 seed=" +
                              std::to_string(master_seed) +
                              " only=" + std::to_string(i);
    std::printf("minimal %s\n  reproduce: %s\n", describe(minimal).c_str(),
                repro.c_str());
    const std::string path = "chaos_repro_dag_" + std::to_string(i) + ".txt";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "violation: %s\nreproduce: %s\nminimal %s\n",
                   o.bad->c_str(), repro.c_str(), describe(minimal).c_str());
      std::fclose(f);
      std::printf("reproducer written to %s\n", path.c_str());
    }
    return 1;
  }
  std::printf("chaos_fuzz: %llu DAG schedules held every invariant "
              "(completeness, zero-loss, integrity, liveness, determinism) "
              "[seed=%llu]\n",
              static_cast<unsigned long long>(ran),
              static_cast<unsigned long long>(master_seed));
  return 0;
}

// --- Co-tenant mode ------------------------------------------------------

// Scenarios a chaotic neighbor may run: node-scoped chaos (shifted onto its
// own slice) and shared-service overload.  "none" keeps some neighbors
// healthy so quota/SLO idle paths are fuzzed too.
const std::vector<std::string> kTenantScenarioPool = {
    "none", "node-crash", "bit-flip", "crash-flip", "overload", "rank-kill"};

struct CoSchedule {
  std::uint32_t index = 0;
  tenant::MultiTenantConfig config;
};

bool scenario_corrupts(const std::string& name) {
  return name == "bit-flip" || name == "crash-flip" || name == "node-crash" ||
         name == "rank-kill";
}

tenant::TenantSpec draw_workflow_tenant(Rng& rng, const std::string& name,
                                        bool healthy) {
  tenant::TenantSpec t;
  t.name = name;
  switch (rng.next_below(4)) {
    case 0: t.solution = Solution::kDyad; break;
    case 1: t.solution = Solution::kXfs; break;
    case 2: t.solution = Solution::kLustre; break;
    default: t.solution = Solution::kStream; break;
  }
  if (t.solution == Solution::kXfs) {
    t.nodes = 1;
    t.placement = workflow::Placement::kColocated;
  } else {
    t.nodes = 2;
  }
  t.pairs = 1 + static_cast<std::uint32_t>(rng.next_below(2));
  t.workload.frames = 4 + rng.next_below(5);
  t.faults = healthy
                 ? "none"
                 : kTenantScenarioPool[rng.next_below(
                       kTenantScenarioPool.size())];
  t.slo = rng.bernoulli(0.5);
  t.weight = rng.bernoulli(0.25) ? 2.0 : 1.0;
  return t;
}

// Derives co-schedule `index` from the master seed alone, like
// draw_schedule: tenant 0 is always a healthy victim, followed by 1-2
// chaotic neighbors (workflow chaos or a KVS noise storm).
CoSchedule draw_cotenant_schedule(std::uint64_t master_seed,
                                  std::uint32_t index) {
  Rng rng = Rng(master_seed).fork("cochaos:" + std::to_string(index));
  CoSchedule s;
  s.index = index;
  tenant::MultiTenantConfig& mc = s.config;
  mc.repetitions = 1;
  mc.threads = 1;
  mc.base_seed = 1 + rng.next_below(1u << 20);
  mc.quota = rng.bernoulli(0.7);

  mc.tenants.push_back(draw_workflow_tenant(rng, "victim", /*healthy=*/true));
  const std::uint64_t neighbors = 1 + rng.next_below(2);
  for (std::uint64_t i = 0; i < neighbors; ++i) {
    const std::string name = "n" + std::to_string(i);
    if (rng.bernoulli(0.4)) {
      tenant::TenantSpec t;
      t.name = name;
      t.kind = tenant::TenantKind::kNoise;
      t.nodes = 1;
      t.noise.intensity = 8 + static_cast<std::uint32_t>(rng.next_below(17));
      mc.tenants.push_back(t);
    } else {
      mc.tenants.push_back(
          draw_workflow_tenant(rng, name, /*healthy=*/false));
    }
  }
  // End-to-end integrity whenever any neighbor's plan can corrupt or tear
  // frames, as the key=value binding defaults it.
  bool corrupts = false;
  for (const auto& t : mc.tenants) corrupts |= scenario_corrupts(t.faults);
  mc.testbed.integrity.enabled = corrupts || rng.bernoulli(0.25);
  return s;
}

std::string describe(const CoSchedule& s) {
  // Printed in the driver's tenants= grammar, so the reproducer line can be
  // replayed under mdwf_run directly as well.
  std::string tenants;
  for (const auto& t : s.config.tenants) {
    if (!tenants.empty()) tenants += ",";
    if (t.kind == tenant::TenantKind::kNoise) {
      tenants += t.name + "@noise/" + std::to_string(t.noise.intensity);
    } else {
      tenants += t.name + "@" +
                 std::string(workflow::to_string(t.solution)) + "/" +
                 std::to_string(t.pairs) + "/" + std::to_string(t.nodes) +
                 "/" + t.faults + "/" + format_double(t.weight, 1);
    }
  }
  return "co-schedule " + std::to_string(s.index) + ": tenants=" + tenants +
         " seed=" + std::to_string(s.config.base_seed) +
         (s.config.quota ? " quota" : "") +
         (s.config.testbed.integrity.enabled ? " integrity" : "");
}

// Cross-tenant invariants: completeness and liveness for every workflow
// tenant (chaotic ones must recover), zero unrecovered corruption anywhere,
// and — the isolation core — zero recovery activity in healthy tenants.
std::optional<std::string> violation(const CoSchedule&,
                                     const tenant::MultiTenantResult& r) {
  for (const auto& tr : r.tenants) {
    if (tr.spec.kind != tenant::TenantKind::kWorkflow) continue;
    const auto& c = tr.result.counters;
    const std::uint64_t expected =
        static_cast<std::uint64_t>(tr.spec.pairs) * tr.spec.workload.frames;
    if (c.get("frames_consumed") != expected) {
      return "completeness[" + tr.spec.name + "]: consumed " +
             std::to_string(c.get("frames_consumed")) + " of " +
             std::to_string(expected) + " frames";
    }
    if (!(tr.result.makespan_s.mean() > 0.0)) {
      return "liveness[" + tr.spec.name + "]: non-positive makespan";
    }
    const bool healthy = tr.spec.faults.empty() || tr.spec.faults == "none";
    if (healthy) {
      for (const char* key :
           {"crash_recoveries", "frames_reexecuted", "checkpoint_restores"}) {
        if (c.get(key) != 0) {
          return "isolation[" + tr.spec.name + "]: healthy tenant has " +
                 std::to_string(c.get(key)) + " " + key;
        }
      }
    }
  }
  if (r.shared.get("integrity_unrecovered") != 0) {
    return "integrity: " +
           std::to_string(r.shared.get("integrity_unrecovered")) +
           " unrecovered corrupt reads";
  }
  return std::nullopt;
}

std::optional<std::string> check_once(const CoSchedule& s) {
  return violation(s, tenant::run_multi_tenant(s.config));
}

// Thread-count determinism: the merged CSV (the canonical serialization of
// every sample and counter) must be byte-identical when the repetitions fan
// across a pool.  Checked with reps=2 so there is something to fold.
std::optional<std::string> check_cotenant_determinism(const CoSchedule& s) {
  CoSchedule rep = s;
  rep.config.repetitions = 2;
  rep.config.threads = 1;
  const std::string serial = tenant::run_multi_tenant(rep.config).to_csv();
  rep.config.threads = 2;
  const std::string pooled = tenant::run_multi_tenant(rep.config).to_csv();
  if (serial != pooled) {
    return "determinism: merged CSV differs between threads=1 and threads=2";
  }
  return std::nullopt;
}

// Shrink: drop neighbor tenants while the violation persists, then halve
// every workflow tenant's frame count.
CoSchedule shrink(CoSchedule s) {
  bool progressed = true;
  while (progressed && s.config.tenants.size() > 1) {
    progressed = false;
    for (std::size_t i = 1; i < s.config.tenants.size(); ++i) {
      CoSchedule candidate = s;
      candidate.config.tenants.erase(candidate.config.tenants.begin() +
                                     static_cast<long>(i));
      if (check_once(candidate).has_value()) {
        s = candidate;
        progressed = true;
        break;
      }
    }
  }
  progressed = true;
  while (progressed) {
    progressed = false;
    CoSchedule candidate = s;
    for (auto& t : candidate.config.tenants) {
      if (t.kind == tenant::TenantKind::kWorkflow && t.workload.frames > 1) {
        t.workload.frames /= 2;
        progressed = true;
      }
    }
    if (!progressed || !check_once(candidate).has_value()) break;
    s = candidate;
  }
  return s;
}

int run_cotenant_fuzz(std::uint64_t schedules, std::uint64_t master_seed,
                      std::int64_t only, bool verbose,
                      std::uint32_t threads) {
  struct Outcome {
    CoSchedule s;
    std::optional<std::string> bad;
    bool checked = false;
  };
  std::vector<Outcome> outcomes(schedules);
  std::vector<std::function<void()>> checks;
  for (std::uint32_t i = 0; i < schedules; ++i) {
    if (only >= 0 && static_cast<std::int64_t>(i) != only) continue;
    checks.push_back([&outcomes, master_seed, only, i] {
      Outcome& o = outcomes[i];
      o.s = draw_cotenant_schedule(master_seed, i);
      o.bad = (i % 8 == 0 || only >= 0) ? check_cotenant_determinism(o.s)
                                        : std::nullopt;
      if (!o.bad.has_value()) o.bad = check_once(o.s);
      o.checked = true;
    });
  }
  sweep::run_tasks(std::move(checks), threads);

  std::uint64_t ran = 0;
  for (std::uint32_t i = 0; i < schedules; ++i) {
    const Outcome& o = outcomes[i];
    if (!o.checked) continue;
    ++ran;
    if (verbose) std::printf("%s\n", describe(o.s).c_str());
    if (!o.bad.has_value()) continue;

    std::printf("FAILED %s\n  %s\nshrinking...\n", describe(o.s).c_str(),
                o.bad->c_str());
    const CoSchedule minimal = shrink(o.s);
    const std::string repro = "chaos_fuzz cotenant=1 seed=" +
                              std::to_string(master_seed) +
                              " only=" + std::to_string(i);
    std::printf("minimal %s\n  reproduce: %s\n", describe(minimal).c_str(),
                repro.c_str());
    const std::string path =
        "chaos_repro_cotenant_" + std::to_string(i) + ".txt";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "violation: %s\nreproduce: %s\nminimal %s\n",
                   o.bad->c_str(), repro.c_str(), describe(minimal).c_str());
      std::fclose(f);
      std::printf("reproducer written to %s\n", path.c_str());
    }
    return 1;
  }
  std::printf("chaos_fuzz: %llu co-tenant schedules held every invariant "
              "(completeness, integrity, liveness, isolation, determinism) "
              "[seed=%llu]\n",
              static_cast<unsigned long long>(ran),
              static_cast<unsigned long long>(master_seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  KeyValueConfig cfg;
  cfg.parse_args(argc, argv);
  const std::uint64_t schedules = cfg.get_uint("schedules", 60);
  const std::uint64_t master_seed = cfg.get_uint("seed", 20260806);
  const std::int64_t only = cfg.get_int("only", -1);
  const bool verbose = cfg.get_bool("verbose", false);
  const auto threads = static_cast<std::uint32_t>(cfg.get_uint("threads", 1));
  const bool cotenant = cfg.get_bool("cotenant", false);
  const bool dag = cfg.get_bool("dag", false);
  for (const char* k :
       {"schedules", "seed", "only", "verbose", "threads", "cotenant",
        "dag"}) {
    cfg.note_known(k);
  }

  if (cotenant) {
    return run_cotenant_fuzz(schedules, master_seed, only, verbose, threads);
  }
  if (dag) {
    return run_dag_fuzz(schedules, master_seed, only, verbose, threads);
  }

  // Schedules are independent, so their checks fan across the sweep pool;
  // outcomes land in per-index slots and are reported in index order below,
  // making output and exit code thread-count-invariant.
  struct Outcome {
    Schedule s;
    std::optional<std::string> bad;
    bool checked = false;
  };
  std::vector<Outcome> outcomes(schedules);
  std::vector<std::function<void()>> checks;
  for (std::uint32_t i = 0; i < schedules; ++i) {
    if (only >= 0 && static_cast<std::int64_t>(i) != only) continue;
    checks.push_back([&outcomes, master_seed, only, i] {
      Outcome& o = outcomes[i];
      o.s = draw_schedule(master_seed, i);
      // Every 8th schedule (and any explicitly requested one) is replayed
      // to check bit-identical determinism; the rest run once.
      o.bad = (i % 8 == 0 || only >= 0) ? check_determinism(o.s)
                                        : std::nullopt;
      if (!o.bad.has_value()) o.bad = check_once(o.s);
      o.checked = true;
    });
  }
  sweep::run_tasks(std::move(checks), threads);

  std::uint64_t ran = 0;
  for (std::uint32_t i = 0; i < schedules; ++i) {
    const Outcome& o = outcomes[i];
    if (!o.checked) continue;
    ++ran;
    if (verbose) std::printf("%s\n", describe(o.s).c_str());
    if (!o.bad.has_value()) continue;

    std::printf("FAILED %s\n  %s\nshrinking...\n", describe(o.s).c_str(),
                o.bad->c_str());
    // Shrinking replays candidate schedules serially: it is a fix-up path,
    // and a deterministic reproducer matters more than its wall-clock.
    const Schedule minimal = shrink(o.s, *o.bad);
    std::printf("minimal %s\n  reproduce: chaos_fuzz seed=%llu only=%u\n",
                describe(minimal).c_str(),
                static_cast<unsigned long long>(master_seed), i);
    write_reproducer(minimal, master_seed, *o.bad);
    return 1;
  }
  std::printf("chaos_fuzz: %llu schedules held every invariant "
              "(completeness, integrity, liveness, determinism) "
              "[seed=%llu]\n",
              static_cast<unsigned long long>(ran),
              static_cast<unsigned long long>(master_seed));
  return 0;
}
