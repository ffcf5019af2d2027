#include "workloads.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "mdwf/common/keyval.hpp"
#include "mdwf/common/suggest.hpp"
#include "mdwf/workflow/config.hpp"
#include "mdwf/workflow/dag_run.hpp"

namespace perfbench {

using namespace mdwf;

void require_known_workload(std::string_view name) {
  for (const std::string_view known : kWorkloadNames) {
    if (name == known) return;
  }
  throw ConfigError("unknown workload '" + std::string(name) + "'" +
                    did_you_mean(name, kWorkloadNames));
}

std::string source_path(std::string_view relative) {
  return std::string(MDWF_SOURCE_ROOT) + "/" + std::string(relative);
}

namespace {

// The workload's key=value config for `seed`: the keys mdwf_run (pipeline
// workloads) or mdwf_advise (advise-dag) take.
KeyValueConfig workload_config(std::string_view workload, std::uint64_t seed) {
  require_known_workload(workload);
  const std::string s = std::to_string(seed);
  std::vector<std::pair<std::string, std::string>> keys;
  // Why these shapes: README.md, "Workloads".
  if (workload == "jac-dyad") {
    keys = {{"solution", "dyad"}, {"model", "JAC"}, {"pairs", "16"},
            {"nodes", "4"},       {"frames", "128"}, {"reps", "1"},
            {"threads", "1"},     {"seed", s}};
  } else if (workload == "stmv-dyad") {
    keys = {{"solution", "dyad"}, {"model", "STMV"}, {"pairs", "8"},
            {"nodes", "2"},       {"frames", "64"},  {"reps", "1"},
            {"threads", "1"},     {"seed", s}};
  } else {
    // The montage graph is generated from a fixed dag_seed, like the
    // fixtures it runs beside: the seed varies the simulation's random
    // streams, not the graph's size, so every seed does the same work.
    keys = {{"workloads",
             "synth:montage,wfcommons:" +
                 source_path("tests/data/wfcommons_staged.json") +
                 ",wfcommons:" +
                 source_path("tests/data/wfcommons_spill.json")},
            {"solutions", "dyad,lustre,stream"},
            {"nodes", "2"},
            {"reps", "3"},
            {"threads", "2"},
            {"dag_tasks", "32"},
            {"dag_width", "8"},
            {"dag_seed", "1"},
            {"seed", s}};
  }
  KeyValueConfig cfg;
  for (auto& [key, value] : keys) cfg.set(std::move(key), std::move(value));
  return cfg;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(item);
  return out;
}

workflow::Solution solution_of(const std::string& name) {
  if (name == "dyad") return workflow::Solution::kDyad;
  if (name == "lustre") return workflow::Solution::kLustre;
  if (name == "stream") return workflow::Solution::kStream;
  throw ConfigError("perfbench: unsupported solution '" + name + "'");
}

}  // namespace

Prepared parse_workload(std::string_view workload, std::uint64_t seed) {
  const KeyValueConfig cfg = workload_config(workload, seed);
  Prepared p;
  if (workload != "advise-dag") {
    p.ensemble = workflow::parse_ensemble_config(cfg);
    p.frames_expected = static_cast<std::uint64_t>(p.ensemble.pairs) *
                        p.ensemble.workload.frames;
    return p;
  }
  // The advisor's keys (mdwf_advise): every cell shares nodes/reps/seed.
  p.dag = true;
  p.dag_refs = split_list(cfg.get_string("workloads", ""));
  for (const auto& name : split_list(cfg.get_string("solutions", ""))) {
    p.solutions.push_back(solution_of(name));
    p.solution_names.push_back(name);
  }
  p.ensemble.nodes = static_cast<std::uint32_t>(cfg.get_uint("nodes", 2));
  p.ensemble.repetitions = static_cast<std::uint32_t>(cfg.get_uint("reps", 3));
  p.ensemble.base_seed = cfg.get_uint("seed", 1);
  p.sweep_threads = static_cast<std::uint32_t>(cfg.get_uint("threads", 1));
  p.dag_defaults.synth_tasks = cfg.get_uint("dag_tasks", 8);
  p.dag_defaults.synth_width =
      static_cast<std::uint32_t>(cfg.get_uint("dag_width", 4));
  p.dag_defaults.synth_seed = cfg.get_uint("dag_seed", 1);
  return p;
}

void load_and_plan(Prepared& p) {
  if (!p.dag) return;
  p.dags.clear();
  p.grid.clear();
  p.frames_expected = 0;
  for (const auto& ref : p.dag_refs) {
    p.dags.push_back(std::make_shared<const wload::Dag>(
        wload::load_workload(ref, p.dag_defaults)));
  }
  // Canonical (workload, solution) order, as mdwf_advise builds it.
  for (const auto& dag : p.dags) {
    const workflow::DagPlan plan =
        workflow::plan_dag(*dag, p.ensemble.dag_chunk, p.ensemble.nodes);
    for (std::size_t s = 0; s < p.solutions.size(); ++s) {
      workflow::EnsembleConfig config = p.ensemble;
      config.solution = p.solutions[s];
      config.dag = dag;
      p.frames_expected += plan.total_edge_frames * config.repetitions;
      p.grid.push_back(
          {dag->name + "/" + p.solution_names[s], std::move(config)});
    }
  }
}

Prepared prepare(std::string_view workload, std::uint64_t seed) {
  Prepared p = parse_workload(workload, seed);
  load_and_plan(p);
  return p;
}

Outcome run_one(const Prepared& p) {
  if (p.dag) return sweep::run_sweep(p.grid, p.sweep_threads);
  return workflow::run_repetition(p.ensemble, 0);
}

RepCheck check_one(const Prepared& p, const Outcome& o) {
  if (const auto* swept = std::get_if<sweep::SweepResult>(&o)) {
    return check_sweep(*swept, p.frames_expected);
  }
  return check_outcome(std::get<workflow::RepOutcome>(o), p.frames_expected);
}

RunArgs parse_run_args(int argc, char** argv) {
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in pairs");
  RunArgs a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  require_known_workload(a.workload);
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double reference_loop_ms() {
  // A dependent multiply-xorshift chain plus a small table walk: integer
  // ALU and L1 traffic only, so it tracks the host's core speed mode.
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t table[1024] = {};
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 1023] += x;
  }
  volatile std::uint64_t sink = table[x & 1023];
  (void)sink;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
