// The benchmark's three workloads and the correctness gate they share.
//
// Each workload is set up from a seed (config parse, workload load and
// planning), then run one repetition at a time.  A repetition of a pipeline
// workload is one workflow::run_repetition; a repetition of advise-dag is
// one full advisor query (load nothing, sweep the prepared grid).  Every
// repetition of one prepared workload simulates exactly the same thing, so
// its digest must repeat.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "mdwf/sweep/sweep.hpp"
#include "mdwf/wload/wload.hpp"
#include "mdwf/workflow/ensemble.hpp"

namespace perfbench {

inline constexpr std::string_view kWorkloadNames[] = {"jac-dyad", "stmv-dyad",
                                                      "advise-dag"};

// Throws mdwf::ConfigError for a name outside kWorkloadNames.
void require_known_workload(std::string_view name);

// Absolute path of a file in the source tree (fixtures resolve from there,
// never from the working directory).
std::string source_path(std::string_view relative);

// What set-up produces.  Pipeline workloads fill `ensemble`.  For
// advise-dag, `ensemble` holds the settings every advisor cell shares,
// parsing fills the dag_* fields and load_and_plan fills `dags` and `grid`
// (the workload x solution cells).
struct Prepared {
  bool dag = false;
  mdwf::workflow::EnsembleConfig ensemble;
  std::vector<std::string> dag_refs;
  mdwf::wload::WorkloadDefaults dag_defaults;
  std::vector<mdwf::workflow::Solution> solutions;
  std::vector<std::string> solution_names;
  std::vector<std::shared_ptr<const mdwf::wload::Dag>> dags;
  std::vector<mdwf::sweep::SweepPoint> grid;
  std::uint32_t sweep_threads = 1;
  // Frames one repetition must deliver end to end (edge frames for DAGs).
  std::uint64_t frames_expected = 0;
};

// Parses the workload's key=value config (the keys mdwf_run or mdwf_advise
// take) into a Prepared without loading DAGs (set-up stage 1).
Prepared parse_workload(std::string_view workload, std::uint64_t seed);

// Loads DAG workloads and plans the advisor grid (set-up stage 2); no-op
// for pipeline workloads.
void load_and_plan(Prepared& p);

// parse_workload + load_and_plan.
Prepared prepare(std::string_view workload, std::uint64_t seed);

// The simulated outputs of one repetition that the gate inspects.  Never
// holds host time.
struct RepCheck {
  std::uint64_t frames_expected = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t integrity_unrecovered = 0;
  std::uint64_t failed_points = 0;
  bool all_finite = true;
  std::uint32_t digest = 0;
};

// Digest and invariants of one pipeline repetition / one advisor query.
RepCheck check_outcome(const mdwf::workflow::RepOutcome& rep,
                       std::uint64_t frames_expected);
RepCheck check_sweep(const mdwf::sweep::SweepResult& swept,
                     std::uint64_t frames_expected);

// One repetition's simulated output: the RepOutcome of a pipeline
// repetition, or the SweepResult of an advisor query.
using Outcome =
    std::variant<mdwf::workflow::RepOutcome, mdwf::sweep::SweepResult>;

// Runs one repetition of a prepared workload.  Does no checking, so timing
// it times the simulator alone.
Outcome run_one(const Prepared& p);

// Digest and invariants of an outcome of run_one(p).
RepCheck check_one(const Prepared& p, const Outcome& o);

// The seed whose digests are recorded, and the recorded digest of each
// workload's repetition at that seed (nullopt at any other seed).  A
// simulator change that keeps simulated output byte-identical keeps these.
inline constexpr std::uint64_t kRecordedSeed = 1;
std::optional<std::uint32_t> recorded_digest(std::string_view workload,
                                             std::uint64_t seed);

// Empty when the repetition passes; otherwise a message naming the workload
// and the first failed check.  `expected_digest` is the recorded digest (at
// the recorded seed) or the first repetition's digest (at any other seed).
std::string gate_error(std::string_view workload, const RepCheck& c,
                       std::optional<std::uint32_t> expected_digest);

// Counts gated repetitions and reports each failure on stderr.  At a seed
// with no recorded digest, the first repetition's digest becomes the one
// every later repetition must match.
class Gate {
 public:
  Gate(std::string workload, std::optional<std::uint32_t> digest)
      : workload_(std::move(workload)), digest_(digest) {}

  // Checks one repetition of the workload against the workload's digest.
  void check(const RepCheck& c);
  // Checks another simulation's outputs: the invariants, and `digest` when
  // given.
  void check_against(const RepCheck& c, std::optional<std::uint32_t> digest);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::optional<std::uint32_t> digest() const { return digest_; }

 private:
  std::string workload_;
  std::optional<std::uint32_t> digest_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Command line shared by the benchmark programs:
//   --workload <name> --seed <n> --seconds <s>
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

// Throws std::invalid_argument or mdwf::ConfigError on a bad command line.
RunArgs parse_run_args(int argc, char** argv);

// Host-speed reference: a fixed integer loop in this file's own code,
// independent of the simulator.  Returns milliseconds.
double reference_loop_ms();

}  // namespace perfbench
