// Paper-scale sweep: the DYAD-vs-Lustre grid at production scale, driven by
// the parallel replica runner (mdwf::sweep).
//
// The grid doubles pairs from 1 up to `pairs=` (64 by default) with nodes
// sized for 8 ranks per node (split placement: producers on one half,
// consumers on the other), at STMV — the paper's largest model — for both
// DYAD and Lustre.  `corona=1` (default) adds the headline points at the
// paper's full Corona allotment: 120 compute nodes, maximum pairs.  Every
// (point, repetition) fans across `threads=` workers; the merged CSV is
// byte-identical for every thread count, so
//
//   scale_sweep threads=1 out=a.csv && scale_sweep threads=4 out=b.csv
//   cmp a.csv b.csv
//
// is the determinism check and the wall-clock ratio of the two summary
// lines is the speedup (BENCH_pr5.json holds an earlier pair).
//
//   scale_sweep [threads=1] [pairs=64] [frames=16] [reps=3] [model=STMV]
//               [corona=1] [out=<csv path>]
//
// Exit 0 when every grid point ran clean (errors == 0); otherwise exit 1
// with a "gate failed" line on stderr.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "mdwf/common/keyval.hpp"
#include "mdwf/md/models.hpp"
#include "mdwf/sweep/sweep.hpp"

using namespace mdwf;

int main(int argc, char** argv) {
  KeyValueConfig cfg;
  cfg.parse_args(argc, argv);
  const auto threads = static_cast<std::uint32_t>(cfg.get_uint("threads", 1));
  const std::uint64_t frames = cfg.get_uint("frames", 16);
  const auto reps = static_cast<std::uint32_t>(cfg.get_uint("reps", 3));
  const auto max_pairs = static_cast<std::uint32_t>(cfg.get_uint("pairs", 64));
  const bool corona = cfg.get_bool("corona", true);
  const std::string out = cfg.get_string("out", "");
  const std::string model_name = cfg.get_string("model", "STMV");
  if (const auto unknown = cfg.unknown_keys(); !unknown.empty()) {
    std::string msg = "scale_sweep: unknown key(s):";
    for (const auto& k : unknown) msg += " " + k;
    std::fprintf(stderr, "%s\n", msg.c_str());
    return 1;
  }
  const auto model = md::find_model(model_name);
  if (!model.has_value()) {
    std::fprintf(stderr, "scale_sweep: unknown model '%s'\n",
                 model_name.c_str());
    return 1;
  }

  std::vector<sweep::SweepPoint> grid;
  const auto add_point = [&](workflow::Solution sol, const std::string& sname,
                             std::uint32_t pairs, std::uint32_t nodes) {
    workflow::EnsembleConfig c;
    c.solution = sol;
    c.pairs = pairs;
    c.nodes = nodes;
    c.workload.model = *model;
    c.workload.stride = model->stride;
    c.workload.frames = frames;
    c.repetitions = reps;
    c.base_seed = 1;
    grid.push_back({sname + "/pairs" + std::to_string(pairs) + "/nodes" +
                        std::to_string(nodes),
                    c});
  };
  for (std::uint32_t pairs = 1; pairs <= max_pairs; pairs *= 2) {
    // 8 ranks per node: 4 producer ranks per producer node, consumers
    // mirrored on the other half (split placement needs an even count).
    const std::uint32_t nodes = 2 * std::max(1u, (pairs + 7) / 8);
    add_point(workflow::Solution::kDyad, "dyad", pairs, nodes);
    add_point(workflow::Solution::kLustre, "lustre", pairs, nodes);
  }
  if (corona && max_pairs >= 2) {
    // Paper scale: the full Corona allotment, ranks spread thin.
    add_point(workflow::Solution::kDyad, "dyad-corona", max_pairs, 120);
    add_point(workflow::Solution::kLustre, "lustre-corona", max_pairs, 120);
  }

  const sweep::SweepResult result = sweep::run_sweep(std::move(grid), threads);
  const std::string csv = result.to_csv();
  if (!out.empty()) {
    std::ofstream f(out);
    if (!f) {
      std::fprintf(stderr, "scale_sweep: cannot write '%s'\n", out.c_str());
      return 1;
    }
    f << csv;
  } else {
    std::fputs(csv.c_str(), stdout);
  }
  for (const auto& point : result.points) {
    if (point.failed()) {
      std::fprintf(stderr, "scale_sweep: point '%s' failed: %s\n",
                   point.label.c_str(), point.error_text.c_str());
    }
  }
  // On a single-core host a "parallel" run measures thread overhead, not
  // speedup; say so instead of letting a <1x ratio pass for a result.
  const unsigned host_threads =
      std::max(1u, std::thread::hardware_concurrency());
  if (host_threads == 1 && sweep::resolve_threads(threads) > 1) {
    std::fprintf(stderr,
                 "scale_sweep: warning: single hardware thread; the "
                 "thread-count speedup is not meaningful on this host\n");
  }
  // Machine-readable summary: the record, with the out= CSV.
  std::printf(
      "scale_sweep: points=%zu errors=%zu sim_events=%llu wall_s=%.3f "
      "events_per_s=%.0f threads=%u host_threads=%u\n",
      result.points.size(), result.errors,
      static_cast<unsigned long long>(result.total_sim_events),
      result.wall_seconds, result.events_per_second(),
      sweep::resolve_threads(threads), host_threads);
  if (result.errors != 0) {
    std::fprintf(stderr, "scale_sweep: gate failed: errors == 0 (errors=%zu)\n",
                 result.errors);
    return 1;
  }
  return 0;
}
