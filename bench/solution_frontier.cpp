// Four-solution frontier sweep: where does the streaming data plane beat
// DYAD's first-touch sync, and where does it lose?
//
// The grid crosses frame size (model), consumer count (pairs), consumer
// lag (the `analytics=` multiplier: lag > 1 is in-situ analysis slower
// than production), and fault scenario for all four solutions (DYAD, XFS,
// Lustre, stream) through the parallel replica runner.  The headline
// metric is the consumer frame-fetch latency distribution: stream wins
// where frames fit the staging buffer (the consumer dodges DYAD's
// per-frame KVS visibility wait), and loses where lagging consumers let
// the aggregate staging demand
//
//   pairs x credits x frame_bytes  >  buffer_capacity
//
// push puts onto the spill path (a Lustre round trip plus up to one
// arrival-timeout of subscriber blindness per frame).  That inequality is
// the crossover parameter the report names.
//
//   solution_frontier [models=JAC,STMV] [pairs=1,4,8] [lags=1,8]
//                     [faults=none,lossy-link,overload] [frames=8] [reps=2]
//                     [threads=1] [out=<csv path>]
//
// stdout carries one "frontier:" line per (model, pairs, faults) regime
// comparing stream vs DYAD P99, then a "solution_frontier:" summary line;
// with the out= CSV that is the record (BENCH_pr6.json holds an earlier
// run).  The CSV excludes wall-clock, so re-runs at any thread count are
// byte-identical.  Exit 0 when every point ran clean (errors == 0) and both
// frontier sides are non-empty (stream_wins >= 1, stream_losses >= 1); a
// failed gate exits 1 with a "gate failed" line on stderr.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "mdwf/common/keyval.hpp"
#include "mdwf/md/models.hpp"
#include "mdwf/sweep/sweep.hpp"
#include "mdwf/workflow/config.hpp"

using namespace mdwf;

namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) items.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

struct Regime {
  std::string model;
  std::string pairs;
  std::string lag;
  std::string faults;
  auto operator<=>(const Regime&) const = default;
};

}  // namespace

int main(int argc, char** argv) {
  KeyValueConfig cfg;
  cfg.parse_args(argc, argv);
  const std::string models_csv = cfg.get_string("models", "JAC,STMV");
  const std::string pairs_csv = cfg.get_string("pairs", "1,4,8");
  const std::string lags_csv = cfg.get_string("lags", "1,8");
  const std::string faults_csv =
      cfg.get_string("faults", "none,lossy-link,overload");
  const std::uint64_t frames = cfg.get_uint("frames", 8);
  const std::uint64_t reps = cfg.get_uint("reps", 2);
  const auto threads = static_cast<std::uint32_t>(cfg.get_uint("threads", 1));
  const std::string out = cfg.get_string("out", "");
  if (const auto unknown = cfg.unknown_keys(); !unknown.empty()) {
    std::string msg = "solution_frontier: unknown key(s):";
    for (const auto& k : unknown) msg += " " + k;
    std::fprintf(stderr, "%s\n", msg.c_str());
    return 1;
  }

  static constexpr const char* kSolutions[] = {"dyad", "xfs", "lustre",
                                               "stream"};
  std::vector<sweep::SweepPoint> grid;
  for (const std::string& model : split_list(models_csv)) {
    for (const std::string& pairs : split_list(pairs_csv)) {
      for (const std::string& lag : split_list(lags_csv)) {
        for (const std::string& faults : split_list(faults_csv)) {
          for (const char* solution : kSolutions) {
            // One KeyValueConfig per point: the shared binding applies
            // every cross-key rule (XFS single-node, retry-on-faults,
            // integrity auto-enable) exactly as mdwf_run would.
            KeyValueConfig point;
            point.set("solution", solution);
            point.set("model", model);
            point.set("pairs", pairs);
            point.set("analytics", lag);
            point.set("frames", std::to_string(frames));
            point.set("reps", std::to_string(reps));
            point.set("faults", faults);
            workflow::EnsembleConfig defaults;
            defaults.nodes = 2;  // split placement (XFS overrides to 1)
            workflow::EnsembleConfig c;
            try {
              c = workflow::parse_ensemble_config(point, defaults);
            } catch (const ConfigError& e) {
              std::fprintf(stderr, "solution_frontier: %s\n", e.what());
              return 1;
            }
            grid.push_back({std::string(solution) + "/" + model + "/pairs" +
                                pairs + "/lag" + lag + "/" + faults,
                            c});
          }
        }
      }
    }
  }

  const sweep::SweepResult result = sweep::run_sweep(std::move(grid), threads);

  std::string csv =
      "solution,model,pairs,nodes,lag,faults,frame_mib,fetch_p50_us,"
      "fetch_p99_us,"
      "cons_move_us,cons_idle_us,makespan_s,stream_staged_hits,stream_spills,"
      "stream_spill_reads,stream_credit_waits,stream_backpressure_stalls,"
      "integrity_unrecovered,frames_consumed\n";
  // (model, pairs, faults) -> solution -> fetch P99 (us), for the frontier.
  std::map<Regime, std::map<std::string, double>> p99;
  std::size_t idx = 0;
  for (const std::string& model : split_list(models_csv)) {
    for (const std::string& pairs : split_list(pairs_csv)) {
      for (const std::string& lag : split_list(lags_csv)) {
        for (const std::string& faults : split_list(faults_csv)) {
          for (const char* solution : kSolutions) {
            const sweep::PointResult& pt = result.points[idx++];
            if (pt.failed()) {
              std::fprintf(stderr,
                           "solution_frontier: point '%s' failed: %s\n",
                           pt.label.c_str(), pt.error_text.c_str());
              continue;
            }
            const workflow::EnsembleResult& r = pt.result;
            const double fetch_p99 = r.cons_fetch_us.quantile(0.99);
            p99[{model, pairs, lag, faults}][solution] = fetch_p99;
            char line[512];
            std::snprintf(
                line, sizeof(line),
                "%s,%s,%s,%u,%s,%s,%.3f,%.1f,%.1f,%.1f,%.1f,%.4f,%llu,%llu,"
                "%llu,%llu,%llu,%llu,%llu\n",
                solution, model.c_str(), pairs.c_str(), pt.config.nodes,
                lag.c_str(), faults.c_str(),
                pt.config.workload.model.frame_bytes().to_mib(),
                r.cons_fetch_us.quantile(0.50), fetch_p99,
                r.cons_movement_us.mean(), r.cons_idle_us.mean(),
                r.makespan_s.mean(),
                static_cast<unsigned long long>(r.counters.get("stream_staged_hits")),
                static_cast<unsigned long long>(r.counters.get("stream_spills")),
                static_cast<unsigned long long>(r.counters.get("stream_spill_reads")),
                static_cast<unsigned long long>(r.counters.get("stream_credit_waits")),
                static_cast<unsigned long long>(
                    r.counters.get("stream_backpressure_stalls")),
                static_cast<unsigned long long>(r.counters.get("integrity_unrecovered")),
                static_cast<unsigned long long>(r.counters.get("frames_consumed")));
            csv += line;
          }
        }
      }
    }
  }

  if (!out.empty()) {
    std::ofstream f(out);
    if (!f) {
      std::fprintf(stderr, "solution_frontier: cannot write '%s'\n",
                   out.c_str());
      return 1;
    }
    f << csv;
  } else {
    std::fputs(csv.c_str(), stdout);
  }

  // The frontier: stream vs DYAD consumer fetch P99 per regime, annotated
  // with the staging-demand side of the crossover inequality.
  const stream::StreamParams stream_defaults{};
  const double buffer_mib = stream_defaults.buffer_capacity.to_mib();
  std::size_t wins = 0;
  std::size_t losses = 0;
  for (const auto& [regime, by_solution] : p99) {
    const auto s = by_solution.find("stream");
    const auto d = by_solution.find("dyad");
    if (s == by_solution.end() || d == by_solution.end()) continue;
    const auto model = md::find_model(regime.model);
    const double demand_mib = model.has_value()
                                  ? std::stod(regime.pairs) *
                                        stream_defaults.credits *
                                        model->frame_bytes().to_mib()
                                  : 0.0;
    const bool win = s->second < d->second;
    (win ? wins : losses) += 1;
    std::printf(
        "frontier: model=%s pairs=%s lag=%s faults=%s stream_p99_us=%.1f "
        "dyad_p99_us=%.1f staging_demand_mib=%.1f buffer_mib=%.1f winner=%s\n",
        regime.model.c_str(), regime.pairs.c_str(), regime.lag.c_str(),
        regime.faults.c_str(), s->second, d->second, demand_mib, buffer_mib,
        win ? "stream" : "dyad");
  }

  std::printf(
      "solution_frontier: points=%zu errors=%zu stream_wins=%zu "
      "stream_losses=%zu sim_events=%llu\n",
      result.points.size(), result.errors, wins, losses,
      static_cast<unsigned long long>(result.total_sim_events));
  int status = 0;
  if (result.errors != 0) {
    std::fprintf(stderr,
                 "solution_frontier: gate failed: errors == 0 (errors=%zu)\n",
                 result.errors);
    status = 1;
  }
  // A frontier needs both sides; an all-win or all-lose grid means the
  // sweep no longer brackets the crossover.
  if (wins < 1) {
    std::fprintf(stderr,
                 "solution_frontier: gate failed: stream_wins >= 1 "
                 "(stream_wins=%zu)\n",
                 wins);
    status = 1;
  }
  if (losses < 1) {
    std::fprintf(stderr,
                 "solution_frontier: gate failed: stream_losses >= 1 "
                 "(stream_losses=%zu)\n",
                 losses);
    status = 1;
  }
  return status;
}
