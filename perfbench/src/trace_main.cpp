// Traced run of one workload: exact per-frame counts, layer probes, spans
// around the benchmark's own calls into each module, and an attribution of
// the measured host time per frame.  The end-to-end numbers come from
// perfbench_e2e, which links none of this.
//
//   perfbench_trace --workload <name> --seed <n> --seconds <s>
//  //
// Prints a per-layer table, then one JSON object as the last line:
//   {"attempted":..,"failed":..,"metrics":{"<layer>.<metric>":{"value":..,
//    "unit":..}}}
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/workflow/dag_run.hpp"
#include "mdwf/workflow/ensemble.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace mdwf;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

template <class F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_since(t0);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;  // the end-to-end metric it should move, and where
};

struct Counts {
  double frames = 0;
  double events = 0;
  double page_ops = 0;
  double kvs_ops = 0;
  double allocs = 0;
};

void add_counters(Counts& n, const obs::CounterMap& c) {
  n.events += static_cast<double>(c.get("sim_events"));
  n.page_ops +=
      static_cast<double>(c.get("cache_hits") + c.get("cache_misses"));
  n.kvs_ops += static_cast<double>(c.get("kvs_commits") + c.get("kvs_lookups"));
  n.frames += static_cast<double>(c.get("frames_consumed"));
}

// The advisor query as one ensemble per cell, serially: the unit whose
// per-repetition time and fold time the spans report for advise-dag.
struct CellRuns {
  std::vector<double> rep_ms;
  std::vector<double> fold_ms;
};

CellRuns run_cells(const perfbench::Prepared& p, perfbench::Gate& gate) {
  CellRuns out;
  for (const auto& point : p.grid) {
    workflow::EnsembleResult folded = workflow::make_ensemble_result();
    for (std::uint32_t rep = 0; rep < point.config.repetitions; ++rep) {
      workflow::RepOutcome o;
      out.rep_ms.push_back(
          time_ms([&] { o = workflow::run_repetition(point.config, rep); }));
      const std::uint64_t expected =
          workflow::plan_dag(*point.config.dag, point.config.dag_chunk,
                             point.config.nodes)
              .total_edge_frames;
      gate.check_against(perfbench::check_outcome(o, expected), std::nullopt);
      out.fold_ms.push_back(time_ms(
          [&] { workflow::fold_repetition(folded, std::move(o)); }));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  try {
    args = perfbench::parse_run_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 2;
  }
  const std::string& w = args.workload;
  const auto run_start = Clock::now();
  std::vector<Metric> m;
  perfbench::Gate gate(w, perfbench::recorded_digest(w, args.seed));

  try {
    const double ref_ms = perfbench::median(
        {perfbench::reference_loop_ms(), perfbench::reference_loop_ms(),
         perfbench::reference_loop_ms()});

    // --- Spans around set-up.
    std::vector<double> parse_ms;
    for (int i = 0; i < 200; ++i) {
      parse_ms.push_back(
          time_ms([&] { (void)perfbench::parse_workload(w, args.seed); }));
    }
    perfbench::Prepared p = perfbench::parse_workload(w, args.seed);
    std::vector<double> load_ms;
    for (int i = 0; i < 5; ++i) {
      load_ms.push_back(time_ms([&] { perfbench::load_and_plan(p); }));
    }

    // --- Exact counts of one repetition.  The advisor query runs at one
    // thread here so the allocation count does not depend on scheduling.
    Counts n;
    {
      const std::uint64_t a0 = perfbench::allocation_count();
      if (p.dag) {
        const sweep::SweepResult swept = sweep::run_sweep(p.grid, 1);
        n.allocs = static_cast<double>(perfbench::allocation_count() - a0);
        gate.check(perfbench::check_sweep(swept, p.frames_expected));
        for (const auto& pt : swept.points) add_counters(n, pt.result.counters);
      } else {
        workflow::RepOutcome o = workflow::run_repetition(p.ensemble, 0);
        n.allocs = static_cast<double>(perfbench::allocation_count() - a0);
        gate.check(perfbench::check_outcome(o, p.frames_expected));
        add_counters(n, o.counters);
      }
    }
    const double frames = std::max(n.frames, 1.0);

    // --- Spans around repetitions and folds, for a quarter of the run.
    std::vector<double> rep_ms;
    std::vector<double> fold_ms;
    const double quarter_ms = args.seconds * 1e3 / 4;
    const auto spans_start = Clock::now();
    if (p.dag) {
      while (rep_ms.empty() || ms_since(spans_start) < quarter_ms) {
        CellRuns c = run_cells(p, gate);
        rep_ms.insert(rep_ms.end(), c.rep_ms.begin(), c.rep_ms.end());
        fold_ms.insert(fold_ms.end(), c.fold_ms.begin(), c.fold_ms.end());
      }
    } else {
      workflow::EnsembleResult folded = workflow::make_ensemble_result();
      while (rep_ms.size() < 5 || ms_since(spans_start) < quarter_ms) {
        workflow::RepOutcome o;
        rep_ms.push_back(
            time_ms([&] { o = workflow::run_repetition(p.ensemble, 0); }));
        gate.check(perfbench::check_outcome(o, p.frames_expected));
        fold_ms.push_back(time_ms(
            [&] { workflow::fold_repetition(folded, std::move(o)); }));
      }
    }

    // --- The sweep layer, for another quarter: the workload's grid at one
    // and two threads, alternated.  Pipeline workloads sweep four
    // repetitions of their ensemble.
    std::vector<sweep::SweepPoint> grid = p.grid;
    std::uint64_t grid_frames = p.frames_expected;
    if (!p.dag) {
      workflow::EnsembleConfig c = p.ensemble;
      c.repetitions = 4;
      grid = {{w, c}};
      grid_frames = 4 * p.frames_expected;
    }
    std::vector<double> sweep1_ms;
    std::vector<double> sweep2_ms;
    const auto sweep_start = Clock::now();
    while (sweep2_ms.size() < 3 || ms_since(sweep_start) < quarter_ms) {
      for (const std::uint32_t threads : {1u, 2u}) {
        sweep::SweepResult swept;
        const double t =
            time_ms([&] { swept = sweep::run_sweep(grid, threads); });
        (threads == 1 ? sweep1_ms : sweep2_ms).push_back(t);
        const perfbench::RepCheck c =
            perfbench::check_sweep(swept, grid_frames);
        // A pipeline's four-repetition grid is another simulation than its
        // repetition 0; the advisor grid is the workload's own query.
        p.dag ? gate.check(c) : gate.check_against(c, std::nullopt);
      }
    }

    // --- Tracing overhead: the same repetition with and without a sink
    // (for advise-dag, the first cell).  Tracing must not change the
    // simulated output.
    const workflow::EnsembleConfig& traced_cfg =
        p.dag ? p.grid.front().config : p.ensemble;
    const std::uint64_t traced_frames =
        p.dag ? workflow::plan_dag(*traced_cfg.dag, traced_cfg.dag_chunk,
                                   traced_cfg.nodes)
                    .total_edge_frames
              : p.frames_expected;
    std::vector<double> plain_ms;
    std::vector<double> sink_ms;
    for (int i = 0; i < 5; ++i) {
      workflow::RepOutcome plain;
      workflow::RepOutcome traced;
      plain_ms.push_back(
          time_ms([&] { plain = workflow::run_repetition(traced_cfg, 0); }));
      sink_ms.push_back(time_ms([&] {
        obs::TraceSink sink;
        traced = workflow::run_repetition(traced_cfg, 0, &sink);
      }));
      const perfbench::RepCheck a =
          perfbench::check_outcome(plain, traced_frames);
      p.dag ? gate.check_against(a, std::nullopt) : gate.check(a);
      gate.check_against(perfbench::check_outcome(traced, traced_frames),
                         a.digest);
    }

    // --- Probes with the workload's traffic shape.
    const perfbench::Shape shape = perfbench::shape_of(p);
    const double sim_ns = perfbench::probe_sim_ns_per_event(shape);
    const double page_ns = perfbench::probe_storage_ns_per_page_op(shape);
    const double kvs_ns = perfbench::probe_kvs_ns_per_op(shape);
    const double net_ns = perfbench::probe_net_ns_per_transfer(shape);
    const double lustre_ns = perfbench::probe_lustre_ns_per_frame(shape);
    const double dyad_ns = perfbench::probe_connector_ns_per_frame(
        shape, workflow::Solution::kDyad);
    const double stream_ns = perfbench::probe_connector_ns_per_frame(
        shape, workflow::Solution::kStream);
    const double parse_ns = perfbench::probe_wload_parse_ns_per_byte();

    // --- Attribution of the host time per frame of one repetition (for
    // advise-dag: of the query at one thread, where the counts were taken).
    const double host_ns_per_frame =
        p.dag ? perfbench::median(sweep1_ms) * 1e6 / frames
              : perfbench::median(rep_ms) * 1e6 / frames;
    const double sim_share = n.events / frames * sim_ns / host_ns_per_frame;
    const double storage_share =
        n.page_ops / frames * page_ns / host_ns_per_frame;
    const double kvs_share = n.kvs_ops / frames * kvs_ns / host_ns_per_frame;

    const std::string all = "frames_per_s on all three workloads";
    m = {
        {"sim.events_per_frame", n.events / frames, "count", all},
        {"storage.page_ops_per_frame", n.page_ops / frames, "count",
         "frames_per_s on stmv-dyad"},
        {"kvs.ops_per_frame", n.kvs_ops / frames, "count",
         "frames_per_s on advise-dag and jac-dyad"},
        {"host.allocs_per_frame", n.allocs / frames, "count",
         "frames_per_s on jac-dyad and stmv-dyad"},
        {"sim.ns_per_event", sim_ns, "ns", "frames_per_s on jac-dyad"},
        {"storage.ns_per_page_op", page_ns, "ns",
         "frames_per_s on stmv-dyad; none on jac-dyad"},
        {"kvs.ns_per_op", kvs_ns, "ns", "frames_per_s on advise-dag"},
        {"net.ns_per_transfer", net_ns, "ns",
         "frames_per_s on jac-dyad and advise-dag"},
        {"fs.lustre_ns_per_frame", lustre_ns, "ns",
         "frames_per_s on advise-dag"},
        {"dyad.ns_per_frame", dyad_ns, "ns", "frames_per_s on jac-dyad"},
        {"stream.ns_per_frame", stream_ns, "ns", "frames_per_s on advise-dag"},
        {"wload.parse_ns_per_byte", parse_ns, "ns/B", "setup_s on advise-dag"},
        {"workflow.parse_ms", perfbench::median(parse_ms), "ms", "setup_s"},
        {"wload.load_ms", p.dag ? perfbench::median(load_ms) : 0.0, "ms",
         "setup_s on advise-dag (pipelines load no DAG)"},
        {"workflow.rep_ms", perfbench::median(rep_ms), "ms",
         "frames_per_s"},
        {"workflow.fold_ms", perfbench::median(fold_ms), "ms",
         "frames_per_s"},
        {"sweep.run_ms", perfbench::median(sweep2_ms), "ms",
         "frames_per_s on advise-dag"},
        {"sweep.speedup",
         perfbench::median(sweep1_ms) / perfbench::median(sweep2_ms), "x",
         "frames_per_s on advise-dag"},
        {"sim.share", sim_share, "ratio", "attribution"},
        {"storage.share", storage_share, "ratio", "attribution"},
        {"kvs.share", kvs_share, "ratio", "attribution"},
        {"unattributed.share", 1.0 - sim_share - storage_share - kvs_share,
         "ratio", "attribution (remainder; the shares overlap)"},
        {"obs.trace_overhead_pct",
         100.0 * (perfbench::median(sink_ms) / perfbench::median(plain_ms) -
                  1.0),
         "%", "no end-to-end metric (they run untraced); target <= 10"},
        {"host.ref_ms", ref_ms, "ms", "host speed record"},
    };
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: workload %s: %s\n", w.c_str(),
                 e.what());
    return 2;
  }

  std::printf("per-layer table, workload %s seed %llu (%.1f s)\n", w.c_str(),
              static_cast<unsigned long long>(args.seed),
              ms_since(run_start) / 1e3);
  std::printf("  %-28s %14s %-6s  %s\n", "metric", "value", "unit", "moves");
  for (const Metric& x : m) {
    std::printf("  %-28s %14.4f %-6s  %s\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.moves.c_str());
  }
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(gate.attempted()),
              static_cast<unsigned long long>(gate.failed()));
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].name.c_str(), m[i].value,
                m[i].unit.c_str());
  }
  std::printf("}}\n");
  return gate.failed() == 0 ? 0 : 1;
}
