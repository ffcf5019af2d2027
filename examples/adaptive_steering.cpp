// Adaptive workflow: in-situ analytics steer the simulation (paper
// Sec. II-B: "steer the simulation (e.g., terminate or fork a trajectory)").
//
// An ensemble of trajectories runs over DYAD; each consumer watches a
// collective variable and terminates its trajectory as soon as an event is
// detected, freeing the (simulated) GPUs early.  Quiet trajectories may
// instead be extended to keep exploring.
//
//   build/examples/adaptive_steering
#include <cstdio>

#include "mdwf/workflow/steering.hpp"

int main() {
  using namespace mdwf;
  using namespace mdwf::workflow;

  WorkloadConfig workload;
  workload.model = md::kJac;
  workload.stride = md::kJac.stride;
  workload.frames = 24;  // planned trajectory length

  // Four trajectories; two will hit an event (at frames 6 and 14), two run
  // quietly and are granted an 8-frame extension.
  const std::uint64_t event_frames[] = {6, SIZE_MAX, 14, SIZE_MAX};

  TestbedParams tp;
  tp.compute_nodes = 2;
  Testbed tb(tp);
  auto& sim = tb.simulation();

  std::vector<std::unique_ptr<perf::Recorder>> recorders;
  std::vector<std::unique_ptr<SteeringChannel>> channels;
  std::vector<std::unique_ptr<ProgressLatch>> latches;
  std::vector<std::unique_ptr<Connector>> connectors;
  std::vector<SteeredPairResult> results(4);

  for (std::uint32_t pair = 0; pair < 4; ++pair) {
    recorders.push_back(std::make_unique<perf::Recorder>(
        sim, std::string("p").append(std::to_string(pair))));
    recorders.push_back(std::make_unique<perf::Recorder>(
        sim, std::string("c").append(std::to_string(pair))));
    auto& prec = *recorders[recorders.size() - 2];
    auto& crec = *recorders[recorders.size() - 1];
    channels.push_back(std::make_unique<SteeringChannel>(
        sim, tb.network(), net::NodeId{1}, net::NodeId{0}));
    latches.push_back(std::make_unique<ProgressLatch>(sim));
    connectors.push_back(
        std::make_unique<DyadConnector>(*tb.node(0).dyad, prec));
    connectors.push_back(
        std::make_unique<DyadConnector>(*tb.node(1).dyad, crec));
    auto& prod = *connectors[connectors.size() - 2];
    auto& cons = *connectors[connectors.size() - 1];

    sim.spawn(run_steered_producer(sim, prod, prec, workload, pair,
                                   Rng(100 + pair), *channels.back(),
                                   *latches.back(), /*extension=*/8,
                                   results[pair]));
    sim.spawn(run_steered_consumer(
        sim, cons, crec, workload, pair,
        make_event_cv(40 + pair, event_frames[pair]),
        ThresholdMonitor(3.0, 2, 6), *channels.back(), *latches.back(),
        /*extend_on_quiet=*/true, results[pair]));
  }

  sim.run_to_quiescence();

  std::printf("adaptive ensemble: 4 trajectories, plan 24 frames, extension "
              "8, events at frames {6, -, 14, -}\n\n");
  double gpu_frames_saved = 0;
  for (std::uint32_t pair = 0; pair < 4; ++pair) {
    const auto& r = results[pair];
    std::printf("  trajectory %u: produced %2llu frames, consumed %2llu, %s\n",
                pair, static_cast<unsigned long long>(r.frames_produced),
                static_cast<unsigned long long>(r.frames_consumed),
                r.terminated_early ? "TERMINATED (event found)"
                : r.extended       ? "extended (quiet)"
                                   : "ran to plan");
    if (r.terminated_early) {
      gpu_frames_saved += 24.0 - static_cast<double>(r.frames_produced);
    }
  }
  std::printf("\nsimulated GPU time saved by steering: %.0f frame-intervals "
              "(~%.0f s of MD per terminated trajectory pair)\n",
              gpu_frames_saved,
              gpu_frames_saved * workload.model.frame_period_seconds());
  std::printf("workflow makespan: %.1f s (virtual)\n",
              sim.now().to_seconds());
  return 0;
}
