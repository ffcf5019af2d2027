#include "probes.hpp"

#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mdwf/fs/lustre.hpp"
#include "mdwf/kvs/kvs.hpp"
#include "mdwf/perf/recorder.hpp"
#include "mdwf/sim/simulation.hpp"
#include "mdwf/storage/block_device.hpp"
#include "mdwf/storage/page_cache.hpp"
#include "mdwf/wload/wload.hpp"
#include "mdwf/workflow/dag_run.hpp"
#include "mdwf/workflow/ensemble.hpp"
#include "mdwf/workflow/testbed.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace mdwf;
using Clock = std::chrono::steady_clock;

namespace {

struct Trial {
  double ns = 0.0;
  std::uint64_t ops = 0;
};

// Times the run loop only: the layer is built and its processes spawned
// before the clock starts.
Trial run_timed(sim::Simulation& sim) {
  const auto t0 = Clock::now();
  sim.run_to_quiescence();
  return {std::chrono::duration<double, std::nano>(Clock::now() - t0).count(),
          0};
}

// Doubles the work units until one trial lasts at least 20 ms, then returns
// the median ns/op of three trials of that size.
template <class Run>
double ns_per_op(Run run) {
  std::uint64_t units = 1;
  Trial t = run(units);
  while (t.ns < 2e7 && units < (std::uint64_t{1} << 20)) {
    units *= 2;
    t = run(units);
  }
  std::vector<double> v;
  for (int i = 0; i < 3; ++i) {
    if (i > 0) t = run(units);
    v.push_back(t.ns / static_cast<double>(t.ops == 0 ? 1 : t.ops));
  }
  return median(v);
}

workflow::TestbedParams testbed_params(const Shape& s) {
  workflow::TestbedParams tp;
  tp.compute_nodes = s.nodes;
  return tp;
}

sim::Task<void> delay_loop(sim::Simulation& sim, Duration d, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) co_await sim.delay(d);
}

struct TimerChain {
  sim::Simulation* sim = nullptr;
  Duration period{};
  std::uint64_t left = 0;
  void arm() {
    sim->call_after(period, [this] {
      if (--left > 0) arm();
    });
  }
};

sim::Task<void> page_traffic(storage::PageCache& cache, std::uint64_t first,
                             std::uint64_t frames, Bytes frame) {
  for (std::uint64_t f = 0; f < frames; ++f) {
    co_await cache.write(first + f, Bytes::zero(), frame);
    co_await cache.read(first + f, Bytes::zero(), frame);
    cache.drop(first + f);
  }
}

sim::Task<void> kvs_traffic(kvs::KvsClient& client, std::uint64_t n) {
  const std::string base = "probe/" + std::to_string(client.node().value) + "/";
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string key = base + std::to_string(i);
    co_await client.commit(key, "v");
    (void)co_await client.lookup(key);
  }
}

sim::Task<void> net_flow(net::Network& network, net::NodeId src,
                         net::NodeId dst, Bytes frame, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    co_await network.transfer(src, dst, frame);
  }
}

sim::Task<void> lustre_frames(fs::LustreClient& client, std::uint64_t frames,
                              Bytes frame) {
  for (std::uint64_t f = 0; f < frames; ++f) {
    const std::string path = "probe/frame" + std::to_string(f);
    const fs::LustreHandle w = co_await client.create(path);
    co_await client.write(w, Bytes::zero(), frame);
    co_await client.close(w, true);
    const fs::LustreHandle r = co_await client.open(path);
    co_await client.read(r, Bytes::zero(), frame);
    co_await client.close(r, false);
  }
}

sim::Task<void> produce(workflow::Connector& c, std::uint64_t frames,
                        Bytes frame) {
  for (std::uint64_t f = 0; f < frames; ++f) {
    co_await c.put(workflow::frame_path(0, f), frame, f);
    co_await c.producer_sync(f);
  }
}

sim::Task<void> consume(workflow::Connector& c, std::uint64_t frames,
                        Bytes frame) {
  for (std::uint64_t f = 0; f < frames; ++f) {
    co_await c.get(workflow::frame_path(0, f), frame, f);
    c.acknowledge(f);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

Shape shape_of(const Prepared& p) {
  Shape s;
  if (!p.dag) {
    s.pairs = p.ensemble.pairs;
    s.nodes = std::max<std::uint32_t>(p.ensemble.nodes, 2);
    s.frame = p.ensemble.workload.wire_bytes();
    return s;
  }
  // A DAG edge is one flow; take the edges and mean edge frame of the
  // query's first graph (synth:montage).
  const workflow::DagPlan plan =
      workflow::plan_dag(*p.dags.front(), p.ensemble.dag_chunk,
                         p.ensemble.nodes);
  std::uint64_t bytes = 0;
  for (const auto& e : plan.edges) bytes += e.frame_bytes.count();
  s.pairs = static_cast<std::uint32_t>(plan.edges.size());
  s.nodes = std::max<std::uint32_t>(p.ensemble.nodes, 2);
  s.frame = Bytes(bytes / std::max<std::size_t>(plan.edges.size(), 1));
  return s;
}

double probe_sim_ns_per_event(const Shape& s) {
  return ns_per_op([&](std::uint64_t units) {
    sim::Simulation sim;
    const std::uint32_t ranks = 2 * s.pairs;
    std::vector<TimerChain> chains(ranks);
    for (std::uint32_t r = 0; r < ranks; ++r) {
      sim.spawn(delay_loop(sim, Duration::microseconds(7 + r), 16 * units));
      chains[r] = {&sim, Duration::microseconds(11 + r), 16 * units};
      chains[r].arm();
    }
    Trial t = run_timed(sim);
    t.ops = sim.events_fired();
    return t;
  });
}

double probe_storage_ns_per_page_op(const Shape& s) {
  return ns_per_op([&](std::uint64_t units) {
    const workflow::TestbedParams tp;
    sim::Simulation sim;
    storage::BlockDevice device(sim, tp.node_ssd);
    storage::PageCache cache(sim, tp.page_cache, device);
    for (std::uint32_t p = 0; p < s.pairs; ++p) {
      sim.spawn(page_traffic(cache, p * units, units, s.frame));
    }
    Trial t = run_timed(sim);
    t.ops = cache.hits() + cache.misses();
    return t;
  });
}

double probe_kvs_ns_per_op(const Shape& s) {
  return ns_per_op([&](std::uint64_t units) {
    workflow::Testbed tb(testbed_params(s));
    auto& sim = tb.simulation();
    std::vector<std::unique_ptr<kvs::KvsClient>> clients;
    for (std::uint32_t n = 0; n < s.nodes; ++n) {
      clients.push_back(
          std::make_unique<kvs::KvsClient>(sim, tb.kvs(), net::NodeId{n}));
      sim.spawn(kvs_traffic(*clients.back(), 8 * units));
    }
    Trial t = run_timed(sim);
    t.ops = tb.kvs().commits() + tb.kvs().lookups();
    return t;
  });
}

double probe_net_ns_per_transfer(const Shape& s) {
  return ns_per_op([&](std::uint64_t units) {
    workflow::Testbed tb(testbed_params(s));
    const std::uint32_t half = s.nodes / 2;
    for (std::uint32_t p = 0; p < s.pairs; ++p) {
      tb.simulation().spawn(net_flow(tb.network(), net::NodeId{p % half},
                                     net::NodeId{half + p % half}, s.frame,
                                     units));
    }
    Trial t = run_timed(tb.simulation());
    t.ops = static_cast<std::uint64_t>(s.pairs) * units;
    return t;
  });
}

double probe_lustre_ns_per_frame(const Shape& s) {
  return ns_per_op([&](std::uint64_t units) {
    workflow::Testbed tb(testbed_params(s));
    fs::LustreClient client(tb.simulation(), tb.lustre(), net::NodeId{0});
    tb.simulation().spawn(lustre_frames(client, units, s.frame));
    Trial t = run_timed(tb.simulation());
    t.ops = units;
    return t;
  });
}

double probe_connector_ns_per_frame(const Shape& s,
                                    workflow::Solution solution) {
  return ns_per_op([&](std::uint64_t units) {
    // Recorders and the sync outlive the testbed: coroutine frames close
    // their regions against them when the simulation is destroyed.
    std::optional<perf::Recorder> prec;
    std::optional<perf::Recorder> crec;
    std::optional<workflow::ExplicitSync> sync;
    workflow::Testbed tb(testbed_params(s));
    auto& sim = tb.simulation();
    prec.emplace(sim, "probe.producer");
    crec.emplace(sim, "probe.consumer");
    sync.emplace(sim);
    const std::uint32_t cnode = s.nodes / 2;
    auto prod = workflow::make_connector({.testbed = &tb,
                                          .solution = solution,
                                          .node = 0,
                                          .sync = &*sync,
                                          .recorder = &*prec});
    auto cons = workflow::make_connector({.testbed = &tb,
                                          .solution = solution,
                                          .node = cnode,
                                          .sync = &*sync,
                                          .recorder = &*crec});
    if (solution == workflow::Solution::kStream) {
      tb.stream_domain().subscribe(workflow::pair_prefix(0),
                                   net::NodeId{cnode});
    }
    sim.spawn(produce(*prod, units, s.frame));
    sim.spawn(consume(*cons, units, s.frame));
    Trial t = run_timed(sim);
    t.ops = units;
    return t;
  });
}

double probe_wload_parse_ns_per_byte() {
  const std::vector<std::string> texts = {
      read_file(source_path("tests/data/wfcommons_staged.json")),
      read_file(source_path("tests/data/wfcommons_spill.json"))};
  std::uint64_t bytes = 0;
  for (const auto& t : texts) bytes += t.size();
  return ns_per_op([&](std::uint64_t units) {
    const auto t0 = Clock::now();
    std::size_t tasks = 0;
    for (std::uint64_t i = 0; i < units; ++i) {
      for (const auto& text : texts) {
        tasks += wload::parse_wfcommons(text, "probe").tasks.size();
      }
    }
    if (tasks == 0) throw std::runtime_error("fixtures hold no tasks");
    return Trial{
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count(),
        units * bytes};
  });
}

}  // namespace perfbench
