// Deeper Lustre-model tests: RPC chunking, in-flight windowing, client
// cache behaviour, and MDS interference.
#include <gtest/gtest.h>

#include "mdwf/common/time.hpp"
#include "mdwf/fs/interference.hpp"
#include "mdwf/fs/lustre.hpp"
#include "mdwf/sim/primitives.hpp"

namespace mdwf::fs {
namespace {

using namespace mdwf::literals;
using sim::Simulation;
using sim::Task;

struct Cluster {
  Simulation sim;
  net::Network network;
  LustreParams params;
  LustreServers servers;

  static net::NetworkParams net_params() {
    net::NetworkParams p;
    p.latency = 2_us;
    return p;
  }
  explicit Cluster(LustreParams lp = make_params())
      : network(sim, net_params(), 3 + lp.ost_count),
        params(lp),
        servers(sim, lp, network, net::NodeId{2}, ost_nodes(lp.ost_count)) {}

  static LustreParams make_params() {
    LustreParams p;
    p.ost_count = 2;
    return p;
  }
  static std::vector<net::NodeId> ost_nodes(std::uint32_t n) {
    std::vector<net::NodeId> out;
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(net::NodeId{3 + i});
    return out;
  }
};

TEST(LustreRpcTest, LargeWriteSplitsIntoMaxRpcChunks) {
  LustreParams lp = Cluster::make_params();
  lp.client_writeback = false;
  lp.max_rpc_size = Bytes::mib(4);
  Cluster c(lp);
  c.sim.spawn([](Cluster& cl) -> Task<void> {
    LustreClient client(cl.sim, cl.servers, net::NodeId{0});
    auto h = co_await client.create("big");
    const auto ops_before = cl.servers.ost_device(0).writes_completed();
    // 10 MiB on a single-stripe file -> ceil(10/4) = 3 brw RPCs = 3 device
    // writes on one OST.
    co_await client.write(h, Bytes::zero(), Bytes::mib(10));
    EXPECT_EQ(cl.servers.ost_device(0).writes_completed() - ops_before, 3u);
    EXPECT_EQ(cl.servers.ost_device(0).bytes_written(), Bytes::mib(10));
  }(c));
  c.sim.run_to_quiescence();
}

TEST(LustreRpcTest, RpcsInFlightWindowLimitsConcurrency) {
  // With a window of 1 the chunks serialize; with 8 they pipeline.  The
  // serialized run must be measurably slower.
  auto timed_write = [](std::int64_t window) {
    LustreParams lp = Cluster::make_params();
    lp.client_writeback = false;
    lp.max_rpc_size = Bytes::mib(1);
    lp.max_rpcs_in_flight = window;
    Cluster c(lp);
    Duration took;
    c.sim.spawn([](Cluster& cl, Duration& out) -> Task<void> {
      LustreClient client(cl.sim, cl.servers, net::NodeId{0});
      auto h = co_await client.create("w");
      const TimePoint t0 = cl.sim.now();
      co_await client.write(h, Bytes::zero(), Bytes::mib(8));
      out = cl.sim.now() - t0;
    }(c, took));
    c.sim.run_to_quiescence();
    return took;
  };
  const Duration serial = timed_write(1);
  const Duration pipelined = timed_write(8);
  // Bandwidth serializes either way; windowing hides the per-RPC overheads
  // (client CPU + OST service + latency) of 7 of the 8 chunks.
  EXPECT_GT(serial, pipelined + 7 * 300_us);
}

TEST(LustreClientCacheTest, WritebackLatencyTracksClientCacheBps) {
  LustreParams lp = Cluster::make_params();
  lp.client_cache_bps = 5.0e9;
  Cluster c(lp);
  c.sim.spawn([](Cluster& cl) -> Task<void> {
    LustreClient client(cl.sim, cl.servers, net::NodeId{0});
    auto h = co_await client.create("wb");
    const TimePoint t0 = cl.sim.now();
    co_await client.write(h, Bytes::zero(), Bytes::mib(10));
    const double secs = (cl.sim.now() - t0).to_seconds();
    // 10 MiB at 5 GB/s ~= 2.1 ms; allow tight tolerance (no other cost).
    EXPECT_NEAR(secs, 10.0 * 1024 * 1024 / 5.0e9, 1e-4);
  }(c));
  c.sim.run_to_quiescence();
}

TEST(LustreCoherenceTest, FirstForeignReadPaysLockOnce) {
  Cluster c;
  c.sim.spawn([](Cluster& cl) -> Task<void> {
    LustreClient writer(cl.sim, cl.servers, net::NodeId{0});
    LustreClient reader(cl.sim, cl.servers, net::NodeId{1});
    auto h = co_await writer.create("f");
    co_await writer.write(h, Bytes::zero(), Bytes::kib(64));
    co_await cl.sim.delay(50_ms);  // flush settles
    auto hr = co_await reader.open("f");
    const TimePoint t0 = cl.sim.now();
    co_await reader.read(hr, Bytes::zero(), Bytes::kib(64));
    const Duration first = cl.sim.now() - t0;
    const TimePoint t1 = cl.sim.now();
    co_await reader.read(hr, Bytes::zero(), Bytes::kib(64));
    const Duration second = cl.sim.now() - t1;
    // The coherence/lock charge applies to the first read only.
    EXPECT_GT(first, second + cl.params.first_read_lock - 100_us);
  }(c));
  c.sim.run_to_quiescence();
}

TEST(LustreCoherenceTest, WriterReadingItsOwnDataPaysNoLock) {
  Cluster c;
  c.sim.spawn([](Cluster& cl) -> Task<void> {
    LustreClient writer(cl.sim, cl.servers, net::NodeId{0});
    auto h = co_await writer.create("own");
    co_await writer.write(h, Bytes::zero(), Bytes::kib(64));
    co_await cl.sim.delay(50_ms);
    const TimePoint t0 = cl.sim.now();
    co_await writer.read(h, Bytes::zero(), Bytes::kib(64));
    EXPECT_LT(cl.sim.now() - t0, cl.params.first_read_lock);
  }(c));
  c.sim.run_to_quiescence();
}

TEST(MdsInterferenceTest, StormsDelayMetadataOps) {
  // Measure create latency with and without a standing MDS storm.
  auto create_latency = [](bool storm) {
    LustreParams lp = Cluster::make_params();
    lp.mds_concurrency = 2;
    lp.mds_service = 1_ms;
    Cluster c(lp);
    Duration took;
    if (storm) {
      // Occupy one of the two slots for a long stretch.
      c.sim.spawn([](Cluster& cl) -> Task<void> {
        co_await cl.servers.mds_slots().acquire();
        co_await cl.sim.delay(1_s);
        cl.servers.mds_slots().release();
      }(c));
    }
    c.sim.spawn([](Cluster& cl, Duration& out) -> Task<void> {
      co_await cl.sim.delay(10_ms);
      LustreClient client(cl.sim, cl.servers, net::NodeId{0});
      std::vector<Task<void>> creates;
      const TimePoint t0 = cl.sim.now();
      for (int i = 0; i < 6; ++i) {
        creates.push_back([](Cluster& cc, int k) -> Task<void> {
          LustreClient cli(cc.sim, cc.servers, net::NodeId{0});
          (void)co_await cli.create(std::string("f").append(std::to_string(k)));
        }(cl, i));
      }
      co_await sim::all(cl.sim, std::move(creates));
      out = cl.sim.now() - t0;
    }(c, took));
    c.sim.run_to_quiescence();
    return took;
  };
  const Duration calm = create_latency(false);
  const Duration stormy = create_latency(true);
  // 6 creates over 2 slots vs 1 slot: roughly double.
  EXPECT_GT(stormy, calm + 2_ms);
}

TEST(InterferenceLevelTest, RunLevelChangesAcrossSeeds) {
  // Different seeds draw different per-run interference intensities; the
  // same workload should therefore take measurably different time in at
  // least some pairs of runs.
  auto run_io = [](std::uint64_t seed) {
    Cluster c;
    InterferenceParams ip;
    ip.mean_interarrival = 5_ms;
    c.sim.spawn(run_ost_interference(c.sim, c.servers, ip, Rng(seed),
                                     TimePoint::origin() + 2_s));
    Duration took;
    c.sim.spawn([](Cluster& cl, Duration& out) -> Task<void> {
      LustreClient w(cl.sim, cl.servers, net::NodeId{0});
      LustreClient r(cl.sim, cl.servers, net::NodeId{1});
      auto h = co_await w.create("f");
      co_await w.write(h, Bytes::zero(), Bytes::mib(16));
      co_await cl.sim.delay(20_ms);
      auto hr = co_await r.open("f");
      const TimePoint t0 = cl.sim.now();
      for (int i = 0; i < 8; ++i) {
        co_await r.read(hr, Bytes::zero(), Bytes::mib(16));
      }
      out = cl.sim.now() - t0;
    }(c, took));
    c.sim.run_to_quiescence();
    return took;
  };
  std::set<std::int64_t> distinct;
  for (std::uint64_t s = 1; s <= 4; ++s) distinct.insert(run_io(s).ns());
  EXPECT_GE(distinct.size(), 3u);
}

}  // namespace
}  // namespace mdwf::fs
