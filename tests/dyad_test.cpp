// Unit tests for the DYAD middleware over the simulated testbed.
#include <gtest/gtest.h>

#include "mdwf/common/time.hpp"
#include "mdwf/md/models.hpp"
#include "mdwf/perf/recorder.hpp"
#include "mdwf/workflow/ensemble.hpp"
#include "mdwf/workflow/testbed.hpp"

namespace mdwf::dyad {
namespace {

using namespace mdwf::literals;
using sim::Task;
using workflow::Testbed;
using workflow::TestbedParams;

TestbedParams two_node_params() {
  TestbedParams p;
  p.compute_nodes = 2;
  return p;
}

TEST(DyadTest, SingleNodeProduceThenConsumeWarmPath) {
  TestbedParams tp;
  tp.compute_nodes = 1;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  sim.spawn([](Testbed& t, perf::Recorder& pr, perf::Recorder& cr) -> Task<void> {
    DyadProducer producer(*t.node(0).dyad, pr);
    DyadConsumer consumer(*t.node(0).dyad, cr);
    co_await producer.produce("pair0/frame0", Bytes::kib(644));
    co_await consumer.consume("pair0/frame0", Bytes::kib(644));
    // File already local: flock warm path, no KVS wait, no staging.
    EXPECT_EQ(consumer.warm_hits(), 1u);
    EXPECT_EQ(consumer.kvs_waits(), 0u);
  }(tb, prec, crec));
  sim.run_to_quiescence();
  // Consumer tree has fetch + local read only (no get_data/cons_store).
  EXPECT_NE(crec.tree().find("dyad_consume/dyad_fetch"), nullptr);
  EXPECT_NE(crec.tree().find("dyad_consume/read_single_buf"), nullptr);
  EXPECT_EQ(crec.tree().find("dyad_consume/dyad_get_data"), nullptr);
  EXPECT_EQ(crec.tree().find("dyad_consume/dyad_cons_store"), nullptr);
}

TEST(DyadTest, ConsumerBlocksUntilProducerPublishes) {
  TestbedParams tp;
  tp.compute_nodes = 1;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  TimePoint consumed_at;
  sim.spawn([](Testbed& t, perf::Recorder& r, TimePoint& out) -> Task<void> {
    DyadConsumer consumer(*t.node(0).dyad, r);
    co_await consumer.consume("pair0/frame0", Bytes::kib(644));
    out = t.simulation().now();
    EXPECT_EQ(consumer.kvs_waits(), 1u);
  }(tb, crec, consumed_at));
  sim.spawn([](Testbed& t, perf::Recorder& r) -> Task<void> {
    co_await t.simulation().delay(100_ms);
    DyadProducer producer(*t.node(0).dyad, r);
    co_await producer.produce("pair0/frame0", Bytes::kib(644));
  }(tb, prec));
  sim.run_to_quiescence();
  // Consumer waits for production (100 ms) + commit + visibility (~2 ms).
  EXPECT_GT(consumed_at, TimePoint::origin() + 102_ms);
  EXPECT_LT(consumed_at, TimePoint::origin() + 110_ms);
  // The wait is attributed to synchronization idle inside dyad_fetch.
  const auto idle =
      crec.tree().category_time("dyad_consume", perf::Category::kIdle);
  EXPECT_GT(idle, 100_ms);
}

TEST(DyadTest, TwoNodeConsumeUsesRdmaAndStaging) {
  Testbed tb(two_node_params());
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p"), crec(sim, "c");
  sim.spawn([](Testbed& t, perf::Recorder& pr, perf::Recorder& cr) -> Task<void> {
    DyadProducer producer(*t.node(0).dyad, pr);
    DyadConsumer consumer(*t.node(1).dyad, cr);
    co_await producer.produce("pair0/frame0", Bytes::mib(28));
    co_await t.simulation().delay(5_ms);  // let metadata become visible
    co_await consumer.consume("pair0/frame0", Bytes::mib(28));
    EXPECT_EQ(consumer.warm_hits(), 0u);
    EXPECT_EQ(consumer.kvs_waits(), 0u);
  }(tb, prec, crec));
  sim.run_to_quiescence();
  // Full remote call tree (paper Fig. 9).
  EXPECT_NE(crec.tree().find("dyad_consume/dyad_fetch"), nullptr);
  EXPECT_NE(crec.tree().find("dyad_consume/dyad_get_data"), nullptr);
  EXPECT_NE(crec.tree().find("dyad_consume/dyad_cons_store"), nullptr);
  EXPECT_NE(crec.tree().find("dyad_consume/read_single_buf"), nullptr);
  // The payload was served by node 0's broker and staged on node 1.
  EXPECT_EQ(tb.node(0).dyad->remote_reads_served(), 1u);
  EXPECT_TRUE(tb.node(1).local_fs->exists("dyad_cache/pair0/frame0"));
}

TEST(DyadTest, ProducerNeverWaitsForConsumer) {
  // DYAD pipelines: a producer can publish many frames with no consumer at
  // all; production time per frame stays flat.
  Testbed tb(two_node_params());
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p");
  sim.spawn([](Testbed& t, perf::Recorder& r) -> Task<void> {
    DyadProducer producer(*t.node(0).dyad, r);
    for (int f = 0; f < 10; ++f) {
      co_await producer.produce(workflow::frame_path(0, f), Bytes::kib(644));
    }
  }(tb, prec));
  sim.run_to_quiescence();
  const auto* produce = prec.tree().find("dyad_produce");
  ASSERT_NE(produce, nullptr);
  EXPECT_EQ(produce->count, 10u);
  // All production cost is movement (write + metadata), no idle.
  EXPECT_EQ(prec.tree().category_time("dyad_produce", perf::Category::kIdle),
            0_ms);
}

TEST(DyadTest, MetadataRoundTrips) {
  const DyadMetadata m{net::NodeId{7}, Bytes(659624)};
  const DyadMetadata d = DyadMetadata::decode(m.encode());
  EXPECT_EQ(d.owner, net::NodeId{7});
  EXPECT_EQ(d.size, Bytes(659624));
}

TEST(DyadTest, ProductionCostSplitsWriteAndCommit) {
  TestbedParams tp;
  tp.compute_nodes = 1;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p");
  sim.spawn([](Testbed& t, perf::Recorder& r) -> Task<void> {
    DyadProducer producer(*t.node(0).dyad, r);
    co_await producer.produce("f", md::kJac.frame_bytes());
  }(tb, prec));
  sim.run_to_quiescence();
  const auto* write = prec.tree().find("dyad_produce/dyad_prod_write");
  const auto* commit = prec.tree().find("dyad_produce/dyad_commit");
  ASSERT_NE(write, nullptr);
  ASSERT_NE(commit, nullptr);
  // The commit is DYAD's overhead vs raw XFS: meaningful but smaller than
  // the data write itself (paper: production 1.4x XFS).
  EXPECT_GT(commit->inclusive, 20_us);
  EXPECT_LT(commit->inclusive, write->inclusive);
}

TEST(DyadTest, BrokerConcurrencyLimitsParallelServes) {
  TestbedParams tp = two_node_params();
  tp.dyad.broker_concurrency = 1;
  tp.dyad.broker_request_cpu = 1_ms;
  Testbed tb(tp);
  auto& sim = tb.simulation();
  perf::Recorder prec(sim, "p");
  std::vector<perf::Recorder> crecs;
  crecs.reserve(4);
  for (int i = 0; i < 4; ++i) {
    crecs.emplace_back(sim, std::string("c").append(std::to_string(i)));
  }
  sim.spawn([](Testbed& t, perf::Recorder& pr,
               std::vector<perf::Recorder>& crs) -> Task<void> {
    DyadProducer producer(*t.node(0).dyad, pr);
    for (int i = 0; i < 4; ++i) {
      co_await producer.produce(std::string("f").append(std::to_string(i)),
                                Bytes::kib(4));
    }
    co_await t.simulation().delay(5_ms);
    std::vector<Task<void>> gets;
    for (int i = 0; i < 4; ++i) {
      gets.push_back([](Testbed& tt, perf::Recorder& rr, int k) -> Task<void> {
        DyadConsumer consumer(*tt.node(1).dyad, rr);
        co_await consumer.consume(std::string("f").append(std::to_string(k)),
                                Bytes::kib(4));
      }(t, crs[static_cast<std::size_t>(i)], i));
    }
    const TimePoint t0 = t.simulation().now();
    co_await sim::all(t.simulation(), std::move(gets));
    // 4 serves x 1 ms broker CPU, concurrency 1 -> >= 4 ms.
    EXPECT_GE(t.simulation().now() - t0, 4_ms);
  }(tb, prec, crecs));
  sim.run_to_quiescence();
}

}  // namespace
}  // namespace mdwf::dyad
