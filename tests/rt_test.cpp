// Tests for the real-thread, real-filesystem backend.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "mdwf/rt/file_channel.hpp"
#include "mdwf/rt/pipeline.hpp"

namespace mdwf::rt {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const std::string& name) {
  return fs::temp_directory_path() / ("mdwf_rt_test_" + name);
}

TEST(FileChannelTest, PutThenGetRoundTripsFrame) {
  FileChannel ch(test_dir("roundtrip"), SyncProtocol::kEventful);
  const md::Frame frame = md::synthesize_frame("JAC", 500, 7, 3);
  ch.put("f0", frame);
  const auto got = ch.get("f0");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
  EXPECT_EQ(ch.stats().frames, 1u);
  EXPECT_GT(ch.stats().bytes, 500u * 28u);
}

TEST(FileChannelTest, GetBlocksUntilPut) {
  FileChannel ch(test_dir("blocking"), SyncProtocol::kEventful);
  const md::Frame frame = md::synthesize_frame("X", 10, 0, 1);
  std::optional<md::Frame> got;
  std::thread consumer([&] { got = ch.get("later"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ch.put("later", frame);
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
  EXPECT_GE(ch.stats().consumer_wait, std::chrono::milliseconds(20));
}

TEST(FileChannelTest, CoarsePollingAlsoDelivers) {
  FileChannel ch(test_dir("polling"), SyncProtocol::kCoarse,
                 std::chrono::milliseconds(1));
  const md::Frame frame = md::synthesize_frame("X", 10, 0, 2);
  std::optional<md::Frame> got;
  std::thread consumer([&] { got = ch.get("poll"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.put("poll", frame);
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
}

TEST(FileChannelTest, CloseUnblocksWaiters) {
  FileChannel ch(test_dir("close"), SyncProtocol::kEventful);
  std::optional<md::Frame> got = md::synthesize_frame("X", 1, 0, 1);
  std::thread consumer([&] { got = ch.get("never"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
}

TEST(FileChannelTest, NestedNamesCreateDirectories) {
  FileChannel ch(test_dir("nested"), SyncProtocol::kEventful);
  const md::Frame frame = md::synthesize_frame("X", 32, 0, 9);
  ch.put("pair0/frame00000", frame);
  const auto got = ch.get("pair0/frame00000");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->atoms.size(), 32u);
}

TEST(FileChannelTest, ManyFramesInOrder) {
  FileChannel ch(test_dir("many"), SyncProtocol::kEventful);
  std::thread producer([&] {
    for (int f = 0; f < 20; ++f) {
      ch.put(std::string("f").append(std::to_string(f)),
             md::synthesize_frame("X", 64, f, 5));
    }
  });
  for (int f = 0; f < 20; ++f) {
    const auto got = ch.get(std::string("f").append(std::to_string(f)));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->index, static_cast<std::uint64_t>(f));
  }
  producer.join();
  EXPECT_EQ(ch.stats().frames, 20u);
}

TEST(PipelineTest, RunsToCompletionAndAnalyzesEveryFrame) {
  PipelineConfig config;
  config.lj.particle_count = 125;
  config.stride = 5;
  config.frames = 8;
  config.staging_dir = test_dir("pipeline");
  const auto result = run_insitu_pipeline(config);
  EXPECT_EQ(result.series.size(), 8u);
  for (const auto& a : result.series) {
    EXPECT_GT(a.largest_eigenvalue, 0.0);
    EXPECT_GT(a.radius_of_gyration, 0.0);
  }
  EXPECT_EQ(result.channel.frames, 8u);
  EXPECT_EQ(result.md_steps, 40u);
  EXPECT_GT(result.final_temperature, 0.0);
}

TEST(PipelineTest, CoarseAndEventfulProduceIdenticalAnalytics) {
  PipelineConfig config;
  config.lj.particle_count = 125;
  config.stride = 4;
  config.frames = 6;
  config.staging_dir = test_dir("proto_a");
  const auto a = run_insitu_pipeline(config);
  config.protocol = SyncProtocol::kCoarse;
  config.poll_interval = std::chrono::milliseconds(1);
  config.staging_dir = test_dir("proto_b");
  const auto b = run_insitu_pipeline(config);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    // Same deterministic trajectory regardless of transport sync.
    EXPECT_DOUBLE_EQ(a.series[i].largest_eigenvalue,
                     b.series[i].largest_eigenvalue);
  }
}

}  // namespace
}  // namespace mdwf::rt
