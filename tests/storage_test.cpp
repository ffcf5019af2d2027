// Unit tests for the block device and page cache models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <vector>

#include "mdwf/common/time.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/storage/block_device.hpp"
#include "mdwf/storage/page_cache.hpp"

namespace mdwf::storage {
namespace {

using namespace mdwf::literals;
using sim::Simulation;
using sim::Task;

BlockDeviceParams test_device_params() {
  BlockDeviceParams p;
  p.read_bandwidth_bps = 1e9;
  p.write_bandwidth_bps = 1e9;
  p.op_latency = 10_us;
  p.queue_depth = 2;
  return p;
}

TEST(BlockDeviceTest, ReadPaysLatencyPlusBandwidth) {
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  TimePoint done;
  sim.spawn([](Simulation& s, BlockDevice& d, TimePoint& t) -> Task<void> {
    co_await d.read(Bytes(1'000'000));
    t = s.now();
  }(sim, dev, done));
  sim.run_to_quiescence();
  EXPECT_EQ(done, TimePoint::origin() + 10_us + 1_ms);
  EXPECT_EQ(dev.reads_completed(), 1u);
}

TEST(BlockDeviceTest, QueueDepthSerializesExcessOps) {
  Simulation sim;
  auto p = test_device_params();
  p.queue_depth = 1;
  p.op_latency = 1_ms;
  BlockDevice dev(sim, p);
  // Three zero-byte ops with QD=1 and 1ms latency each -> 3 ms total.
  std::vector<Task<void>> tasks;
  for (int i = 0; i < 3; ++i) {
    tasks.push_back([](BlockDevice& d) -> Task<void> {
      co_await d.write(Bytes::zero());
    }(dev));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  EXPECT_EQ(sim.now(), TimePoint::origin() + 3_ms);
  EXPECT_EQ(dev.writes_completed(), 3u);
}

TEST(BlockDeviceTest, ReadsAndWritesUseSeparateChannels) {
  Simulation sim;
  auto p = test_device_params();
  p.op_latency = Duration::zero();
  BlockDevice dev(sim, p);
  std::vector<Task<void>> tasks;
  tasks.push_back([](BlockDevice& d) -> Task<void> {
    co_await d.read(Bytes(100'000'000));
  }(dev));
  tasks.push_back([](BlockDevice& d) -> Task<void> {
    co_await d.write(Bytes(100'000'000));
  }(dev));
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  // Full duplex: both complete in 100 ms, not 200 ms.
  EXPECT_NEAR(sim.now().to_seconds(), 0.1, 1e-6);
}

TEST(BlockDeviceTest, BackgroundLoadSlowsDevice) {
  Simulation sim;
  auto p = test_device_params();
  p.op_latency = Duration::zero();
  BlockDevice dev(sim, p);
  dev.set_background_load(0.75);
  sim.spawn([](BlockDevice& d) -> Task<void> {
    co_await d.read(Bytes(100'000'000));
  }(dev));
  sim.run_to_quiescence();
  EXPECT_NEAR(sim.now().to_seconds(), 0.4, 1e-6);
}

PageCacheParams test_cache_params() {
  PageCacheParams p;
  p.capacity = Bytes::kib(1024);  // 4 pages of 256 KiB
  p.page_size = Bytes::kib(256);
  p.memcpy_bps = 1e9;
  return p;
}

TEST(PageCacheTest, BufferedWriteCostsMemcpyOnly) {
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  PageCache cache(sim, test_cache_params(), dev);
  TimePoint done;
  sim.spawn([](Simulation& s, PageCache& c, TimePoint& t) -> Task<void> {
    co_await c.write(1, Bytes::zero(), Bytes::kib(256));
    t = s.now();
  }(sim, cache, done));
  sim.run_to_quiescence();
  // 256 KiB at 1 GB/s memcpy, no device IO.
  EXPECT_NEAR((done - TimePoint::origin()).to_seconds(), 262144.0 / 1e9, 1e-9);
  EXPECT_EQ(dev.writes_completed(), 0u);
  EXPECT_EQ(cache.dirty_pages(), 1u);
}

TEST(PageCacheTest, ReadHitAvoidsDevice) {
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  PageCache cache(sim, test_cache_params(), dev);
  sim.spawn([](PageCache& c, BlockDevice& d) -> Task<void> {
    co_await c.write(1, Bytes::zero(), Bytes::kib(256));
    const auto before = d.reads_completed();
    co_await c.read(1, Bytes::zero(), Bytes::kib(256));
    EXPECT_EQ(d.reads_completed(), before);
    EXPECT_GE(c.hits(), 1u);
  }(cache, dev));
  sim.run_to_quiescence();
}

TEST(PageCacheTest, ReadMissFetchesFromDevice) {
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  PageCache cache(sim, test_cache_params(), dev);
  sim.spawn([](PageCache& c, BlockDevice& d) -> Task<void> {
    co_await c.read(9, Bytes::zero(), Bytes::kib(512));
    EXPECT_EQ(d.reads_completed(), 1u);  // coalesced into one device read
    EXPECT_EQ(d.bytes_read(), Bytes::kib(512));
  }(cache, dev));
  sim.run_to_quiescence();
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PageCacheTest, EvictionWritesBackDirtyPagesAsynchronously) {
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  PageCache cache(sim, test_cache_params(), dev);  // 4-page capacity
  sim.spawn([](PageCache& c) -> Task<void> {
    // Dirty 4 pages, then touch a 5th: a dirty page must be evicted and its
    // write-back queued (asynchronously, as the kernel flusher would).
    for (std::uint64_t f = 1; f <= 4; ++f) {
      co_await c.write(f, Bytes::zero(), Bytes::kib(256));
    }
    EXPECT_EQ(c.dirty_pages(), 4u);
    co_await c.write(5, Bytes::zero(), Bytes::kib(256));
    EXPECT_EQ(c.resident_pages(), 4u);
  }(cache));
  sim.run_to_quiescence();
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(dev.writes_completed(), 1u);
  EXPECT_EQ(dev.bytes_written(), Bytes::kib(256));
}

TEST(PageCacheTest, EvictionPrefersCleanVictims) {
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  PageCache cache(sim, test_cache_params(), dev);  // 4-page capacity
  sim.spawn([](PageCache& c, BlockDevice& d) -> Task<void> {
    co_await c.write(1, Bytes::zero(), Bytes::kib(256));  // dirty, oldest
    co_await c.read(2, Bytes::zero(), Bytes::kib(256));   // clean
    co_await c.write(3, Bytes::zero(), Bytes::kib(256));  // dirty
    co_await c.read(4, Bytes::zero(), Bytes::kib(256));   // clean
    const auto writes_before = d.writes_completed();
    co_await c.write(5, Bytes::zero(), Bytes::kib(256));
    // A clean page was the victim: no write-back traffic queued.
    EXPECT_EQ(d.writes_completed(), writes_before);
    EXPECT_EQ(c.dirty_pages(), 3u);  // files 1, 3, 5 still dirty
  }(cache, dev));
  sim.run_to_quiescence();
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(PageCacheTest, FlushWritesAllDirtyPagesOfFile) {
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  PageCache cache(sim, test_cache_params(), dev);
  sim.spawn([](PageCache& c, BlockDevice& d) -> Task<void> {
    co_await c.write(1, Bytes::zero(), Bytes::kib(512));  // 2 dirty pages
    co_await c.write(2, Bytes::zero(), Bytes::kib(256));  // other file
    co_await c.flush(1);
    EXPECT_EQ(d.bytes_written(), Bytes::kib(512));
    EXPECT_EQ(c.dirty_pages(), 1u);  // file 2 still dirty
    // Flushing again is a no-op.
    co_await c.flush(1);
    EXPECT_EQ(d.bytes_written(), Bytes::kib(512));
  }(cache, dev));
  sim.run_to_quiescence();
}

TEST(PageCacheTest, DropDiscardsWithoutWriteback) {
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  PageCache cache(sim, test_cache_params(), dev);
  sim.spawn([](PageCache& c, BlockDevice& d) -> Task<void> {
    co_await c.write(1, Bytes::zero(), Bytes::kib(512));
    c.drop(1);
    EXPECT_EQ(c.resident_pages(), 0u);
    EXPECT_EQ(c.dirty_pages(), 0u);
    EXPECT_EQ(d.writes_completed(), 0u);
  }(cache, dev));
  sim.run_to_quiescence();
}

TEST(PageCacheTest, ResidencyQuery) {
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  PageCache cache(sim, test_cache_params(), dev);
  sim.spawn([](PageCache& c) -> Task<void> {
    EXPECT_FALSE(c.resident(3, Bytes::zero(), Bytes::kib(256)));
    co_await c.write(3, Bytes::zero(), Bytes::kib(256));
    EXPECT_TRUE(c.resident(3, Bytes::zero(), Bytes::kib(256)));
    EXPECT_FALSE(c.resident(3, Bytes::zero(), Bytes::kib(512)));
  }(cache));
  sim.run_to_quiescence();
}

TEST(PageCacheTest, PartialPageWriteDirtiesWholePage) {
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  PageCache cache(sim, test_cache_params(), dev);
  sim.spawn([](PageCache& c) -> Task<void> {
    co_await c.write(1, Bytes(100), Bytes(50));
    EXPECT_EQ(c.dirty_pages(), 1u);
    EXPECT_TRUE(c.resident(1, Bytes(100), Bytes(50)));
  }(cache));
  sim.run_to_quiescence();
}

// Reference LRU for the oracle test: a plain list (front = most recent) and
// the model's victim rule — the clean page nearest the LRU end within a
// 128-page scan, else the LRU page itself.
struct ReferenceLru {
  std::size_t capacity;
  std::list<std::uint64_t> order;
  std::map<std::uint64_t, bool> dirty;
  std::vector<std::uint64_t> evicted;
  std::uint64_t writeback_pages = 0;

  void access(std::uint64_t page, bool write) {
    if (const auto it = dirty.find(page); it != dirty.end()) {
      order.remove(page);
      order.push_front(page);
      if (write) it->second = true;
      return;
    }
    while (dirty.size() >= capacity) evict();
    order.push_front(page);
    dirty[page] = write;
  }

  void evict() {
    auto victim = std::prev(order.end());
    int scanned = 0;
    for (auto it = std::prev(order.end());; --it) {
      if (!dirty[*it]) {
        victim = it;
        break;
      }
      if (++scanned >= 128 || it == order.begin()) break;
    }
    evicted.push_back(*victim);
    if (dirty[*victim]) ++writeback_pages;
    dirty.erase(*victim);
    order.erase(victim);
  }
};

TEST(PageCacheTest, LruMatchesReferenceOracle) {
  // A pseudo-random hit/insert/evict sequence over 8 pages through a
  // 4-page cache: after every operation the resident set, the page just
  // evicted (if any) and the eviction count match the reference; at the
  // end so do the dirty write-back bytes.
  Simulation sim;
  BlockDevice dev(sim, test_device_params());
  const PageCacheParams params = test_cache_params();
  PageCache cache(sim, params, dev);
  ReferenceLru ref{4, {}, {}, {}, 0};
  constexpr std::uint64_t kPages = 8;
  sim.spawn([](PageCache& c, ReferenceLru& r, Bytes page) -> Task<void> {
    std::uint64_t lcg = 12345;
    std::vector<std::uint64_t> observed_evictions;
    std::vector<bool> was_resident(kPages, false);
    for (int op = 0; op < 400; ++op) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t p = (lcg >> 33) % kPages;
      const bool write = ((lcg >> 20) & 3) == 0;
      if (write) {
        co_await c.write(1, page * p, page);
      } else {
        co_await c.read(1, page * p, page);
      }
      r.access(p, write);
      for (std::uint64_t q = 0; q < kPages; ++q) {
        const bool now_resident = c.resident(1, page * q, page);
        EXPECT_EQ(now_resident, r.dirty.count(q) == 1) << "op " << op;
        if (was_resident[q] && !now_resident) {
          observed_evictions.push_back(q);
        }
        was_resident[q] = now_resident;
      }
      EXPECT_EQ(c.evictions(), r.evicted.size()) << "op " << op;
    }
    EXPECT_EQ(observed_evictions, r.evicted);
  }(cache, ref, params.page_size));
  sim.run_to_quiescence();
  EXPECT_GT(ref.evicted.size(), 100u);
  EXPECT_GT(ref.writeback_pages, 10u);
  EXPECT_EQ(cache.dirty_pages(),
            static_cast<std::size_t>(std::count_if(
                ref.dirty.begin(), ref.dirty.end(),
                [](const auto& kv) { return kv.second; })));
  EXPECT_EQ(dev.bytes_written(), params.page_size * ref.writeback_pages);
}

}  // namespace
}  // namespace mdwf::storage
