// Unit tests for the discrete-event simulation kernel and its primitives.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mdwf/common/time.hpp"
#include "mdwf/obs/trace.hpp"
#include "mdwf/sim/primitives.hpp"
#include "mdwf/sim/simulation.hpp"
#include "mdwf/sim/task.hpp"

namespace mdwf::sim {
namespace {

using namespace mdwf::literals;

Task<void> record_after(Simulation& sim, Duration d, std::vector<int>& log,
                        int id) {
  co_await sim.delay(d);
  log.push_back(id);
}

TEST(SimulationTest, ClockStartsAtOrigin) {
  Simulation sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(SimulationTest, DelayAdvancesClock) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_after(sim, 5_ms, log, 1));
  sim.run_to_quiescence();
  EXPECT_EQ(sim.now(), TimePoint::origin() + 5_ms);
  EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_after(sim, 30_us, log, 3));
  sim.spawn(record_after(sim, 10_us, log, 1));
  sim.spawn(record_after(sim, 20_us, log, 2));
  sim.run_to_quiescence();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, SameTimestampIsFifo) {
  Simulation sim;
  std::vector<int> log;
  for (int i = 0; i < 8; ++i) sim.spawn(record_after(sim, 1_ms, log, i));
  sim.run_to_quiescence();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimulationTest, SequentialDelaysAccumulate) {
  Simulation sim;
  TimePoint end;
  sim.spawn([](Simulation& s, TimePoint& out) -> Task<void> {
    co_await s.delay(1_ms);
    co_await s.delay(2_ms);
    co_await s.delay(3_ms);
    out = s.now();
  }(sim, end));
  sim.run_to_quiescence();
  EXPECT_EQ(end, TimePoint::origin() + 6_ms);
}

TEST(SimulationTest, NestedTaskAwaitPropagatesValue) {
  Simulation sim;
  int result = 0;
  auto inner = [](Simulation& s) -> Task<int> {
    co_await s.delay(2_us);
    co_return 41;
  };
  sim.spawn([](Simulation& s, auto make_inner, int& out) -> Task<void> {
    const int v = co_await make_inner(s);
    out = v + 1;
  }(sim, inner, result));
  sim.run_to_quiescence();
  EXPECT_EQ(result, 42);
}

TEST(SimulationTest, DeeplyNestedAwaitsDoNotOverflowStack) {
  Simulation sim;
  // Recursion depth beyond native stack frames would tolerate if coroutine
  // chaining consumed real stack.
  struct Helper {
    static Task<int> countdown(Simulation& s, int n) {
      if (n == 0) co_return 0;
      co_await s.delay(1_ns);
      const int v = co_await countdown(s, n - 1);
      co_return v + 1;
    }
  };
  int result = -1;
  sim.spawn([](Simulation& s, int& out) -> Task<void> {
    out = co_await Helper::countdown(s, 50000);
  }(sim, result));
  sim.run_to_quiescence();
  EXPECT_EQ(result, 50000);
}

TEST(SimulationTest, ExceptionInProcessSurfacesFromRun) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(1_us);
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimulationTest, ExceptionPropagatesThroughNestedTask) {
  Simulation sim;
  bool caught = false;
  auto thrower = [](Simulation& s) -> Task<void> {
    co_await s.delay(1_us);
    throw std::runtime_error("inner");
  };
  sim.spawn([](Simulation& s, auto mk, bool& c) -> Task<void> {
    try {
      co_await mk(s);
    } catch (const std::runtime_error& e) {
      c = std::string(e.what()) == "inner";
    }
  }(sim, thrower, caught));
  sim.run_to_quiescence();
  EXPECT_TRUE(caught);
}

TEST(SimulationTest, RunUntilStopsAtLimit) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_after(sim, 10_ms, log, 1));
  sim.spawn(record_after(sim, 20_ms, log, 2));
  sim.run_until(TimePoint::origin() + 15_ms);
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), TimePoint::origin() + 15_ms);
  sim.run_to_quiescence();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(SimulationTest, TimerCallbackAndCancel) {
  Simulation sim;
  int fired = 0;
  sim.call_after(1_ms, [&] { ++fired; });
  const TimerId cancelled = sim.call_after(2_ms, [&] { fired += 100; });
  sim.cancel(cancelled);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, DestructionWithSuspendedProcessesIsClean) {
  // A process blocked forever must be destroyed without leaks or crashes
  // when the simulation goes out of scope (ASAN-checked implicitly).
  Simulation sim;
  auto ev = std::make_unique<Event>(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(*ev));
  sim.run();
  EXPECT_TRUE(sim.deadlocked());
  EXPECT_EQ(sim.live_processes(), 1u);
}

// Teardown destroys suspended roots in the live-root map's iteration order,
// and each destroyed frame's ScopedSpan writes its span then: that order
// shows in every trace of a run that ends with blocked processes.  Spans
// that all open at t=0 sort by emission order, so the JSON lists the
// destruction order, which this pins.  The map churns (completions erase,
// growth rehashes) the way a model run does.
TEST(SimulationTest, TeardownOrderOfSuspendedRootsIsPinned) {
  obs::TraceSink sink;
  const obs::TrackId track = sink.track("node0", "procs");
  {
    Simulation sim;
    Event never(sim);
    for (int i = 0; i < 24; ++i) {
      if (i % 3 == 1) {
        sim.spawn([](Simulation& s) -> Task<void> {
          co_await s.delay(1_us);
        }(sim));
        continue;
      }
      char name[8];
      std::snprintf(name, sizeof name, "p%d", i);
      const obs::SpanId id = sink.span_id(track, name, "idle");
      sim.spawn([](Simulation& s, Event& e, obs::TraceSink& k,
                   obs::SpanId sid) -> Task<void> {
        obs::ScopedSpan span(&k, sid, s.now_ptr());
        co_await e.wait();
      }(sim, never, sink, id));
    }
    sim.run();
    ASSERT_EQ(sim.live_processes(), 16u);
  }
  const std::string json = sink.chrome_json();
  const std::regex span_name(R"re("ph":"X","name":"(p\d+)")re");
  std::vector<std::string> order;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), span_name);
       it != std::sregex_iterator(); ++it) {
    order.push_back((*it)[1]);
  }
  const std::vector<std::string> expected = {
      "p23", "p21", "p20", "p18", "p17", "p15", "p14", "p0",
      "p2",  "p3",  "p5",  "p6",  "p8",  "p9",  "p11", "p12"};
  EXPECT_EQ(order, expected);
}

TEST(SimulationTest, RunToQuiescenceThrowsOnDeadlock) {
  Simulation sim;
  auto ev = std::make_unique<Event>(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(*ev));
  EXPECT_THROW(sim.run_to_quiescence(), std::runtime_error);
}

TEST(SimulationTest, MaxEventsGuardTrips) {
  Simulation sim;
  sim.set_max_events(100);
  sim.spawn([](Simulation& s) -> Task<void> {
    for (;;) co_await s.delay(1_ns);
  }(sim));
  EXPECT_DEATH(sim.run(), "event budget");
}

// --- Event ------------------------------------------------------------------

TEST(EventTest, TriggerWakesAllWaiters) {
  Simulation sim;
  Event ev(sim);
  std::vector<int> log;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Event& e, std::vector<int>& l, int id) -> Task<void> {
      co_await e.wait();
      l.push_back(id);
    }(ev, log, i));
  }
  sim.spawn([](Simulation& s, Event& e) -> Task<void> {
    co_await s.delay(5_us);
    e.trigger();
  }(sim, ev));
  sim.run_to_quiescence();
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 5_us);
}

TEST(EventTest, WaitAfterTriggerIsImmediate) {
  Simulation sim;
  Event ev(sim);
  ev.trigger();
  TimePoint waited;
  sim.spawn([](Simulation& s, Event& e, TimePoint& out) -> Task<void> {
    co_await s.delay(3_us);
    co_await e.wait();  // must not block
    out = s.now();
  }(sim, ev, waited));
  sim.run_to_quiescence();
  EXPECT_EQ(waited, TimePoint::origin() + 3_us);
}

TEST(EventTest, TriggerIsIdempotent) {
  Simulation sim;
  Event ev(sim);
  int wakes = 0;
  sim.spawn([](Event& e, int& w) -> Task<void> {
    co_await e.wait();
    ++w;
  }(ev, wakes));
  ev.trigger();
  ev.trigger();
  sim.run_to_quiescence();
  EXPECT_EQ(wakes, 1);
}

// --- Semaphore ---------------------------------------------------------------

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int peak = 0;
  std::vector<Task<void>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([](Simulation& s, Semaphore& sm, int& act,
                       int& pk) -> Task<void> {
      co_await sm.acquire();
      SemaphoreGuard g(sm);
      ++act;
      pk = std::max(pk, act);
      co_await s.delay(1_ms);
      --act;
    }(sim, sem, active, peak));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  // 6 holders, 2 at a time, 1 ms each -> 3 ms.
  EXPECT_EQ(sim.now(), TimePoint::origin() + 3_ms);
}

TEST(SemaphoreTest, FifoHandoff) {
  Simulation sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  std::vector<Task<void>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([](Simulation& s, Semaphore& sm, std::vector<int>& ord,
                       int id) -> Task<void> {
      // Stagger arrival so the wait queue order is known.
      co_await s.delay(Duration::microseconds(id + 1));
      co_await sm.acquire();
      ord.push_back(id);
      co_await s.delay(1_ms);
      sm.release();
    }(sim, sem, order, i));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SemaphoreTest, ReleaseWithoutWaitersRestoresCount) {
  Simulation sim;
  Semaphore sem(sim, 0);
  sem.release(3);
  EXPECT_EQ(sem.available(), 3);
}

// --- Queue --------------------------------------------------------------------

TEST(QueueTest, FifoDelivery) {
  Simulation sim;
  Queue<int> q(sim);
  std::vector<int> got;
  sim.spawn([](Queue<int>& qq, std::vector<int>& g) -> Task<void> {
    for (int i = 0; i < 3; ++i) g.push_back(co_await qq.get());
  }(q, got));
  sim.spawn([](Simulation& s, Queue<int>& qq) -> Task<void> {
    co_await s.delay(1_us);
    co_await qq.put(10);
    co_await qq.put(20);
    co_await s.delay(1_us);
    co_await qq.put(30);
  }(sim, q));
  sim.run_to_quiescence();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(QueueTest, GetBlocksUntilPut) {
  Simulation sim;
  Queue<int> q(sim);
  TimePoint got_at;
  sim.spawn([](Simulation& s, Queue<int>& qq, TimePoint& t) -> Task<void> {
    (void)co_await qq.get();
    t = s.now();
  }(sim, q, got_at));
  sim.spawn([](Simulation& s, Queue<int>& qq) -> Task<void> {
    co_await s.delay(7_ms);
    co_await qq.put(1);
  }(sim, q));
  sim.run_to_quiescence();
  EXPECT_EQ(got_at, TimePoint::origin() + 7_ms);
}

TEST(QueueTest, BoundedPutBlocksUntilSpace) {
  Simulation sim;
  Queue<int> q(sim, 1);
  TimePoint second_put_done;
  sim.spawn([](Simulation& s, Queue<int>& qq, TimePoint& t) -> Task<void> {
    co_await qq.put(1);
    co_await qq.put(2);  // blocks: capacity 1
    t = s.now();
  }(sim, q, second_put_done));
  sim.spawn([](Simulation& s, Queue<int>& qq) -> Task<void> {
    co_await s.delay(4_ms);
    EXPECT_EQ(co_await qq.get(), 1);
    EXPECT_EQ(co_await qq.get(), 2);
  }(sim, q));
  sim.run_to_quiescence();
  EXPECT_EQ(second_put_done, TimePoint::origin() + 4_ms);
}

TEST(QueueTest, TryPutRespectsCapacity) {
  Simulation sim;
  Queue<int> q(sim, 2);
  EXPECT_TRUE(q.try_put(1));
  EXPECT_TRUE(q.try_put(2));
  EXPECT_FALSE(q.try_put(3));
  EXPECT_EQ(q.size(), 2u);
}

// --- Barrier -------------------------------------------------------------------

TEST(BarrierTest, ReleasesWhenAllArrive) {
  Simulation sim;
  Barrier b(sim, 3);
  std::vector<TimePoint> released(3);
  std::vector<Task<void>> tasks;
  for (int i = 0; i < 3; ++i) {
    tasks.push_back([](Simulation& s, Barrier& bar, TimePoint& out,
                       int id) -> Task<void> {
      co_await s.delay(Duration::milliseconds(id * 10));
      co_await bar.arrive_and_wait();
      out = s.now();
    }(sim, b, released[i], i));
  }
  sim.spawn(all(sim, std::move(tasks)));
  sim.run_to_quiescence();
  // Everyone released at the time of the slowest arriver.
  for (const auto& t : released) {
    EXPECT_EQ(t, TimePoint::origin() + 20_ms);
  }
}

TEST(BarrierTest, IsReusableAcrossGenerations) {
  Simulation sim;
  Barrier b(sim, 2);
  std::vector<int> log;
  auto worker = [](Simulation& s, Barrier& bar, std::vector<int>& l, int id,
                   Duration pace) -> Task<void> {
    for (int round = 0; round < 3; ++round) {
      co_await s.delay(pace);
      co_await bar.arrive_and_wait();
      if (id == 0) l.push_back(round);
    }
  };
  sim.spawn(worker(sim, b, log, 0, 1_ms));
  sim.spawn(worker(sim, b, log, 1, 5_ms));
  sim.run_to_quiescence();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), TimePoint::origin() + 15_ms);
}

TEST(BarrierTest, SingleParticipantNeverBlocks) {
  Simulation sim;
  Barrier b(sim, 1);
  bool done = false;
  sim.spawn([](Barrier& bar, bool& d) -> Task<void> {
    co_await bar.arrive_and_wait();
    d = true;
  }(b, done));
  sim.run_to_quiescence();
  EXPECT_TRUE(done);
}

// --- WaitGroup -------------------------------------------------------------------

TEST(WaitGroupTest, WaitsForAllDone) {
  Simulation sim;
  WaitGroup wg(sim);
  wg.add(3);
  TimePoint released;
  sim.spawn([](Simulation& s, WaitGroup& w, TimePoint& out) -> Task<void> {
    co_await w.wait();
    out = s.now();
  }(sim, wg, released));
  for (int i = 1; i <= 3; ++i) {
    sim.spawn([](Simulation& s, WaitGroup& w, int id) -> Task<void> {
      co_await s.delay(Duration::milliseconds(id));
      w.done();
    }(sim, wg, i));
  }
  sim.run_to_quiescence();
  EXPECT_EQ(released, TimePoint::origin() + 3_ms);
}

TEST(WaitGroupTest, WaitOnZeroPendingIsImmediate) {
  Simulation sim;
  WaitGroup wg(sim);
  bool done = false;
  sim.spawn([](WaitGroup& w, bool& d) -> Task<void> {
    co_await w.wait();
    d = true;
  }(wg, done));
  sim.run_to_quiescence();
  EXPECT_TRUE(done);
}

TEST(WaitGroupTest, WaitersResumeInTheOrderTheyWaited) {
  // The first waiter is kept inline and the rest in a list; the release
  // must still wake them first-come first-served, over two cycles.
  Simulation sim;
  WaitGroup wg(sim);
  std::vector<int> order;
  for (int cycle = 0; cycle < 2; ++cycle) {
    wg.add(1);
    for (int id : {0, 1, 2}) {
      sim.spawn([](WaitGroup& w, std::vector<int>& o, int v) -> Task<void> {
        co_await w.wait();
        o.push_back(v);
      }(wg, order, cycle * 10 + id));
    }
    sim.spawn([](Simulation& s, WaitGroup& w) -> Task<void> {
      co_await s.delay(1_us);
      w.done();
    }(sim, wg));
    sim.run_to_quiescence();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
}

// --- all() -----------------------------------------------------------------------

TEST(AllTest, CompletesAtSlowestChild) {
  Simulation sim;
  std::vector<Task<void>> tasks;
  for (int i = 1; i <= 4; ++i) {
    tasks.push_back([](Simulation& s, int id) -> Task<void> {
      co_await s.delay(Duration::milliseconds(id * 10));
    }(sim, i));
  }
  TimePoint done_at;
  sim.spawn([](Simulation& s, std::vector<Task<void>> ts,
               TimePoint& out) -> Task<void> {
    co_await all(s, std::move(ts));
    out = s.now();
  }(sim, std::move(tasks), done_at));
  sim.run_to_quiescence();
  EXPECT_EQ(done_at, TimePoint::origin() + 40_ms);
}

TEST(AllTest, PropagatesChildException) {
  Simulation sim;
  std::vector<Task<void>> tasks;
  tasks.push_back([](Simulation& s) -> Task<void> {
    co_await s.delay(1_ms);
  }(sim));
  tasks.push_back([](Simulation& s) -> Task<void> {
    co_await s.delay(2_ms);
    throw std::runtime_error("child failed");
  }(sim));
  bool caught = false;
  sim.spawn([](Simulation& s, std::vector<Task<void>> ts,
               bool& c) -> Task<void> {
    try {
      co_await all(s, std::move(ts));
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(sim, std::move(tasks), caught));
  sim.run_to_quiescence();
  EXPECT_TRUE(caught);
}

TEST(AllTest, EmptyVectorCompletesImmediately) {
  Simulation sim;
  bool done = false;
  sim.spawn([](Simulation& s, bool& d) -> Task<void> {
    co_await all(s, {});
    d = true;
  }(sim, done));
  sim.run_to_quiescence();
  EXPECT_TRUE(done);
}

TEST(AllTest, JoinAllOverAFixedArray) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn([](Simulation& s, std::vector<int>& l) -> Task<void> {
    std::array<Task<void>, 2> both{record_after(s, 2_us, l, 2),
                                   record_after(s, 1_us, l, 1)};
    co_await join_all(s, both);
    l.push_back(0);
  }(sim, log));
  sim.run_to_quiescence();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(sim.now(), TimePoint::origin() + 2_us);
}

// --- Frame pool -------------------------------------------------------------------

Task<int> small_frame(int v) { co_return v; }

// Keeps an 8 KiB buffer alive across a suspension, so the frame is larger
// than the pool's biggest size class.
Task<int> large_frame(Simulation& sim, int v) {
  std::array<unsigned char, 8192> buf{};
  buf[100] = static_cast<unsigned char>(v);
  co_await sim.yield();
  co_return buf[100] + buf[8000];
}

TEST(FramePool, SequentialTasksOfOneSizeClassReuseTheBlock) {
  if (!detail::kFramePoolEnabled) {
    GTEST_SKIP() << "frame pool is compiled out under sanitizers";
  }
  void* first = nullptr;
  {
    Task<int> t = small_frame(1);
    first = t.handle().address();
  }
  const std::size_t cached = detail::FramePool::cached();
  ASSERT_GE(cached, 1u);
  Task<int> again = small_frame(2);
  EXPECT_EQ(again.handle().address(), first);
  EXPECT_EQ(detail::FramePool::cached(), cached - 1);
}

TEST(FramePool, FramesOverFourKiBBypassThePool) {
  Simulation sim;
  int out = 0;
  sim.spawn([](Simulation& s, int& o) -> Task<void> {
    o = co_await large_frame(s, 7);
  }(sim, out));
  sim.run_to_quiescence();
  EXPECT_EQ(out, 7);
  // Making and dropping a large frame leaves the free lists as they were.
  const std::size_t cached = detail::FramePool::cached();
  { Task<int> t = large_frame(sim, 1); }
  EXPECT_EQ(detail::FramePool::cached(), cached);
}

TEST(FramePool, CrossThreadDestroyIsSafe) {
  // Frames made on a worker thread, which then exits and releases its own
  // lists, are destroyed here and join this thread's lists.
  std::vector<Task<int>> made;
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Event> never;
  std::thread worker([&] {
    for (int i = 0; i < 8; ++i) made.push_back(small_frame(i));
    sim = std::make_unique<Simulation>();
    never = std::make_unique<Event>(*sim);
    for (int i = 0; i < 4; ++i) {
      sim->spawn([](Event& e) -> Task<void> { co_await e.wait(); }(*never));
    }
    sim->run();
  });
  worker.join();
  const std::size_t before = detail::FramePool::cached();
  made.clear();
  sim.reset();  // four suspended roots: a root frame and a task frame each
  never.reset();
  if (detail::kFramePoolEnabled) {
    EXPECT_EQ(detail::FramePool::cached(), before + 16);
  }
  // The adopted blocks serve this thread's next frames.
  std::vector<Task<int>> reused;
  for (int i = 0; i < 8; ++i) reused.push_back(small_frame(i));
  if (detail::kFramePoolEnabled) {
    EXPECT_EQ(detail::FramePool::cached(), before + 8);
  }
}

// --- Determinism ------------------------------------------------------------------

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTraces) {
  auto run_once = [] {
    Simulation sim;
    Queue<int> q(sim);
    Semaphore sem(sim, 2);
    std::vector<std::pair<std::int64_t, int>> trace;
    for (int i = 0; i < 5; ++i) {
      sim.spawn([](Simulation& s, Queue<int>& qq, Semaphore& sm,
                   std::vector<std::pair<std::int64_t, int>>& tr,
                   int id) -> Task<void> {
        co_await sm.acquire();
        co_await s.delay(Duration::microseconds(id * 3 + 1));
        sm.release();
        co_await qq.put(id);
        tr.emplace_back(s.now().ns(), id);
      }(sim, q, sem, trace, i));
    }
    sim.spawn([](Queue<int>& qq,
                 std::vector<std::pair<std::int64_t, int>>& tr) -> Task<void> {
      for (int i = 0; i < 5; ++i) {
        const int v = co_await qq.get();
        tr.emplace_back(-1, v);
      }
    }(q, trace));
    sim.run_to_quiescence();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace mdwf::sim
