// Synchronization primitives for simulated processes.
//
// All primitives resume waiters by *scheduling* them at the current virtual
// time rather than resuming inline; this avoids re-entrancy into the waker
// and preserves deterministic FIFO ordering among same-instant events.
#pragma once

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mdwf/common/assert.hpp"
#include "mdwf/sim/simulation.hpp"
#include "mdwf/sim/task.hpp"

namespace mdwf::sim {

// One-shot broadcast event.  `trigger` wakes every current and future waiter.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}

  bool triggered() const { return triggered_; }

  void trigger() {
    if (triggered_) return;
    triggered_ = true;
    for (auto h : waiters_) sim_->schedule_resume(h, Duration::zero());
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event* ev;
      bool await_ready() const noexcept { return ev->triggered_; }
      void await_suspend(std::coroutine_handle<> h) const {
        ev->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Counting semaphore with FIFO handoff: release passes the permit directly
// to the longest-waiting acquirer, so no acquirer can be starved.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::int64_t initial)
      : sim_(&sim), count_(initial) {
    MDWF_ASSERT(initial >= 0);
  }

  std::int64_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size(); }

  auto acquire() {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept {
        if (sem->count_ > 0) {
          --sem->count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) const {
        sem->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void release(std::int64_t n = 1) {
    MDWF_ASSERT(n >= 0);
    while (n > 0 && !waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->schedule_resume(h, Duration::zero());
      --n;  // permit handed off, never touches count_
    }
    count_ += n;
  }

 private:
  Simulation* sim_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// RAII permit: release on scope exit.  Acquire first, then adopt:
//   co_await sem.acquire();
//   SemaphoreGuard guard(sem);
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& sem) : sem_(&sem) {}
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  SemaphoreGuard(SemaphoreGuard&& o) noexcept
      : sem_(std::exchange(o.sem_, nullptr)) {}
  ~SemaphoreGuard() {
    if (sem_) sem_->release();
  }

 private:
  Semaphore* sem_;
};

// FIFO channel between processes.  capacity == 0 means unbounded.
template <typename T>
class Queue {
 public:
  explicit Queue(Simulation& sim, std::size_t capacity = 0)
      : sim_(&sim), capacity_(capacity) {}

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  // Non-blocking put; fails (returns false) when bounded and full.
  bool try_put(T v) {
    if (capacity_ != 0 && items_.size() >= capacity_ && getters_.empty()) {
      return false;
    }
    deliver(std::move(v));
    return true;
  }

  // Blocking put: suspends while the queue is full.
  auto put(T v) {
    struct Awaiter {
      Queue* q;
      T value;
      bool await_ready() {
        if (q->capacity_ == 0 || q->items_.size() < q->capacity_ ||
            !q->getters_.empty()) {
          q->deliver(std::move(value));
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        q->putters_.push_back(Putter{h, std::move(value)});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, std::move(v)};
  }

  // Non-blocking get; empty when nothing is buffered.
  std::optional<T> try_get() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    admit_putter();
    return v;
  }

  // Blocking get: suspends while the queue is empty.
  auto get() {
    struct Awaiter {
      Queue* q;
      std::optional<T> slot;
      bool await_ready() {
        if (!q->items_.empty()) {
          slot = std::move(q->items_.front());
          q->items_.pop_front();
          q->admit_putter();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        q->getters_.push_back(Getter{h, &slot});
      }
      T await_resume() {
        MDWF_ASSERT(slot.has_value());
        return std::move(*slot);
      }
    };
    return Awaiter{this, std::nullopt};
  }

 private:
  struct Getter {
    std::coroutine_handle<> h;
    std::optional<T>* slot;
  };
  struct Putter {
    std::coroutine_handle<> h;
    T value;
  };

  // Hands a value to a waiting getter if any, else buffers it.
  void deliver(T v) {
    if (!getters_.empty()) {
      Getter g = getters_.front();
      getters_.pop_front();
      g.slot->emplace(std::move(v));
      sim_->schedule_resume(g.h, Duration::zero());
      return;
    }
    items_.push_back(std::move(v));
  }

  // After a buffered item leaves, a blocked putter (if any) may proceed.
  void admit_putter() {
    if (putters_.empty()) return;
    if (capacity_ != 0 && items_.size() >= capacity_) return;
    Putter p = std::move(putters_.front());
    putters_.pop_front();
    items_.push_back(std::move(p.value));
    sim_->schedule_resume(p.h, Duration::zero());
  }

  Simulation* sim_;
  std::size_t capacity_;
  std::deque<T> items_;
  std::deque<Getter> getters_;
  std::deque<Putter> putters_;
};

// Reusable rendezvous barrier for a fixed participant count.
class Barrier {
 public:
  Barrier(Simulation& sim, std::size_t participants)
      : sim_(&sim), participants_(participants) {
    MDWF_ASSERT(participants >= 1);
  }

  auto arrive_and_wait() {
    struct Awaiter {
      Barrier* b;
      bool await_ready() const noexcept {
        return b->participants_ == 1;  // degenerate barrier never blocks
      }
      bool await_suspend(std::coroutine_handle<> h) const {
        b->waiters_.push_back(h);
        if (b->waiters_.size() == b->participants_) {
          for (auto w : b->waiters_) {
            b->sim_->schedule_resume(w, Duration::zero());
          }
          b->waiters_.clear();
          // The last arriver is among the scheduled handles; suspend it too
          // so wake order is uniform.
        }
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  std::size_t waiting() const { return waiters_.size(); }

 private:
  Simulation* sim_;
  std::size_t participants_;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Completion counter: `wait` resumes once `done` has been called `add`-many
// times.  Reusable only after a full cycle.  Waiters resume in the order
// they waited; the first one is kept inline, so the common single-waiter
// group (`all`) allocates nothing.
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : sim_(&sim) {}

  void add(std::size_t n = 1) { pending_ += n; }

  void done() {
    MDWF_ASSERT_MSG(pending_ > 0, "WaitGroup::done without matching add");
    if (--pending_ == 0 && first_waiter_) {
      sim_->schedule_resume(std::exchange(first_waiter_, {}),
                            Duration::zero());
      for (auto h : more_waiters_) sim_->schedule_resume(h, Duration::zero());
      more_waiters_.clear();
    }
  }

  std::size_t pending() const { return pending_; }

  auto wait() {
    struct Awaiter {
      WaitGroup* wg;
      bool await_ready() const noexcept { return wg->pending_ == 0; }
      void await_suspend(std::coroutine_handle<> h) const {
        if (!wg->first_waiter_) {
          wg->first_waiter_ = h;
        } else {
          wg->more_waiters_.push_back(h);
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  std::size_t pending_ = 0;
  std::coroutine_handle<> first_waiter_;
  std::vector<std::coroutine_handle<>> more_waiters_;
};

// Runs tasks concurrently and completes when all have finished.  The first
// exception (in completion order) is rethrown after every task has settled.
Task<void> all(Simulation& sim, std::vector<Task<void>> tasks);

// `all` over tasks the caller owns: a fixed array on the awaiting frame
// needs no heap.  `tasks` must outlive the returned task.
Task<void> join_all(Simulation& sim, std::span<Task<void>> tasks);

}  // namespace mdwf::sim
