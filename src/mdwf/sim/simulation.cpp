#include "mdwf/sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mdwf::sim {

// Root wrapper coroutine: adapts a user Task<void> into a detached process
// whose completion (or failure) reports back to the kernel.  The wrapper's
// frame owns the user task; both frames are destroyed together.
struct RootTask {
  struct promise_type : detail::PooledFrame {
    Simulation* sim = nullptr;
    std::uint64_t id = 0;

    RootTask get_return_object() noexcept {
      return RootTask{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    // Not suspending at the final point lets the frame self-destroy right
    // after we deregister from the kernel.
    std::suspend_never final_suspend() const noexcept {
      sim->internal_root_finished(id);
      return {};
    }
    void return_void() const noexcept {}
    void unhandled_exception() noexcept {
      // Surface the failure from the run loop; the process still counts as
      // finished so teardown does not double-destroy the frame.
      sim->internal_report_error(std::current_exception());
    }
  };

  std::coroutine_handle<promise_type> handle;
};

namespace {

RootTask run_root(Task<void> task) {
  co_await std::move(task);
}

}  // namespace

Simulation::~Simulation() {
  // Destroy still-suspended processes.  Their frames own any child task
  // frames, so destruction cascades.  Pending queue entries may reference
  // destroyed coroutines but are never fired.
  for (auto& [id, rec] : live_roots_) rec.handle.destroy();
}

void Simulation::spawn(Task<void> task) { spawn(std::move(task), {}); }

void Simulation::spawn(Task<void> task, std::string name) {
  MDWF_ASSERT_MSG(task.valid(), "spawn of an empty Task");
  RootTask root = run_root(std::move(task));
  auto& promise = root.handle.promise();
  promise.sim = this;
  promise.id = next_root_id_++;
  live_roots_.emplace(promise.id, RootRecord{root.handle, std::move(name)});
  schedule_resume(root.handle, Duration::zero());
  trace_live_processes();
}

void Simulation::internal_root_finished(std::uint64_t id) {
  const auto erased = live_roots_.erase(id);
  MDWF_ASSERT(erased == 1);
  trace_live_processes();
}

void Simulation::trace_live_processes() {
  if (trace_ == nullptr) return;
  trace_->counter(trace_live_id_, now_,
                  static_cast<std::int64_t>(live_roots_.size()));
}

void Simulation::schedule_resume(std::coroutine_handle<> h, Duration after) {
  queue_.push(now_ + after, next_seq_++, h);
}

TimerId Simulation::call_at(TimePoint t, std::function<void()> fn) {
  MDWF_ASSERT_MSG(t >= now_, "scheduling into the past");
  const std::uint64_t seq = next_seq_++;
  EventSlot* slot = queue_.push(t, seq, std::move(fn));
  return TimerId{slot, seq};
}

TimerId Simulation::call_after(Duration d, std::function<void()> fn) {
  return call_at(now_ + d, std::move(fn));
}

void Simulation::cancel(TimerId id) { queue_.cancel(id.slot, id.seq); }

void Simulation::fire(EventSlot* e) {
  now_ = e->at;
  ++events_fired_;
  MDWF_ASSERT_MSG(events_fired_ <= max_events_,
                  "event budget exceeded (runaway model?)");
  // Detach the payload and recycle the slot *before* invoking: the payload
  // may schedule new events, and the freed slot can then be reissued
  // immediately without growing the pool.
  if (e->resume) {
    const std::coroutine_handle<> h = e->resume;
    queue_.release(e);
    h.resume();
  } else {
    std::function<void()> fn = std::move(e->fn);
    queue_.release(e);
    fn();
  }
  if (pending_error_) {
    auto err = std::exchange(pending_error_, nullptr);
    std::rethrow_exception(err);
  }
}

bool Simulation::step() {
  EventSlot* e = queue_.pop();
  if (e == nullptr) return false;
  fire(e);
  return true;
}

std::uint64_t Simulation::run() {
  const std::uint64_t before = events_fired_;
  while (step()) {
  }
  return events_fired_ - before;
}

std::uint64_t Simulation::run_until(TimePoint limit) {
  const std::uint64_t before = events_fired_;
  // peek() skips cancelled slots, so the bound is checked against the event
  // that would actually fire (the old priority_queue peeked at tombstones,
  // which could overshoot the limit when the top entry was cancelled).
  while (EventSlot* top = queue_.peek()) {
    if (top->at > limit) break;
    step();
  }
  if (now_ < limit) now_ = limit;
  return events_fired_ - before;
}

bool Simulation::deadlocked() const {
  if (!live_roots_.empty() && queue_.empty()) return true;
  return false;
}

std::uint64_t Simulation::run_to_quiescence() {
  const std::uint64_t n = run();
  if (!live_roots_.empty()) {
    // Name every blocked process (sorted for a stable message): a deadlock
    // report that says *who* is stuck — "consumer[1]" waiting on a KVS watch
    // that will never fire — is actionable; a bare count is not.
    std::vector<std::string> blocked;
    blocked.reserve(live_roots_.size());
    for (const auto& [id, rec] : live_roots_) {
      blocked.push_back(rec.name.empty() ? "proc#" + std::to_string(id)
                                         : rec.name);
    }
    std::sort(blocked.begin(), blocked.end());
    std::string msg = "simulation deadlock: " +
                      std::to_string(blocked.size()) +
                      " process(es) blocked with an empty event queue:";
    for (const auto& b : blocked) msg += " " + b;
    throw std::runtime_error(msg);
  }
  return n;
}

}  // namespace mdwf::sim
