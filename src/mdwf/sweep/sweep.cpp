#include "mdwf/sweep/sweep.hpp"

#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "mdwf/common/assert.hpp"

namespace mdwf::sweep {
namespace {

// Work-stealing task pool for a fixed batch: tasks are dealt round-robin
// onto per-worker deques up front; an owner pops its own newest task
// (LIFO keeps the deal's cache-warm tail local), a thief takes a victim's
// oldest (FIFO minimizes contention on the victim's hot end).  Tasks never
// spawn tasks, so a worker that finds every deque empty is done for good.
// Determinism needs nothing from the pool — tasks write to pre-sized slots
// and the caller folds slots in canonical order.
class TaskPool {
 public:
  static void run(std::vector<std::function<void()>>&& tasks,
                  unsigned threads) {
    if (threads <= 1 || tasks.size() <= 1) {
      for (auto& t : tasks) t();
      return;
    }
    const auto n = static_cast<unsigned>(
        std::min<std::size_t>(threads, tasks.size()));
    std::vector<Queue> queues(n);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      queues[i % n].tasks.push_back(std::move(tasks[i]));
    }
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (unsigned w = 0; w < n; ++w) {
      workers.emplace_back([&queues, n, w] { work(queues, n, w); });
    }
    for (auto& t : workers) t.join();
  }

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  static void work(std::vector<Queue>& queues, unsigned n, unsigned self) {
    for (;;) {
      std::function<void()> task;
      {
        Queue& own = queues[self];
        const std::lock_guard<std::mutex> lock(own.mu);
        if (!own.tasks.empty()) {
          task = std::move(own.tasks.back());
          own.tasks.pop_back();
        }
      }
      for (unsigned k = 1; !task && k < n; ++k) {
        Queue& victim = queues[(self + k) % n];
        const std::lock_guard<std::mutex> lock(victim.mu);
        if (!victim.tasks.empty()) {
          task = std::move(victim.tasks.front());
          victim.tasks.pop_front();
        }
      }
      if (!task) return;
      task();
    }
  }
};

// One repetition's landing slot: exactly one of `out`/`err` is set after the
// task ran.
struct RepSlot {
  std::optional<workflow::RepOutcome> out;
  std::exception_ptr err;
};

std::function<void()> make_rep_task(const workflow::EnsembleConfig& config,
                                    std::uint32_t rep, obs::TraceSink* trace,
                                    RepSlot& slot) {
  return [&config, rep, trace, &slot] {
    try {
      slot.out = workflow::run_repetition(config, rep, trace);
    } catch (...) {
      slot.err = std::current_exception();
    }
  };
}

std::string error_message(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

// CSV field hygiene: the summary is one record per line, comma-separated.
std::string csv_safe(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return s;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

unsigned resolve_threads(std::uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void run_tasks(std::vector<std::function<void()>> tasks,
               std::uint32_t threads) {
  TaskPool::run(std::move(tasks), resolve_threads(threads));
}

std::string RepFailure::message() const { return error_message(error); }

std::optional<RepFailure> run_repetitions(
    std::uint32_t reps, std::uint32_t threads, obs::TraceSink* rep0_trace,
    const std::function<void(std::uint32_t rep, obs::TraceSink* trace)>&
        run) {
  std::vector<std::exception_ptr> errors(reps);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(reps);
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    tasks.push_back([&run, &errors, rep0_trace, rep] {
      try {
        run(rep, rep == 0 ? rep0_trace : nullptr);
      } catch (...) {
        errors[rep] = std::current_exception();
      }
    });
  }
  TaskPool::run(std::move(tasks), resolve_threads(threads));
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    if (errors[rep]) return RepFailure{rep, errors[rep]};
  }
  return std::nullopt;
}

workflow::EnsembleResult run_ensemble(const workflow::EnsembleConfig& config) {
  const unsigned threads = resolve_threads(config.threads);
  if (threads <= 1 || config.repetitions <= 1) {
    return workflow::run_ensemble(config);
  }
  obs::TraceSink trace_sink;  // rep 0 only: no cross-thread sharing
  const bool tracing = !config.trace_path.empty();
  std::vector<std::optional<workflow::RepOutcome>> slots(config.repetitions);
  if (const auto failure = run_repetitions(
          config.repetitions, threads, tracing ? &trace_sink : nullptr,
          [&](std::uint32_t rep, obs::TraceSink* trace) {
            slots[rep] = workflow::run_repetition(config, rep, trace);
          })) {
    std::rethrow_exception(failure->error);
  }
  workflow::EnsembleResult result = workflow::make_ensemble_result();
  for (auto& slot : slots) fold_repetition(result, std::move(*slot));
  if (tracing) {
    result.counters.set("trace_events", trace_sink.event_count());
    trace_sink.write(config.trace_path);
  }
  return result;
}

SweepResult run_sweep(std::vector<SweepPoint> grid, std::uint32_t threads) {
  const unsigned workers = resolve_threads(threads);
  const auto start = std::chrono::steady_clock::now();

  // Per-point repetition slots plus a per-point trace sink (rep 0 of each
  // point may trace; distinct points never share a sink, so point-level
  // parallelism stays race-free).
  std::vector<std::vector<RepSlot>> slots(grid.size());
  std::deque<obs::TraceSink> sinks(grid.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const workflow::EnsembleConfig& config = grid[p].config;
    slots[p].resize(config.repetitions);
    const bool tracing = !config.trace_path.empty();
    for (std::uint32_t rep = 0; rep < config.repetitions; ++rep) {
      tasks.push_back(make_rep_task(
          config, rep, (tracing && rep == 0) ? &sinks[p] : nullptr,
          slots[p][rep]));
    }
  }
  TaskPool::run(std::move(tasks), workers);

  SweepResult sweep;
  sweep.points.reserve(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p) {
    PointResult point;
    point.label = std::move(grid[p].label);
    point.config = std::move(grid[p].config);
    workflow::EnsembleResult folded = workflow::make_ensemble_result();
    for (RepSlot& slot : slots[p]) {
      if (slot.err) {
        // Canonical first failure; later repetitions of a poisoned point
        // are dropped (the serial loop would not have run them).
        point.error_text = error_message(slot.err);
        break;
      }
      fold_repetition(folded, std::move(*slot.out));
    }
    if (!point.failed()) {
      if (!point.config.trace_path.empty()) {
        folded.counters.set("trace_events", sinks[p].event_count());
        sinks[p].write(point.config.trace_path);
      }
      point.sim_events = folded.counters.get("sim_events");
      point.result = std::move(folded);
    }
    sweep.errors += point.failed() ? 1 : 0;
    sweep.total_sim_events += point.sim_events;
    sweep.points.push_back(std::move(point));
  }
  sweep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return sweep;
}

std::string SweepResult::to_csv() const {
  std::string csv =
      "label,solution,model,pairs,nodes,frames,reps,"
      "prod_movement_us,prod_idle_us,cons_movement_us,cons_idle_us,"
      "fetch_p99_us,makespan_s,sim_events,error\n";
  for (const PointResult& point : points) {
    const workflow::EnsembleConfig& c = point.config;
    csv += csv_safe(point.label);
    csv += ',';
    csv += to_string(c.solution);
    csv += ',';
    csv += csv_safe(std::string(c.workload.model.name));
    csv += ',' + std::to_string(c.pairs);
    csv += ',' + std::to_string(c.nodes);
    csv += ',' + std::to_string(c.workload.frames);
    csv += ',' + std::to_string(c.repetitions);
    const workflow::EnsembleResult& r = point.result;
    csv += ',' + fmt(point.failed() ? 0.0 : r.prod_movement_us.mean());
    csv += ',' + fmt(point.failed() ? 0.0 : r.prod_idle_us.mean());
    csv += ',' + fmt(point.failed() ? 0.0 : r.cons_movement_us.mean());
    csv += ',' + fmt(point.failed() ? 0.0 : r.cons_idle_us.mean());
    csv += ',' + fmt(point.failed() ? 0.0 : r.cons_fetch_us.quantile(0.99));
    csv += ',' + fmt(point.failed() ? 0.0 : r.makespan_s.mean());
    csv += ',' + std::to_string(point.sim_events);
    csv += ',' + csv_safe(point.error_text);
    csv += '\n';
  }
  return csv;
}

}  // namespace mdwf::sweep
