#include "mdwf/sim/primitives.hpp"

namespace mdwf::sim {
namespace {

Task<void> run_and_signal(Task<void> t, WaitGroup& wg,
                          std::exception_ptr& first_error) {
  try {
    co_await std::move(t);
  } catch (...) {
    if (!first_error) first_error = std::current_exception();
  }
  wg.done();
}

}  // namespace

Task<void> join_all(Simulation& sim, std::span<Task<void>> tasks) {
  WaitGroup wg(sim);
  std::exception_ptr first_error;
  wg.add(tasks.size());
  for (auto& t : tasks) {
    sim.spawn(run_and_signal(std::move(t), wg, first_error));
  }
  // wg and first_error outlive the children: this frame suspends here until
  // the last child has called done().
  co_await wg.wait();
  if (first_error) std::rethrow_exception(first_error);
}

Task<void> all(Simulation& sim, std::vector<Task<void>> tasks) {
  co_await join_all(sim, tasks);
}

}  // namespace mdwf::sim
