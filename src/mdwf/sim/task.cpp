#include "mdwf/sim/task.hpp"

#include <new>
#include <utility>

namespace mdwf::sim::detail {

void* FramePool::allocate_fresh(std::size_t c) {
  if (lists_.state == State::kUnused) open_thread();
  return ::operator new((c + 1) * kGranule);
}

void FramePool::release_slow(void* p, std::size_t c) noexcept {
  if (lists_.state == State::kClosed) {
    ::operator delete(p);
    return;
  }
  open_thread();
  auto* b = static_cast<Block*>(p);
  b->next = lists_.head[c];
  lists_.head[c] = b;
}

void FramePool::open_thread() {
  // Constructing this thread_local registers its destructor to run at
  // thread exit; it frees the cached blocks and closes the lists, so a
  // frame destroyed later in the thread's teardown is freed directly.
  struct Releaser {
    ~Releaser() {
      for (Block*& head : lists_.head) {
        while (head != nullptr) {
          ::operator delete(std::exchange(head, head->next));
        }
      }
      lists_.state = State::kClosed;
    }
  };
  static thread_local Releaser releaser;
  lists_.state = State::kOpen;
}

std::size_t FramePool::cached() {
  std::size_t n = 0;
  for (const Block* head : lists_.head) {
    for (; head != nullptr; head = head->next) ++n;
  }
  return n;
}

}  // namespace mdwf::sim::detail
