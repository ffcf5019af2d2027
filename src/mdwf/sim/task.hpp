// Lazy coroutine task type for simulated processes.
//
// `Task<T>` is the unit of simulated control flow: every modelled activity
// (an MD producer, a Lustre RPC, an RDMA transfer) is a coroutine returning
// Task.  Tasks are lazy — they begin executing when first awaited or when
// handed to `Simulation::spawn` — and chain via symmetric transfer, so deep
// await stacks cost no native stack depth.
//
// Ownership: a Task owns its coroutine frame; destroying an un-awaited or
// suspended Task destroys the frame (and, recursively, the frames of any
// child task it is awaiting, since those are owned by locals in the frame).
//
// Frames come from `FramePool`, so a warm simulation creates and destroys
// tasks without touching the global allocator.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "mdwf/common/assert.hpp"

namespace mdwf::sim {

template <typename T = void>
class Task;

namespace detail {

// The frame pool is compiled out under ASan and TSan: with every frame a
// plain ::operator new block, the sanitizers still see a use-after-free of
// a destroyed frame instead of a silently recycled block.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kFramePoolEnabled = false;
#else
inline constexpr bool kFramePoolEnabled = true;
#endif

// Thread-local free lists of coroutine frames in 64-byte size classes up to
// 4 KiB; larger frames go straight to ::operator new.  A list keeps at most
// the peak number of frames of its class that were live at once, and is
// released when its thread exits.
//
// A frame made on one sweep worker and destroyed on another joins the
// destroying thread's list.  That is safe: every pooled block, whichever
// thread made it, is a plain ::operator new block of exactly its class
// size, so any thread may reuse it for that class or free it.
class FramePool {
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxFrame = 4096;

 public:
  static void* allocate(std::size_t n) {
    if constexpr (kFramePoolEnabled) {
      if (n <= kMaxFrame) {
        const std::size_t c = size_class(n);
        if (Block* b = lists_.head[c]) {
          lists_.head[c] = b->next;
          return b;
        }
        return allocate_fresh(c);
      }
    }
    return ::operator new(n);
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    if constexpr (kFramePoolEnabled) {
      if (n <= kMaxFrame) {
        const std::size_t c = size_class(n);
        if (lists_.state != State::kOpen) {
          release_slow(p, c);
          return;
        }
        auto* b = static_cast<Block*>(p);
        b->next = lists_.head[c];
        lists_.head[c] = b;
        return;
      }
    }
    ::operator delete(p);
  }

  // Frames cached on the calling thread (tests).
  static std::size_t cached();

 private:
  static constexpr std::size_t kClasses = kMaxFrame / kGranule;
  struct Block {
    Block* next;
  };
  // kUnused: no thread-exit release registered yet; kClosed: the thread is
  // exiting, its lists are gone and frames go back to ::operator delete.
  enum class State : unsigned char { kUnused, kOpen, kClosed };
  struct Lists {
    Block* head[kClasses];
    State state;
  };

  // n >= 1: a frame holds at least its resume and destroy pointers.
  static std::size_t size_class(std::size_t n) { return (n - 1) / kGranule; }
  static void* allocate_fresh(std::size_t c);
  static void release_slow(void* p, std::size_t c) noexcept;
  static void open_thread();

  static constinit inline thread_local Lists lists_{};
};

// Coroutine frames of every promise type that derives from this come from
// the FramePool.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }
};

template <typename Promise>
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) const noexcept {
    // Resume whoever awaited us; if nobody did (detached completion), return
    // to the scheduler.
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  std::suspend_always initial_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object() noexcept;
  FinalAwaiter<Promise<T>> final_suspend() const noexcept { return {}; }
  void return_value(T v) { value.emplace(std::move(v)); }

  T take_result() {
    if (error) std::rethrow_exception(error);
    MDWF_ASSERT_MSG(value.has_value(), "task completed without a value");
    return std::move(*value);
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  FinalAwaiter<Promise<void>> final_suspend() const noexcept { return {}; }
  void return_void() const noexcept {}

  void take_result() const {
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}

  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_ && h_.done(); }

  // Awaiting a task starts it and suspends the awaiter until it completes;
  // the task's return value (or exception) is propagated.
  auto operator co_await() && noexcept {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept {
        // A task may be awaited only once and is lazy, so it cannot be done.
        return false;
      }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) const noexcept {
        h.promise().continuation = cont;
        return h;  // symmetric transfer into the child
      }
      T await_resume() const { return h.promise().take_result(); }
    };
    MDWF_ASSERT_MSG(h_, "co_await on an empty Task");
    return Awaiter{h_};
  }

  // Release ownership (used by the scheduler's root-process machinery).
  handle_type release() { return std::exchange(h_, {}); }
  handle_type handle() const { return h_; }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  handle_type h_{};
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace mdwf::sim
