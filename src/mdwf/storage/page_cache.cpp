#include "mdwf/storage/page_cache.hpp"

#include <iterator>

#include "mdwf/common/assert.hpp"

namespace mdwf::storage {

PageCache::PageCache(sim::Simulation& sim, const PageCacheParams& params,
                     BlockDevice& device)
    : sim_(&sim), params_(params), device_(&device) {
  MDWF_ASSERT(params.page_size.count() > 0);
  max_pages_ = static_cast<std::size_t>(params.capacity / params.page_size);
  MDWF_ASSERT_MSG(max_pages_ >= 1, "cache smaller than one page");
}

PageCache::Key PageCache::make_key(std::uint64_t file_id, std::uint64_t page) {
  MDWF_ASSERT(file_id < (1ull << 32) && page < (1ull << 32));
  return (file_id << 32) | page;
}

void PageCache::touch(Entry& e) {
  // Relinking the node keeps e.lru_pos valid and allocates nothing.
  lru_.splice(lru_.begin(), lru_, e.lru_pos);
}

Bytes PageCache::evict_one() {
  MDWF_ASSERT(!lru_.empty());
  // Prefer a clean victim near the LRU end (bounded scan); fall back to the
  // true LRU page when everything old is dirty.
  constexpr int kScanLimit = 128;
  auto victim_it = std::prev(lru_.end());
  int scanned = 0;
  for (auto it = std::prev(lru_.end());; --it) {
    const auto page = pages_.find(*it);
    MDWF_ASSERT(page != pages_.end());
    if (!page->second.dirty) {
      victim_it = it;
      break;
    }
    if (++scanned >= kScanLimit || it == lru_.begin()) break;
  }
  const Key victim = *victim_it;
  lru_.erase(victim_it);
  auto it = pages_.find(victim);
  MDWF_ASSERT(it != pages_.end());
  Bytes writeback = Bytes::zero();
  if (it->second.dirty) {
    writeback = params_.page_size;
    --dirty_count_;
  }
  pages_.erase(it);
  ++evictions_;
  return writeback;
}

void PageCache::writeback_async(Bytes n) {
  if (n.is_zero()) return;
  sim_->spawn(writeback_guarded(n));
}

sim::Task<void> PageCache::writeback_guarded(Bytes n) {
  // Background flusher traffic must never abort the run: a write that fails
  // (injected I/O error) or never completes before a crash just means the
  // page content is lost — exactly what the durability model expects.
  try {
    co_await device_->write(n);
  } catch (const IoError&) {
    ++failed_writebacks_;
  }
}

sim::Task<void> PageCache::memcpy_cost(Bytes n) {
  if (n.is_zero()) co_return;
  const double secs = static_cast<double>(n.count()) / params_.memcpy_bps;
  co_await sim_->delay(Duration::seconds(secs));
}

void PageCache::set_trace(obs::TraceSink* sink, obs::TrackId track,
                          const std::string& prefix) {
  trace_ = sink;
  trace_resident_ = sink->counter_id(track, prefix + ".resident_pages");
  trace_dirty_ = sink->counter_id(track, prefix + ".dirty_pages");
  traced_resident_ = -1;
  traced_dirty_ = -1;
}

void PageCache::trace_state() {
  if (trace_ == nullptr) return;
  const auto resident = static_cast<std::int64_t>(pages_.size());
  const auto dirty = static_cast<std::int64_t>(dirty_count_);
  if (resident != traced_resident_) {
    traced_resident_ = resident;
    trace_->counter(trace_resident_, sim_->now(), resident);
  }
  if (dirty != traced_dirty_) {
    traced_dirty_ = dirty;
    trace_->counter(trace_dirty_, sim_->now(), dirty);
  }
}

sim::Task<void> PageCache::write(std::uint64_t file_id, Bytes offset,
                                 Bytes len) {
  if (len.is_zero()) co_return;
  Bytes writeback = Bytes::zero();
  const std::uint64_t lo = first_page(offset);
  const std::uint64_t hi = last_page(offset, len);
  for (std::uint64_t p = lo; p <= hi; ++p) {
    const Key k = make_key(file_id, p);
    auto it = pages_.find(k);
    if (it != pages_.end()) {
      touch(it->second);
      if (!it->second.dirty) {
        it->second.dirty = true;
        ++dirty_count_;
      }
      continue;
    }
    ++misses_;
    while (pages_.size() >= max_pages_) writeback += evict_one();
    lru_.push_front(k);
    pages_.emplace(k, Entry{lru_.begin(), true});
    ++dirty_count_;
  }
  trace_state();
  // Evicted dirty victims flush in the background; the buffered write only
  // pays the memory copy.
  writeback_async(writeback);
  co_await memcpy_cost(len);
}

sim::Task<void> PageCache::read(std::uint64_t file_id, Bytes offset,
                                Bytes len) {
  if (len.is_zero()) co_return;
  Bytes writeback = Bytes::zero();
  Bytes to_fetch = Bytes::zero();
  const std::uint64_t lo = first_page(offset);
  const std::uint64_t hi = last_page(offset, len);
  for (std::uint64_t p = lo; p <= hi; ++p) {
    const Key k = make_key(file_id, p);
    auto it = pages_.find(k);
    if (it != pages_.end()) {
      ++hits_;
      touch(it->second);
      continue;
    }
    ++misses_;
    to_fetch += params_.page_size;
    while (pages_.size() >= max_pages_) writeback += evict_one();
    lru_.push_front(k);
    pages_.emplace(k, Entry{lru_.begin(), false});
  }
  trace_state();
  writeback_async(writeback);
  if (!to_fetch.is_zero()) co_await device_->read(to_fetch);
  co_await memcpy_cost(len);
}

sim::Task<void> PageCache::flush(std::uint64_t file_id) {
  Bytes writeback = Bytes::zero();
  for (auto& [key, entry] : pages_) {
    if ((key >> 32) == file_id && entry.dirty) {
      entry.dirty = false;
      --dirty_count_;
      writeback += params_.page_size;
    }
  }
  trace_state();
  if (!writeback.is_zero()) co_await device_->write(writeback);
}

void PageCache::drop(std::uint64_t file_id) {
  for (auto it = pages_.begin(); it != pages_.end();) {
    if ((it->first >> 32) == file_id) {
      if (it->second.dirty) --dirty_count_;
      lru_.erase(it->second.lru_pos);
      it = pages_.erase(it);
    } else {
      ++it;
    }
  }
  trace_state();
}

std::size_t PageCache::crash_drop_dirty() {
  const std::size_t lost = dirty_count_;
  dirty_dropped_ += lost;
  lru_.clear();
  pages_.clear();
  dirty_count_ = 0;
  trace_state();
  return lost;
}

bool PageCache::resident(std::uint64_t file_id, Bytes offset, Bytes len) const {
  if (len.is_zero()) return true;
  const std::uint64_t lo = first_page(offset);
  const std::uint64_t hi = last_page(offset, len);
  for (std::uint64_t p = lo; p <= hi; ++p) {
    if (!pages_.contains(make_key(file_id, p))) return false;
  }
  return true;
}

}  // namespace mdwf::storage
