// Bounded single-producer / single-consumer queue.
//
// The collector runtime feeds each shard worker from one of these: the
// dispatcher thread is the only producer and the shard's worker the only
// consumer, so a lock-free ring with acquire/release indices suffices.
// Capacity is rounded up to a power of two; a full queue rejects the
// push (the caller decides whether to spin, drop, or backpressure —
// mirroring the translator's rate-limiter choice on the wire side).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dta::common {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Producer side. Returns false when full. tail_ (the consumer's line)
  // is reloaded only when the cached copy says the ring is full.
  bool try_push(T&& value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_cache_ > mask_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ > mask_) return false;
    }
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns false when empty. head_ is reloaded only
  // when the cached copy says the ring is empty.
  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return false;
    }
    out = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t size() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  // Indices grow monotonically; the mask maps them into the ring. Each
  // side's index shares a cache line with that side's cached copy of
  // the other index, and the read-mostly slot vector + mask get a third
  // line: the producer dereferences the slot pointer on every push, so
  // it must not share tail_'s line (every consumer-side tail_ store
  // would otherwise bounce the producer's line too).
  alignas(64) std::atomic<std::size_t> head_{0};  // next write (producer)
  std::size_t tail_cache_ = 0;                    // producer's copy of tail_
  alignas(64) std::atomic<std::size_t> tail_{0};  // next read (consumer)
  std::size_t head_cache_ = 0;                    // consumer's copy of head_
  alignas(64) std::vector<T> slots_;
  std::size_t mask_ = 0;
};

}  // namespace dta::common
