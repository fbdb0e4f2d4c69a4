// SpscQueue tests: FIFO order across the ring wrap, full/empty
// transitions while each side's cached copy of the other side's index
// is stale, and a two-thread FIFO stress (run under TSan in CI).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/spsc_queue.h"

namespace dta::common {
namespace {

TEST(SpscQueue, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscQueue<int>(64).capacity(), 64u);
}

TEST(SpscQueue, WrapsAtCapacityInFifoOrder) {
  SpscQueue<int> queue(4);
  int next_in = 0;
  int next_out = 0;
  // Many laps of the 4-slot ring with the fill level moving between 1
  // and 3, so the indices cross the wrap at every offset.
  for (int round = 0; round < 50; ++round) {
    const int push = 1 + round % 3;
    for (int i = 0; i < push; ++i) {
      int value = next_in++;
      ASSERT_TRUE(queue.try_push(std::move(value)));
    }
    for (int i = 0; i < push; ++i) {
      int out = -1;
      ASSERT_TRUE(queue.try_pop(out));
      EXPECT_EQ(out, next_out++);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(SpscQueue, FullAndEmptyTransitionsWithStaleCachedIndices) {
  SpscQueue<int> queue(4);
  int out = -1;
  // Empty: the consumer's cached head is 0 and so is the real one.
  EXPECT_FALSE(queue.try_pop(out));

  // Fill: the producer's cached tail (0) is still exact.
  for (int v = 0; v < 4; ++v) {
    int value = v;
    ASSERT_TRUE(queue.try_push(std::move(value)));
  }
  int extra = 99;
  EXPECT_FALSE(queue.try_push(std::move(extra)));
  EXPECT_EQ(queue.size(), 4u);

  // The consumer frees two slots. The producer's cached tail is now
  // stale (0): a push must reload it rather than report full.
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 0);
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out, 1);
  int v4 = 4;
  int v5 = 5;
  int v6 = 6;
  ASSERT_TRUE(queue.try_push(std::move(v4)));
  ASSERT_TRUE(queue.try_push(std::move(v5)));
  EXPECT_FALSE(queue.try_push(std::move(v6)));  // full again, after reload

  // The consumer's cached head covers 0..3; entries 4 and 5 arrived
  // after its last reload, so draining must reload it past the wrap.
  for (int expected : {2, 3, 4, 5}) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_TRUE(queue.empty());

  // Both caches now trail the real indices by a whole ring; the queue
  // still accepts exactly capacity() more entries.
  for (int v = 10; v < 14; ++v) {
    int value = v;
    ASSERT_TRUE(queue.try_push(std::move(value)));
  }
  int overflow = 14;
  EXPECT_FALSE(queue.try_push(std::move(overflow)));
  for (int expected = 10; expected < 14; ++expected) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_FALSE(queue.try_pop(out));
}

TEST(SpscQueue, TwoThreadStressKeepsFifoOrder) {
  // A small ring so both the full and the empty path run often. The
  // deadline turns a side that never sees the other's progress into a
  // failure instead of a hang.
  constexpr std::uint64_t kCount = 200000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  const auto expired = [deadline] {
    return std::chrono::steady_clock::now() > deadline;
  };
  SpscQueue<std::uint64_t> queue(8);
  std::thread producer([&queue, &expired] {
    for (std::uint64_t v = 0; v < kCount; ++v) {
      std::uint64_t value = v;
      while (!queue.try_push(std::move(value))) {
        if (expired()) return;
        std::this_thread::yield();
      }
    }
  });
  // Keeps draining on a mismatch, so the producer always finishes.
  std::uint64_t received = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t out = 0;
  while (received < kCount && !expired()) {
    if (!queue.try_pop(out)) {
      std::this_thread::yield();
      continue;
    }
    if (out != received) ++out_of_order;
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kCount);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace dta::common
