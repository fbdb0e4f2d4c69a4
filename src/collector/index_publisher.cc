#include "collector/index_publisher.h"

namespace dta::collector {

IndexPublisher::IndexPublisher(std::size_t num_shards, Config config)
    : config_(config) {
  if (config_.publish_batch == 0) config_.publish_batch = 1;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_));
  }
}

void IndexPublisher::apply_queue_locked(Shard& shard) {
  if (shard.queue.empty()) return;
  shard.builder.apply(shard.queue);
  std::atomic_store_explicit(&shard.published, shard.builder.publish(),
                             std::memory_order_release);
  deltas_applied_.fetch_add(shard.queue.size(), std::memory_order_relaxed);
  shard.queue.clear();
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

void IndexPublisher::enqueue(std::uint32_t shard_index, IndexDelta delta) {
  Shard& shard = *shards_[shard_index];
  MutexLock lock(shard.mu);
  shard.queue.push_back(std::move(delta));
  deltas_enqueued_.fetch_add(1, std::memory_order_relaxed);
  // Defer-publish: fold the window in only when it fills. An op batch
  // is ~op_batch_size verbs, so the builder runs once per
  // publish_batch * op_batch_size delivered verbs.
  if (shard.queue.size() >= config_.publish_batch) apply_queue_locked(shard);
}

std::shared_ptr<const ShardIndexVersion> IndexPublisher::published(
    std::uint32_t shard) const {
  return std::atomic_load_explicit(&shards_[shard]->published,
                                   std::memory_order_acquire);
}

std::shared_ptr<const ShardIndexVersion> IndexPublisher::version_at_least(
    std::uint32_t shard_index, std::uint64_t min_generation) {
  Shard& shard = *shards_[shard_index];
  auto version = std::atomic_load_explicit(&shard.published,
                                           std::memory_order_acquire);
  if (version->generation() >= min_generation) return version;
  MutexLock lock(shard.mu);
  version = std::atomic_load_explicit(&shard.published,
                                      std::memory_order_acquire);
  if (version->generation() >= min_generation) return version;
  reader_catchups_.fetch_add(1, std::memory_order_relaxed);
  apply_queue_locked(shard);
  return std::atomic_load_explicit(&shard.published,
                                   std::memory_order_acquire);
}

IndexPublisherStats IndexPublisher::stats() const {
  IndexPublisherStats out;
  out.deltas_enqueued = deltas_enqueued_.load(std::memory_order_relaxed);
  out.deltas_applied = deltas_applied_.load(std::memory_order_relaxed);
  out.publishes = publishes_.load(std::memory_order_relaxed);
  out.reader_catchups = reader_catchups_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace dta::collector
