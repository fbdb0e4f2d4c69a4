// Defer-publish side of the secondary index: per-shard build queues in
// front of a ShardIndexBuilder, with an atomically published immutable
// ShardIndexVersion per shard.
//
// Writer side: CollectorShard::deliver_batch enqueues one IndexDelta
// per delivered op batch — a lock, a vector push, an unlock. The
// builder does NOT run per batch; deltas accumulate until
// `publish_batch` of them are queued (the defer-publish window) and only
// then is the whole window folded in with one merge and a new version
// published. Readers therefore never make ingest wait on index
// maintenance, and index maintenance is amortized over many batches.
//
// Reader side: version_at_least(shard, G) is the query-path entry
// point, with G the generation of the snapshot the query pinned. Fast
// path: the published version already covers G — one atomic load, no
// lock. Slow path: fold the queued window, publish once, return. The
// shard enqueues each delta before bumping its generation counter, so
// a generation observed from a snapshot is always covered by the queue;
// the catch-up can never come up short.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "collector/shard_index.h"
#include "common/thread_annotations.h"

namespace dta::collector {

struct IndexPublisherStats {
  std::uint64_t deltas_enqueued = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t publishes = 0;
  // Publishes forced by a reader that needed a newer generation than
  // the deferred window had published.
  std::uint64_t reader_catchups = 0;
};

struct IndexPublisherConfig {
  // Queued deltas that trigger an apply + publish from the writer side
  // (the defer-publish batch).
  std::uint32_t publish_batch = 64;
  std::uint32_t target_leaf_entries = 128;
};

class IndexPublisher : public IndexSink {
 public:
  using Config = IndexPublisherConfig;

  explicit IndexPublisher(std::size_t num_shards, Config config = {});

  // IndexSink: called by the shard worker at every delivered batch.
  void enqueue(std::uint32_t shard, IndexDelta delta) override;

  // The currently published version (never null: shards start with an
  // empty version at generation 0). Lock-free.
  std::shared_ptr<const ShardIndexVersion> published(std::uint32_t shard) const;

  // A version whose generation is >= min_generation, catching the
  // builder up over the queued deltas if the published one is behind.
  // `min_generation` must come from a snapshot of the same shard (or be
  // 0); generations read that way are always covered by the queue.
  std::shared_ptr<const ShardIndexVersion> version_at_least(
      std::uint32_t shard, std::uint64_t min_generation);

  std::size_t num_shards() const { return shards_.size(); }
  IndexPublisherStats stats() const;

 private:
  struct Shard {
    mutable Mutex mu;
    std::vector<IndexDelta> queue DTA_GUARDED_BY(mu);
    ShardIndexBuilder builder DTA_GUARDED_BY(mu);
    // Written under mu, but read lock-free on the fast path with
    // std::atomic_load — the atomic shared_ptr protocol, not the lock,
    // is what makes the read safe (so not GUARDED_BY).
    std::shared_ptr<const ShardIndexVersion> published;

    explicit Shard(const Config& config)
        : builder(config.target_leaf_entries),
          published(builder.publish()) {}
  };

  // Folds the queued window in with one merge and publishes.
  void apply_queue_locked(Shard& shard) DTA_REQUIRES(shard.mu);

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> deltas_enqueued_{0};
  std::atomic<std::uint64_t> deltas_applied_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> reader_catchups_{0};
};

}  // namespace dta::collector
