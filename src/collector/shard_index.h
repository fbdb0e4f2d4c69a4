// Versioned, defer-publish secondary index over one shard's stores.
//
// The stores themselves cannot answer "which keys exist between k1 and
// k2": Key-Write slots hold a 32-bit checksum of the key, not the key
// (§4 — that is what makes the per-key footprint 4+value bytes), so a
// range query over raw store memory is impossible and the scan path has
// to walk a caller-supplied key catalog. The index closes that gap on
// the translator side of the seam, where full keys are still in hand:
// `CollectorShard` stages every translated report's key and hands the
// batch to an IndexSink at each delivered op batch, stamped with the
// store-memory generation that delivery produced.
//
// The structure borrows the OVS decision-tree classifier playbook
// (DT_INCREMENTAL_BUILD / DT_DEFER_PUBLISH / DT_LEAF_ONLY_COW /
// OVS_VERSION_MECHANISM): a published ShardIndexVersion is an immutable
// vector of immutable sorted leaves, readers walk it lock-free, and the
// builder replaces only the leaves a publish window touches (leaf-only
// copy-on-write, once per publish: one sort of the window's keys, one
// ordered pass that shares every untouched leaf and copies each
// touched leaf once). The root is one shared_ptr vector copied per
// publish. Versions carry the same generation stamp the SnapshotCache
// compares, so "index generation >= snapshot generation" is the
// consistency contract: the index then contains every key whose data is
// in the snapshot (keys are never deleted, so later index generations
// are supersets), and any extra keys resolve as point-query misses
// against the snapshot itself. Values are never duplicated into the
// index — range queries resolve hits through the same snapshot point
// lookups the scan path uses, which is what makes the two byte-equal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "dta/wire.h"

namespace dta::collector {

// Primitive membership bits of one indexed key.
inline constexpr std::uint8_t kIndexKeyWrite = 1u << 0;
inline constexpr std::uint8_t kIndexKeyIncrement = 1u << 1;
inline constexpr std::uint8_t kIndexPostcarding = 1u << 2;

struct IndexEntry {
  proto::TelemetryKey key;
  std::uint8_t primitives = 0;
};
// Leaf merges copy runs of entries in bulk.
static_assert(std::is_trivially_copyable_v<IndexEntry>);

// The index orders keys lexicographically on their byte spans (shorter
// key sorts first on a shared prefix) — TelemetryKey itself only
// defines equality.
inline bool index_key_less(const proto::TelemetryKey& a,
                           const proto::TelemetryKey& b) {
  const common::ByteSpan sa = a.span(), sb = b.span();
  return std::lexicographical_compare(sa.begin(), sa.end(), sb.begin(),
                                      sb.end());
}
inline bool entry_below_key(const IndexEntry& e, const proto::TelemetryKey& k) {
  return index_key_less(e.key, k);
}

// One delivered op batch's worth of index maintenance: the keys the
// batch touched (duplicates allowed, masks are OR-merged), the entries
// it appended per shard-local list, and the store-memory generation the
// delivery produced. The shard enqueues the delta *before* bumping its
// generation counter, so any observer of generation G knows delta G is
// already in the build queue.
struct IndexDelta {
  std::uint64_t generation = 0;
  std::vector<IndexEntry> keys;
  // (local list id, entries delivered) increments for the event cursor.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> append_deltas;
};

// Where CollectorShard::deliver_batch hands its deltas (implemented by
// IndexPublisher; an interface so the shard does not depend on the
// publisher's locking).
class IndexSink {
 public:
  virtual ~IndexSink() = default;
  virtual void enqueue(std::uint32_t shard, IndexDelta delta) = 0;
};

// One COW leaf: a sorted, duplicate-free run of entries. Immutable once
// referenced by a published version.
struct IndexLeaf {
  std::vector<IndexEntry> entries;
};

// An immutable published index version. Safe to read from any thread
// with no synchronization beyond acquiring the shared_ptr.
class ShardIndexVersion {
 public:
  ShardIndexVersion(std::uint64_t generation,
                    std::vector<std::shared_ptr<const IndexLeaf>> leaves,
                    std::vector<std::uint64_t> append_heads,
                    std::uint64_t key_count)
      : generation_(generation),
        leaves_(std::move(leaves)),
        append_heads_(std::move(append_heads)),
        key_count_(key_count) {}

  // The shard store-memory generation this version is consistent with:
  // every key delivered at or before it is present.
  std::uint64_t generation() const { return generation_; }

  // Distinct keys indexed.
  std::uint64_t key_count() const { return key_count_; }

  // Cumulative entries ever delivered to shard-local list `list` — the
  // event-cursor head as of this version's generation.
  std::uint64_t append_head(std::uint32_t list) const {
    return list < append_heads_.size() ? append_heads_[list] : 0;
  }
  const std::vector<std::uint64_t>& append_heads() const {
    return append_heads_;
  }

  // Visits entries in key order, `from` <= key <= `to` (either bound
  // null = open). The visitor returns false to stop early. O(log n)
  // to the first entry, then linear in entries visited.
  template <typename Fn>
  void visit_range(const proto::TelemetryKey* from,
                   const proto::TelemetryKey* to, Fn&& fn) const {
    std::size_t leaf = 0;
    std::size_t pos = 0;
    if (from != nullptr) {
      // First leaf whose last key is >= from, then lower_bound inside.
      leaf = first_leaf_not_below(*from);
      if (leaf >= leaves_.size()) return;
      const auto& entries = leaves_[leaf]->entries;
      pos = static_cast<std::size_t>(
          std::lower_bound(entries.begin(), entries.end(), *from,
                           entry_below_key) -
          entries.begin());
    }
    for (; leaf < leaves_.size(); ++leaf, pos = 0) {
      const auto& entries = leaves_[leaf]->entries;
      for (; pos < entries.size(); ++pos) {
        const IndexEntry& entry = entries[pos];
        if (to != nullptr && index_key_less(*to, entry.key)) return;
        if (!fn(entry)) return;
      }
    }
  }

  // Primitive-membership mask of `key`, 0 when absent.
  std::uint8_t lookup(const proto::TelemetryKey& key) const;

  const std::vector<std::shared_ptr<const IndexLeaf>>& leaves() const {
    return leaves_;
  }

 private:
  // Index of the first leaf whose last entry is not below `key`.
  std::size_t first_leaf_not_below(const proto::TelemetryKey& key) const;

  std::uint64_t generation_;
  std::vector<std::shared_ptr<const IndexLeaf>> leaves_;
  std::vector<std::uint64_t> append_heads_;
  std::uint64_t key_count_;
};

// The incremental builder: folds windows of deltas in with leaf-only
// COW and stamps out immutable versions on publish(). Not thread-safe —
// the publisher serializes access.
class ShardIndexBuilder {
 public:
  explicit ShardIndexBuilder(std::uint32_t target_leaf_entries = 128);

  // Folds a window of deltas in with one merge: new keys are inserted
  // in order, existing keys get their primitive masks OR-merged, append
  // heads advance. The window's keys are sorted once, and each leaf
  // they land in is copied once; every other leaf is shared.
  void apply(common::Span<const IndexDelta> window);
  void apply(const IndexDelta& delta) { apply({&delta, 1}); }

  // Freezes the current state into an immutable version (cheap: copies
  // the leaf-pointer vector, shares every leaf).
  std::shared_ptr<const ShardIndexVersion> publish() const;

  std::uint64_t generation() const { return generation_; }
  std::uint64_t key_count() const { return key_count_; }
  // Existing leaves replaced by a merged copy, over the builder's life.
  std::uint64_t leaf_copies() const { return leaf_copies_; }

 private:
  std::uint32_t target_leaf_entries_;
  std::uint64_t generation_ = 0;
  std::uint64_t key_count_ = 0;
  std::uint64_t leaf_copies_ = 0;
  std::vector<std::shared_ptr<const IndexLeaf>> leaves_;
  std::vector<std::uint64_t> append_heads_;
  // apply()'s scratch, kept for its capacity: window keys, output leaves.
  std::vector<IndexEntry> keys_;
  std::vector<std::shared_ptr<const IndexLeaf>> next_;
};

}  // namespace dta::collector
