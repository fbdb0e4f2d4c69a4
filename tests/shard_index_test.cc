// Secondary-index tests: incremental builds equal one-shot rebuilds
// (leaf geometry notwithstanding), leaf-only COW actually shares
// untouched leaves, the defer-publish window lags until the batch or a
// reader catch-up, the runtime's per-shard indexes cover every pinned
// snapshot across all four stores, event cursors resume/drop/wrap
// correctly over small rings, and the whole thing survives a TSan
// stress of concurrent ingest + indexed range queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/bytes.h"

#include "collector/index_publisher.h"
#include "collector/runtime.h"
#include "collector/shard_index.h"
#include "dta/report_builders.h"
#include "dtalib/client.h"

namespace dta::collector {
namespace {

using proto::TelemetryKey;
using reports::u32_key;

std::vector<IndexEntry> flatten(const ShardIndexVersion& version) {
  std::vector<IndexEntry> out;
  version.visit_range(nullptr, nullptr, [&](const IndexEntry& entry) {
    out.push_back(entry);
    return true;
  });
  return out;
}

void expect_same_entries(const std::vector<IndexEntry>& a,
                         const std::vector<IndexEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "entry " << i;
    EXPECT_EQ(a[i].primitives, b[i].primitives) << "entry " << i;
  }
}

// ----------------------------------------------------------- builder

TEST(ShardIndexBuilder, IncrementalEqualsOneShotAcrossLeafGeometries) {
  // 50 deltas of overlapping keys with varying masks, applied one at a
  // time into a small-leaf builder, must produce exactly the entries of
  // a single merged delta applied to a large-leaf builder: contents are
  // independent of delta slicing AND of leaf geometry.
  ShardIndexBuilder incremental(/*target_leaf_entries=*/4);
  ShardIndexBuilder one_shot(/*target_leaf_entries=*/128);
  IndexDelta merged;
  for (std::uint64_t g = 1; g <= 50; ++g) {
    IndexDelta delta;
    delta.generation = g;
    for (std::uint32_t j = 0; j < 8; ++j) {
      const std::uint32_t id = static_cast<std::uint32_t>(g * 7 + j) % 300;
      const std::uint8_t mask =
          (id % 3 == 0) ? kIndexKeyWrite
                        : (id % 3 == 1)
                              ? kIndexKeyIncrement
                              : (kIndexKeyWrite | kIndexPostcarding);
      delta.keys.push_back({u32_key(id), mask});
      merged.keys.push_back({u32_key(id), mask});
    }
    delta.append_deltas.emplace_back(g % 4, g);
    merged.append_deltas.emplace_back(g % 4, g);
    incremental.apply(delta);
  }
  merged.generation = 50;
  one_shot.apply(merged);

  const auto a = incremental.publish();
  const auto b = one_shot.publish();
  EXPECT_EQ(a->generation(), 50u);
  EXPECT_EQ(b->generation(), 50u);
  EXPECT_EQ(a->key_count(), b->key_count());
  expect_same_entries(flatten(*a), flatten(*b));
  for (std::uint32_t list = 0; list < 4; ++list) {
    EXPECT_EQ(a->append_head(list), b->append_head(list)) << "list " << list;
  }
  // The small-leaf builder actually split (and so exercised COW merges).
  EXPECT_GT(a->leaves().size(), b->leaves().size());
  EXPECT_GT(incremental.leaf_copies(), 0u);
}

TEST(ShardIndexBuilder, VisitRangeBoundsAndLookup) {
  ShardIndexBuilder builder(/*target_leaf_entries=*/4);
  IndexDelta delta;
  delta.generation = 1;
  for (std::uint32_t id = 0; id < 40; id += 2) {  // even ids only
    delta.keys.push_back({u32_key(id), kIndexKeyWrite});
  }
  builder.apply(delta);
  const auto version = builder.publish();

  // Inclusive bounds; absent bound keys land between entries.
  const TelemetryKey from = u32_key(10);
  const TelemetryKey to = u32_key(21);  // odd: between 20 and 22
  std::vector<std::uint32_t> seen;
  version->visit_range(&from, &to, [&](const IndexEntry& entry) {
    seen.push_back(entry.key.bytes[3]);  // u32 keys are big-endian
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{10, 12, 14, 16, 18, 20}));

  // Early stop.
  int visited = 0;
  version->visit_range(nullptr, nullptr, [&](const IndexEntry&) {
    return ++visited < 3;
  });
  EXPECT_EQ(visited, 3);

  EXPECT_EQ(version->lookup(u32_key(12)), kIndexKeyWrite);
  EXPECT_EQ(version->lookup(u32_key(13)), 0u);
  EXPECT_EQ(version->lookup(u32_key(999)), 0u);
}

TEST(ShardIndexBuilder, LeafOnlyCowSharesUntouchedLeaves) {
  // Seed incrementally (4 keys per delta) so every leaf settles at or
  // below the 2x-target split bound before the COW probe.
  ShardIndexBuilder builder(/*target_leaf_entries=*/4);
  for (std::uint32_t g = 0; g < 16; ++g) {
    IndexDelta seed;
    seed.generation = g + 1;
    for (std::uint32_t j = 0; j < 4; ++j) {
      seed.keys.push_back({u32_key(g * 4 + j), kIndexKeyWrite});
    }
    builder.apply(seed);
  }
  const auto before = builder.publish();
  ASSERT_GT(before->leaves().size(), 4u);

  // OR a new mask bit into one existing key: exactly one leaf is
  // copied, every other leaf pointer is shared with the old version.
  const std::uint64_t copies_before = builder.leaf_copies();
  IndexDelta touch;
  touch.generation = 17;
  touch.keys.push_back({u32_key(30), kIndexKeyIncrement});
  builder.apply(touch);
  EXPECT_EQ(builder.leaf_copies(), copies_before + 1);
  EXPECT_EQ(builder.key_count(), 64u);

  const auto after = builder.publish();
  ASSERT_EQ(after->leaves().size(), before->leaves().size());
  std::size_t replaced = 0;
  for (std::size_t i = 0; i < after->leaves().size(); ++i) {
    if (after->leaves()[i] != before->leaves()[i]) ++replaced;
  }
  EXPECT_EQ(replaced, 1u);
  EXPECT_EQ(after->lookup(u32_key(30)), kIndexKeyWrite | kIndexKeyIncrement);
  // The old version is immutable: still the old mask.
  EXPECT_EQ(before->lookup(u32_key(30)), kIndexKeyWrite);
}

// A window of `count` deltas, 8 keys each, over an id space of `ids`
// (overlapping keys with varying masks) plus append increments.
std::vector<IndexDelta> make_deltas(std::uint64_t first_generation,
                                    std::uint32_t count, std::uint32_t ids) {
  std::vector<IndexDelta> deltas(count);
  for (std::uint32_t d = 0; d < count; ++d) {
    IndexDelta& delta = deltas[d];
    delta.generation = first_generation + d;
    for (std::uint32_t j = 0; j < 8; ++j) {
      const std::uint64_t mixed = (delta.generation * 8 + j) * 2654435761u;
      const auto id = static_cast<std::uint32_t>(mixed % ids);
      const std::uint8_t mask = static_cast<std::uint8_t>(1u << (id % 3));
      delta.keys.push_back({u32_key(id), mask});
    }
    delta.append_deltas.emplace_back(d % 3, d + 1);
  }
  return deltas;
}

// Every leaf non-empty and at most 2 x target entries, and keys
// strictly increasing across leaf boundaries.
void expect_leaf_shape(const ShardIndexVersion& version,
                       std::uint32_t target) {
  const TelemetryKey* prev = nullptr;
  for (std::size_t l = 0; l < version.leaves().size(); ++l) {
    const auto& entries = version.leaves()[l]->entries;
    ASSERT_FALSE(entries.empty()) << "leaf " << l;
    EXPECT_LE(entries.size(), 2u * target) << "leaf " << l;
    for (const IndexEntry& entry : entries) {
      if (prev != nullptr) {
        ASSERT_TRUE(index_key_less(*prev, entry.key)) << "leaf " << l;
      }
      prev = &entry.key;
    }
  }
}

TEST(ShardIndexBuilder, WindowFoldEqualsSingleAppliesAndOneShot) {
  // The same 60 deltas folded in uneven windows, applied one at a
  // time, and merged into one delta must give the same index at every
  // leaf geometry.
  const std::vector<IndexDelta> deltas = make_deltas(1, 60, 400);
  IndexDelta merged;
  merged.generation = deltas.back().generation;
  for (const IndexDelta& delta : deltas) {
    merged.keys.insert(merged.keys.end(), delta.keys.begin(),
                       delta.keys.end());
    merged.append_deltas.insert(merged.append_deltas.end(),
                                delta.append_deltas.begin(),
                                delta.append_deltas.end());
  }
  for (std::uint32_t target : {2u, 4u, 128u}) {
    SCOPED_TRACE(target);
    ShardIndexBuilder folded(target);
    ShardIndexBuilder single(target);
    ShardIndexBuilder one_shot(target);
    std::size_t at = 0;
    for (std::size_t window : {1u, 3u, 16u, 7u, 33u}) {
      folded.apply(
          common::Span<const IndexDelta>(deltas).subspan(at, window));
      at += window;
    }
    ASSERT_EQ(at, deltas.size());
    for (const IndexDelta& delta : deltas) single.apply(delta);
    one_shot.apply(merged);

    const auto a = folded.publish();
    const auto b = single.publish();
    const auto c = one_shot.publish();
    for (const auto* version : {a.get(), b.get(), c.get()}) {
      EXPECT_EQ(version->generation(), merged.generation);
      EXPECT_EQ(version->key_count(), a->key_count());
      expect_leaf_shape(*version, target);
      for (std::uint32_t list = 0; list < 3; ++list) {
        EXPECT_EQ(version->append_head(list), a->append_head(list));
      }
    }
    expect_same_entries(flatten(*a), flatten(*b));
    expect_same_entries(flatten(*a), flatten(*c));
    EXPECT_GT(a->append_head(0), 0u);
  }
}

TEST(ShardIndexBuilder, FirstWindowSplitsIntoBoundedSortedLeaves) {
  // 512 distinct keys (64 x the 2 x target bound) land in the empty
  // builder's one leaf; the fold cuts them into target-sized pieces.
  constexpr std::uint32_t kTarget = 4;
  std::vector<IndexDelta> window(16);
  for (std::uint32_t d = 0; d < window.size(); ++d) {
    window[d].generation = d + 1;
    for (std::uint32_t j = 0; j < 32; ++j) {
      // Interleaved across deltas, so the window arrives unsorted.
      window[d].keys.push_back({u32_key(j * 16 + d), kIndexKeyWrite});
    }
  }
  ShardIndexBuilder builder(kTarget);
  builder.apply(window);
  EXPECT_EQ(builder.key_count(), 512u);
  EXPECT_EQ(builder.leaf_copies(), 0u);  // nothing existed to copy
  const auto version = builder.publish();
  expect_leaf_shape(*version, kTarget);
  EXPECT_EQ(version->leaves().size(), 512u / kTarget);
  const auto entries = flatten(*version);
  ASSERT_EQ(entries.size(), 512u);
  for (std::uint32_t id = 0; id < 512; ++id) {
    EXPECT_EQ(entries[id].key, u32_key(id));
  }
}

TEST(ShardIndexBuilder, LeafCopiesBoundedByTouchedLeaves) {
  constexpr std::uint32_t kTarget = 8;
  ShardIndexBuilder builder(kTarget);
  builder.apply(make_deltas(1, 64, 2000));
  const auto before = builder.publish();
  ASSERT_GT(before->leaves().size(), 16u);

  // The leaf each key lands in: the last whose first key is <= it.
  const auto& leaves = before->leaves();
  const auto leaf_of = [&](const TelemetryKey& key) {
    std::size_t leaf = 0;
    while (leaf + 1 < leaves.size() &&
           !index_key_less(key, leaves[leaf + 1]->entries.front().key)) {
      ++leaf;
    }
    return leaf;
  };
  const std::vector<IndexDelta> window = make_deltas(65, 64, 2000);
  std::set<std::size_t> touched;
  for (const IndexDelta& delta : window) {
    for (const IndexEntry& entry : delta.keys) {
      touched.insert(leaf_of(entry.key));
    }
  }
  const std::uint64_t copies = builder.leaf_copies();
  builder.apply(window);
  EXPECT_GT(builder.leaf_copies(), copies);
  EXPECT_LE(builder.leaf_copies() - copies, touched.size());

  // A window of 20 deltas that all land in one leaf copies it once.
  std::vector<IndexDelta> same_leaf(20);
  const TelemetryKey key = leaves[3]->entries.front().key;
  for (std::uint32_t d = 0; d < same_leaf.size(); ++d) {
    same_leaf[d].generation = 200 + d;
    same_leaf[d].keys.push_back({key, kIndexKeyIncrement});
  }
  const std::uint64_t copies_before_same = builder.leaf_copies();
  builder.apply(same_leaf);
  EXPECT_EQ(builder.leaf_copies(), copies_before_same + 1);
  expect_leaf_shape(*builder.publish(), kTarget);
}

TEST(ShardIndexBuilder, PublishedVersionStaysIdenticalAcrossLaterFolds) {
  constexpr std::uint32_t kTarget = 4;
  ShardIndexBuilder builder(kTarget);
  builder.apply(make_deltas(1, 32, 300));
  const auto published = builder.publish();
  const std::vector<IndexEntry> frozen = flatten(*published);
  const std::uint64_t frozen_keys = published->key_count();
  const std::uint64_t frozen_generation = published->generation();
  const std::vector<std::uint64_t> frozen_heads = published->append_heads();
  std::vector<std::size_t> frozen_sizes;
  for (const auto& leaf : published->leaves()) {
    frozen_sizes.push_back(leaf->entries.size());
  }

  // Later windows insert new keys (splitting leaves) and OR new mask
  // bits into keys the published version already holds.
  for (std::uint64_t w = 0; w < 6; ++w) {
    builder.apply(make_deltas(33 + w * 16, 16, 600));
  }
  ASSERT_GT(builder.key_count(), frozen_keys);

  EXPECT_EQ(published->key_count(), frozen_keys);
  EXPECT_EQ(published->generation(), frozen_generation);
  EXPECT_EQ(published->append_heads(), frozen_heads);
  ASSERT_EQ(published->leaves().size(), frozen_sizes.size());
  for (std::size_t l = 0; l < frozen_sizes.size(); ++l) {
    EXPECT_EQ(published->leaves()[l]->entries.size(), frozen_sizes[l]);
  }
  expect_same_entries(flatten(*published), frozen);
}

// --------------------------------------------------------- publisher

TEST(IndexPublisher, DeferPublishLagsUntilBatchOrCatchup) {
  IndexPublisherConfig config;
  config.publish_batch = 4;
  IndexPublisher publisher(/*num_shards=*/2, config);

  auto delta_at = [](std::uint64_t g) {
    IndexDelta delta;
    delta.generation = g;
    delta.keys.push_back({u32_key(static_cast<std::uint32_t>(g)),
                          kIndexKeyWrite});
    return delta;
  };

  // Three queued deltas: still the empty generation-0 version.
  for (std::uint64_t g = 1; g <= 3; ++g) publisher.enqueue(0, delta_at(g));
  EXPECT_EQ(publisher.published(0)->generation(), 0u);
  EXPECT_EQ(publisher.published(0)->key_count(), 0u);

  // The 4th delta fills the defer window: apply + publish.
  publisher.enqueue(0, delta_at(4));
  EXPECT_EQ(publisher.published(0)->generation(), 4u);
  EXPECT_EQ(publisher.published(0)->key_count(), 4u);

  // Two more queued: published stays at 4 until a reader demands more.
  publisher.enqueue(0, delta_at(5));
  publisher.enqueue(0, delta_at(6));
  EXPECT_EQ(publisher.published(0)->generation(), 4u);
  const auto caught_up = publisher.version_at_least(0, 6);
  EXPECT_GE(caught_up->generation(), 6u);
  EXPECT_EQ(publisher.published(0)->generation(), 6u);

  // Fast path: no further publish for an already-covered generation.
  const auto stats_before = publisher.stats();
  EXPECT_EQ(publisher.version_at_least(0, 6)->generation(), 6u);
  const auto stats_after = publisher.stats();
  EXPECT_EQ(stats_after.publishes, stats_before.publishes);
  EXPECT_EQ(stats_after.reader_catchups, 1u);

  // Shards are independent: shard 1 never moved.
  EXPECT_EQ(publisher.published(1)->generation(), 0u);
}

TEST(IndexPublisher, PublishedGenerationIsMonotonic) {
  IndexPublisherConfig config;
  config.publish_batch = 2;
  IndexPublisher publisher(/*num_shards=*/1, config);
  std::uint64_t last = 0;
  for (std::uint64_t g = 1; g <= 40; ++g) {
    IndexDelta delta;
    delta.generation = g;
    publisher.enqueue(0, delta);
    if (g % 3 == 0) publisher.version_at_least(0, g);
    const std::uint64_t now = publisher.published(0)->generation();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_EQ(publisher.version_at_least(0, 40)->generation(), 40u);
}

TEST(IndexPublisher, StressReaderCatchupRacesWriterPublish) {
  // Targets the catch-up/publish window under TSan: per shard, one
  // writer (the single-writer contract of IndexSink::enqueue) streams
  // deltas while readers hammer version_at_least with the freshest
  // enqueued generation — so reader-forced catch-ups race writer-side
  // defer-window publishes on the same shard state. The enqueue-before-
  // advertise order below mirrors the shard's enqueue-before-generation-
  // bump protocol, which is exactly what makes "the catch-up can never
  // come up short" hold; every reader asserts it.
  constexpr std::uint32_t kShards = 2;
  constexpr std::uint64_t kDeltas = 2000;
  IndexPublisherConfig config;
  config.publish_batch = 8;  // both publish paths exercised
  IndexPublisher publisher(kShards, config);

  std::array<std::atomic<std::uint64_t>, kShards> advertised{};
  std::atomic<bool> failed{false};

  std::vector<std::thread> writers;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    writers.emplace_back([&, s] {
      for (std::uint64_t g = 1; g <= kDeltas; ++g) {
        IndexDelta delta;
        delta.generation = g;
        delta.keys.push_back(
            {u32_key(static_cast<std::uint32_t>(g % 256)), kIndexKeyWrite});
        publisher.enqueue(s, std::move(delta));
        advertised[s].store(g, std::memory_order_release);
      }
    });
  }

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::array<std::uint64_t, kShards> last{};
      bool done = false;
      while (!done) {
        done = true;
        for (std::uint32_t s = 0; s < kShards; ++s) {
          const std::uint64_t want = advertised[s].load(std::memory_order_acquire);
          const auto version = publisher.version_at_least(s, want);
          // Enqueued before advertised => the catch-up covers it, and
          // published generations never move backwards.
          if (version->generation() < want) failed.store(true);
          if (version->generation() < last[s]) failed.store(true);
          last[s] = version->generation();
          if (want < kDeltas) done = false;
        }
      }
    });
  }

  for (auto& writer : writers) writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(failed.load());

  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(publisher.version_at_least(s, kDeltas)->generation(), kDeltas);
  }
  const auto stats = publisher.stats();
  EXPECT_EQ(stats.deltas_enqueued, kShards * kDeltas);
  EXPECT_EQ(stats.deltas_applied, kShards * kDeltas);
}

// ----------------------------------------------- runtime integration

CollectorRuntimeConfig stores_config(std::uint32_t shards,
                                     ThreadMode mode = ThreadMode::kInline) {
  CollectorRuntimeConfig config;
  config.num_shards = shards;
  config.thread_mode = mode;
  KeyWriteSetup kw;
  kw.num_slots = 1 << 16;
  kw.value_bytes = 4;
  config.keywrite = kw;
  KeyIncrementSetup ki;
  ki.num_slots = 1 << 12;
  config.keyincrement = ki;
  AppendSetup ap;
  ap.num_lists = 8;
  ap.entries_per_list = 8;  // tiny rings so cursors wrap in-test
  ap.entry_bytes = 4;
  config.append = ap;
  // The ring length must be a multiple of the append write batch.
  config.append_batch_size = 4;
  PostcardingSetup pc;
  pc.num_chunks = 1 << 14;
  pc.hops = 5;
  for (std::uint32_t v = 0; v < 4096; ++v) pc.value_space.push_back(v);
  config.postcarding = pc;
  return config;
}

// Feeds the same four-store workload through `client`; when `flushes`
// is large the deltas arrive in many small batches (incremental), when
// it is 1 everything lands in one delivery (rebuild-equivalent).
std::map<std::uint32_t, std::uint8_t> drive_workload(Client& client,
                                                     std::uint32_t flush_every) {
  std::map<std::uint32_t, std::uint8_t> masks;
  std::uint32_t since_flush = 0;
  auto maybe_flush = [&] {
    if (++since_flush == flush_every) {
      EXPECT_TRUE(client.flush().ok());
      since_flush = 0;
    }
  };
  for (std::uint32_t id = 0; id < 200; ++id) {
    EXPECT_TRUE(client.keywrite().put_u32(u32_key(id), id * 3).ok());
    masks[id] |= kIndexKeyWrite;
    maybe_flush();
    if (id % 2 == 0) {
      EXPECT_TRUE(client.counters().add(u32_key(id), id + 1).ok());
      masks[id] |= kIndexKeyIncrement;
      maybe_flush();
    }
    if (id % 5 == 0) {
      EXPECT_TRUE(
          client.postcards().report(u32_key(id), 0, 1, id % 4096).ok());
      masks[id] |= kIndexPostcarding;
      maybe_flush();
    }
    if (id % 3 == 0) {
      EXPECT_TRUE(client.list(id % 8).append_u32(id).ok());
      maybe_flush();
    }
  }
  EXPECT_TRUE(client.flush().ok());
  return masks;
}

std::vector<IndexEntry> all_indexed_entries(CollectorRuntime& runtime) {
  std::vector<IndexEntry> out;
  for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
    const auto snap = runtime.snapshot_shard(s);
    const auto index = runtime.index_shard(s, snap->generation());
    EXPECT_GE(index->generation(), snap->generation());
    for (const auto& entry : flatten(*index)) out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return index_key_less(a.key, b.key);
            });
  return out;
}

TEST(RuntimeIndex, IncrementalEqualsRebuiltAcrossAllFourStores) {
  Client incremental = Client::local(stores_config(4));
  Client rebuilt = Client::local(stores_config(4));
  const auto masks = drive_workload(incremental, /*flush_every=*/1);
  const auto masks2 = drive_workload(rebuilt, /*flush_every=*/1000000);
  ASSERT_EQ(masks, masks2);

  const auto a = all_indexed_entries(*incremental.local_runtime());
  const auto b = all_indexed_entries(*rebuilt.local_runtime());
  expect_same_entries(a, b);

  // And both equal the ground-truth key->mask map the workload built.
  ASSERT_EQ(a.size(), masks.size());
  std::size_t i = 0;
  for (const auto& [id, mask] : masks) {
    EXPECT_EQ(a[i].key, u32_key(id)) << "id " << id;
    EXPECT_EQ(a[i].primitives, mask) << "id " << id;
    ++i;
  }

  // Per-shard ownership: each key is indexed exactly on its shard.
  CollectorRuntime& runtime = *incremental.local_runtime();
  std::vector<std::shared_ptr<const ShardIndexVersion>> indexes;
  for (std::uint32_t s = 0; s < 4; ++s) {
    indexes.push_back(
        runtime.index_shard(s, runtime.snapshot_shard(s)->generation()));
  }
  for (const auto& [id, mask] : masks) {
    const std::uint32_t owner = shard_for_key(u32_key(id), 4);
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(indexes[s]->lookup(u32_key(id)), s == owner ? mask : 0)
          << "id " << id << " shard " << s;
    }
  }
}

TEST(RuntimeIndex, EventCursorDropResumeAndWrap) {
  Client client = Client::local(stores_config(2));
  // 20 entries through an 8-entry ring: 12 dropped at the tail.
  for (std::uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.list(1).append_u32(i).ok());
  }
  ASSERT_TRUE(client.flush().ok());

  const auto from_zero = client.events(1).run();
  ASSERT_TRUE(from_zero.ok());
  EXPECT_EQ(from_zero->dropped, 12u);
  ASSERT_EQ(from_zero->entries.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(common::load_u32(from_zero->entries[i].data()), 12 + i);
  }
  EXPECT_EQ(from_zero->next.position, 20u);
  EXPECT_EQ(from_zero->remaining, 0u);

  // max() paginates; resuming from the returned cursor loses nothing.
  const auto first = client.events(1).max(3).run();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->dropped, 12u);
  ASSERT_EQ(first->entries.size(), 3u);
  EXPECT_EQ(first->next.position, 15u);
  EXPECT_EQ(first->remaining, 5u);
  const auto rest = client.events(1).since(first->next).run();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->dropped, 0u);
  ASSERT_EQ(rest->entries.size(), 5u);
  EXPECT_EQ(common::load_u32(rest->entries[0].data()), 15u);
  EXPECT_EQ(rest->remaining, 0u);

  // A drained cursor returns an empty batch, and resumes after new
  // entries arrive without rereading anything.
  const auto drained = client.events(1).since(from_zero->next).run();
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained->entries.empty());
  EXPECT_EQ(drained->next.position, 20u);
  ASSERT_TRUE(client.list(1).append_u32(777).ok());
  ASSERT_TRUE(client.flush().ok());
  const auto fresh = client.events(1).since(drained->next).run();
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->entries.size(), 1u);
  EXPECT_EQ(common::load_u32(fresh->entries[0].data()), 777u);
  EXPECT_EQ(fresh->dropped, 0u);

  // A cursor ahead of the head is a typed error, not an empty batch.
  EXPECT_EQ(client.events(1).since(1000).run().code(),
            StatusCode::kOutOfRange);
}

TEST(RuntimeIndex, StressConcurrentIngestAndIndexedQueries) {
  // The TSan acceptance test: one producer streams reports through the
  // threaded pipeline while reader threads run indexed range queries,
  // event-cursor reads and per-shard generation checks. Readers must
  // never block ingest, never crash, and never observe a published
  // index generation going backwards.
  Client client = Client::local(stores_config(2, ThreadMode::kThreaded));
  CollectorRuntime& runtime = *client.local_runtime();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> range_results{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::uint64_t> last_gen(runtime.num_shards(), 0);
      EventCursor cursor;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto range = client.range(client.keywrite())
                               .from(u32_key(0))
                               .to(u32_key(4096))
                               .limit(64)
                               .run();
        if (range.ok()) {
          range_results.fetch_add(range->entries.size(),
                                  std::memory_order_relaxed);
        }
        const auto events =
            client.events(t % 8).since(cursor).max(16).run();
        if (events.ok()) cursor = events->next;
        for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
          const std::uint64_t gen =
              runtime.index_publisher().published(s)->generation();
          EXPECT_GE(gen, last_gen[s]);
          last_gen[s] = gen;
        }
      }
    });
  }

  for (std::uint32_t id = 0; id < 3000; ++id) {
    ASSERT_TRUE(client.keywrite().put_u32(u32_key(id % 512), id).ok());
    if (id % 4 == 0) {
      ASSERT_TRUE(client.counters().add(u32_key(id % 512), 1).ok());
    }
    if (id % 8 == 0) {
      ASSERT_TRUE(client.list(id % 8).append_u32(id).ok());
    }
  }
  ASSERT_TRUE(client.flush().ok());
  stop.store(true);
  for (auto& reader : readers) reader.join();

  // Differential close: the settled range result must match a point-get
  // sweep exactly — same keys resolved, same bytes. (Point-gets are the
  // ground truth; checksum collisions may evict a key from the store,
  // in which case BOTH paths must miss it.)
  const auto final_range = client.range(client.keywrite())
                               .from(u32_key(0))
                               .to(u32_key(4096))
                               .run();
  ASSERT_TRUE(final_range.ok());
  std::vector<RangeEntry> expected;
  for (std::uint32_t id = 0; id < 512; ++id) {
    auto got = client.keywrite().get(u32_key(id));
    if (got.ok()) expected.push_back({u32_key(id), std::move(*got)});
  }
  EXPECT_GT(expected.size(), 500u);  // evictions should be rare
  ASSERT_EQ(final_range->entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(final_range->entries[i], expected[i]) << "entry " << i;
  }
}

}  // namespace
}  // namespace dta::collector
