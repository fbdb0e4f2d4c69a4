#include <gtest/gtest.h>

#include "translator/append_engine.h"
#include "translator/crc_unit.h"
#include "translator/keyincrement_engine.h"
#include "translator/keywrite_engine.h"
#include "translator/postcard_cache.h"
#include "translator/rate_limiter.h"

namespace dta::translator {
namespace {

using common::ByteSpan;
using common::Bytes;
using proto::TelemetryKey;

TelemetryKey key_of(std::uint32_t id) {
  Bytes b;
  common::put_u32(b, id);
  return TelemetryKey::from(ByteSpan(b));
}

// ------------------------------------------------------------- CRC unit

TEST(CrcUnit, SlotIndexWithinBounds) {
  for (unsigned n = 0; n < 8; ++n) {
    for (std::uint32_t k = 0; k < 1000; ++k) {
      EXPECT_LT(slot_index(n, key_of(k), 977), 977u);
    }
  }
}

TEST(CrcUnit, ReplicasIndexIndependently) {
  // For most keys the N replicas should land in different slots.
  int same = 0;
  for (std::uint32_t k = 0; k < 1000; ++k) {
    if (slot_index(0, key_of(k), 1 << 20) == slot_index(1, key_of(k), 1 << 20))
      ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(CrcUnit, ChecksumDeterministic) {
  EXPECT_EQ(key_checksum(key_of(7)), key_checksum(key_of(7)));
  EXPECT_NE(key_checksum(key_of(7)), key_checksum(key_of(8)));
}

// --------------------------------------------------------- Key-Write engine

class KwEngineTest : public ::testing::Test {
 protected:
  KwEngineTest() {
    geometry_.base_va = 0x1000;
    geometry_.rkey = 0x42;
    geometry_.num_slots = 1 << 16;
    geometry_.value_bytes = 4;
  }
  KeyWriteGeometry geometry_;
};

TEST_F(KwEngineTest, EmitsNWrites) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(1);
  r.redundancy = 3;
  r.data = {1, 2, 3, 4};
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  EXPECT_EQ(ops.size(), 3u);
  EXPECT_EQ(engine.stats().writes_emitted, 3u);
}

TEST_F(KwEngineTest, SlotAddressesMatchCrcUnit) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(99);
  r.redundancy = 2;
  r.data = {5, 5, 5, 5};
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  for (unsigned n = 0; n < 2; ++n) {
    const std::uint64_t slot = slot_index(n, r.key, geometry_.num_slots);
    EXPECT_EQ(ops[n].remote_va, 0x1000 + slot * 8);
    EXPECT_EQ(ops[n].rkey, 0x42u);
  }
}

TEST_F(KwEngineTest, PayloadIsChecksumThenValue) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(5);
  r.redundancy = 1;
  r.data = {0xDE, 0xAD, 0xBE, 0xEF};
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  ASSERT_EQ(ops[0].payload.size(), 8u);
  EXPECT_EQ(common::load_u32(ops[0].payload.data()), key_checksum(r.key));
  EXPECT_EQ(ops[0].payload[4], 0xDE);
  EXPECT_EQ(ops[0].payload[7], 0xEF);
}

TEST_F(KwEngineTest, ShortValueZeroPadded) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(5);
  r.redundancy = 1;
  r.data = {0x11};
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  ASSERT_EQ(ops[0].payload.size(), 8u);
  EXPECT_EQ(ops[0].payload[4], 0x11);
  EXPECT_EQ(ops[0].payload[5], 0);
}

TEST_F(KwEngineTest, LongValueTruncatedAndCounted) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(5);
  r.redundancy = 1;
  r.data = Bytes(10, 0xAB);
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  EXPECT_EQ(ops[0].payload.size(), 8u);
  EXPECT_EQ(engine.stats().truncated_values, 1u);
}

TEST_F(KwEngineTest, ImmediateOnlyOnFirstReplica) {
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(5);
  r.redundancy = 3;
  r.data = {1, 2, 3, 4};
  std::vector<RdmaOp> ops;
  engine.translate(r, true, ops);
  EXPECT_TRUE(ops[0].immediate.has_value());
  EXPECT_FALSE(ops[1].immediate.has_value());
  EXPECT_FALSE(ops[2].immediate.has_value());
}

TEST_F(KwEngineTest, TwentyByteValues) {
  geometry_.value_bytes = 20;  // 5-hop path tracing
  KeyWriteEngine engine(geometry_);
  proto::KeyWriteReport r;
  r.key = key_of(5);
  r.redundancy = 2;
  r.data = Bytes(20, 0x31);
  std::vector<RdmaOp> ops;
  engine.translate(r, false, ops);
  EXPECT_EQ(ops[0].payload.size(), 24u);  // 4B csum + 20B
}

// ----------------------------------------------------- Key-Increment engine

TEST(KiEngine, EmitsNFetchAdds) {
  KeyIncrementGeometry g;
  g.base_va = 0x8000;
  g.rkey = 9;
  g.num_slots = 4096;
  KeyIncrementEngine engine(g);

  proto::KeyIncrementReport r;
  r.key = key_of(3);
  r.redundancy = 4;
  r.counter = 17;
  std::vector<RdmaOp> ops;
  engine.translate(r, ops);
  ASSERT_EQ(ops.size(), 4u);
  for (const auto& op : ops) {
    EXPECT_EQ(op.kind, RdmaOp::Kind::kFetchAdd);
    EXPECT_EQ(op.add_value, 17u);
    EXPECT_EQ((op.remote_va - 0x8000) % 8, 0u);  // aligned counters
    EXPECT_LT(op.remote_va, 0x8000 + 4096 * 8);
  }
}

// -------------------------------------------------------- Postcard cache

class PostcardCacheTest : public ::testing::Test {
 protected:
  PostcardCacheTest() {
    geometry_.base_va = 0x10000;
    geometry_.rkey = 0x77;
    geometry_.num_chunks = 1 << 14;
    geometry_.hops = 5;
  }

  proto::PostcardReport card(std::uint32_t flow, std::uint8_t hop,
                             std::uint32_t value, std::uint8_t path_len = 5) {
    proto::PostcardReport r;
    r.key = key_of(flow);
    r.hop = hop;
    r.path_len = path_len;
    r.redundancy = 1;
    r.value = value;
    return r;
  }

  PostcardingGeometry geometry_;
};

TEST_F(PostcardCacheTest, PaddedChunkGeometry) {
  EXPECT_EQ(geometry_.padded_hops(), 8u);   // 5 -> 8
  EXPECT_EQ(geometry_.chunk_bytes(), 32u);  // 20B padded to 32B, per §5.2
}

TEST_F(PostcardCacheTest, EmitsAfterFullPath) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  for (std::uint8_t hop = 0; hop < 5; ++hop) {
    cache.ingest(card(1, hop, 100 + hop), ops);
    if (hop < 4) EXPECT_TRUE(ops.empty()) << "premature emit at hop " << hop;
  }
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].payload.size(), 32u);
  EXPECT_EQ(cache.stats().full_emissions, 1u);
  EXPECT_EQ(cache.stats().early_emissions, 0u);
}

TEST_F(PostcardCacheTest, ChunkAddressFromHash) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  const TelemetryKey key = key_of(1);
  for (std::uint8_t hop = 0; hop < 5; ++hop) cache.ingest(card(1, hop, 7), ops);
  ASSERT_EQ(ops.size(), 1u);
  const std::uint64_t chunk = chunk_index(0, key, geometry_.num_chunks);
  EXPECT_EQ(ops[0].remote_va, 0x10000 + chunk * 32);
}

TEST_F(PostcardCacheTest, EncodedSlotsAreXorOfChecksumAndValueCode) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  const TelemetryKey key = key_of(3);
  for (std::uint8_t hop = 0; hop < 5; ++hop) {
    cache.ingest(card(3, hop, 200 + hop), ops);
  }
  ASSERT_EQ(ops.size(), 1u);
  for (std::uint8_t hop = 0; hop < 5; ++hop) {
    const std::uint32_t enc =
        common::load_u32(ops[0].payload.data() + hop * 4);
    EXPECT_EQ(enc, hop_checksum(key, hop) ^ value_code(200 + hop));
  }
}

TEST_F(PostcardCacheTest, ShortPathFillsBlanks) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  const TelemetryKey key = key_of(4);
  for (std::uint8_t hop = 0; hop < 3; ++hop) {
    cache.ingest(card(4, hop, 50 + hop, /*path_len=*/3), ops);
  }
  ASSERT_EQ(ops.size(), 1u);
  // Hops 3 and 4 must carry the encoded blank.
  for (std::uint8_t hop = 3; hop < 5; ++hop) {
    const std::uint32_t enc =
        common::load_u32(ops[0].payload.data() + hop * 4);
    EXPECT_EQ(enc, hop_checksum(key, hop) ^ value_code(kBlankValue));
  }
}

TEST_F(PostcardCacheTest, CollisionEvictsEarly) {
  PostcardCache cache(geometry_, 1);  // single row: everything collides
  std::vector<RdmaOp> ops;
  cache.ingest(card(1, 0, 10), ops);
  EXPECT_TRUE(ops.empty());
  cache.ingest(card(2, 0, 20), ops);  // different flow: evicts flow 1
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(cache.stats().early_emissions, 1u);
}

TEST_F(PostcardCacheTest, RedundancyEmitsNWrites) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  for (std::uint8_t hop = 0; hop < 5; ++hop) {
    auto c = card(9, hop, 1);
    c.redundancy = 2;
    cache.ingest(c, ops);
  }
  EXPECT_EQ(ops.size(), 2u);
  EXPECT_NE(ops[0].remote_va, ops[1].remote_va);
}

TEST_F(PostcardCacheTest, OutOfRangeHopDropped) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  cache.ingest(card(1, 7, 10), ops);  // hop >= B
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(cache.stats().postcards_in, 1u);
}

TEST_F(PostcardCacheTest, FlushDrainsResidents) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  cache.ingest(card(1, 0, 10), ops);
  cache.ingest(card(1, 1, 11), ops);
  EXPECT_TRUE(ops.empty());
  cache.flush_all(ops);
  EXPECT_EQ(ops.size(), 1u);
  EXPECT_EQ(cache.stats().final_flushes, 1u);
}

TEST_F(PostcardCacheTest, DuplicateHopDoesNotDoubleCount) {
  PostcardCache cache(geometry_, 1024);
  std::vector<RdmaOp> ops;
  cache.ingest(card(1, 0, 10), ops);
  cache.ingest(card(1, 0, 12), ops);  // retransmitted postcard, new value
  cache.ingest(card(1, 1, 11), ops);
  EXPECT_TRUE(ops.empty());  // count must be 2, not 3
}

// ------------------------------------------------------------ Append engine

class AppendEngineTest : public ::testing::Test {
 protected:
  AppendEngineTest() {
    geometry_.base_va = 0x20000;
    geometry_.rkey = 0x88;
    geometry_.num_lists = 4;
    geometry_.entries_per_list = 64;
    geometry_.entry_bytes = 4;
  }

  proto::AppendReport entry(std::uint32_t list, std::uint32_t value) {
    proto::AppendReport r;
    r.list_id = list;
    r.entry_size = 4;
    Bytes e;
    common::put_u32(e, value);
    r.entries.push_back(std::move(e));
    return r;
  }

  AppendGeometry geometry_;
};

TEST_F(AppendEngineTest, BatchesBeforeEmitting) {
  AppendEngine engine(geometry_, 4);
  std::vector<RdmaOp> ops;
  for (std::uint32_t i = 0; i < 3; ++i) {
    engine.ingest(entry(0, i), false, ops);
    EXPECT_TRUE(ops.empty());
  }
  engine.ingest(entry(0, 3), false, ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].payload.size(), 16u);  // 4 entries x 4B
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(common::load_u32(ops[0].payload.data() + i * 4), i);
  }
}

TEST_F(AppendEngineTest, HeadAdvancesByBatch) {
  AppendEngine engine(geometry_, 4);
  std::vector<RdmaOp> ops;
  for (std::uint32_t i = 0; i < 8; ++i) engine.ingest(entry(0, i), false, ops);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].remote_va, 0x20000u);
  EXPECT_EQ(ops[1].remote_va, 0x20000u + 16);
  EXPECT_EQ(engine.head(0), 8u);
}

TEST_F(AppendEngineTest, RingWrapsAtListEnd) {
  AppendEngine engine(geometry_, 4);
  std::vector<RdmaOp> ops;
  for (std::uint32_t i = 0; i < 64; ++i) engine.ingest(entry(0, i), false, ops);
  EXPECT_EQ(engine.head(0), 0u);  // wrapped exactly
  ops.clear();
  for (std::uint32_t i = 0; i < 4; ++i) engine.ingest(entry(0, i), false, ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].remote_va, 0x20000u);  // back at the start
}

TEST_F(AppendEngineTest, ListsAreIndependent) {
  AppendEngine engine(geometry_, 2);
  std::vector<RdmaOp> ops;
  engine.ingest(entry(0, 1), false, ops);
  engine.ingest(entry(1, 2), false, ops);
  EXPECT_TRUE(ops.empty());  // each list has only 1 of 2 batched
  engine.ingest(entry(1, 3), false, ops);
  ASSERT_EQ(ops.size(), 1u);
  // List 1's region starts one list-length after list 0's.
  EXPECT_EQ(ops[0].remote_va, 0x20000u + 64 * 4);
}

TEST_F(AppendEngineTest, MultiEntryPacketsBatchCorrectly) {
  AppendEngine engine(geometry_, 4);
  proto::AppendReport r;
  r.list_id = 2;
  r.entry_size = 4;
  for (std::uint32_t i = 0; i < 8; ++i) {
    Bytes e;
    common::put_u32(e, i);
    r.entries.push_back(std::move(e));
  }
  std::vector<RdmaOp> ops;
  engine.ingest(r, false, ops);
  EXPECT_EQ(ops.size(), 2u);
  EXPECT_EQ(engine.stats().entries_in, 8u);
}

TEST_F(AppendEngineTest, BadListDropped) {
  AppendEngine engine(geometry_, 4);
  std::vector<RdmaOp> ops;
  engine.ingest(entry(99, 1), false, ops);
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(engine.stats().dropped_bad_list, 1u);
}

TEST_F(AppendEngineTest, WrongEntrySizeDropped) {
  AppendEngine engine(geometry_, 4);
  proto::AppendReport r;
  r.list_id = 0;
  r.entry_size = 8;  // store expects 4
  r.entries.push_back(Bytes(8, 0));
  std::vector<RdmaOp> ops;
  engine.ingest(r, false, ops);
  EXPECT_EQ(engine.stats().dropped_bad_list, 1u);
}

TEST_F(AppendEngineTest, FlushEmitsPartialBatch) {
  AppendEngine engine(geometry_, 16);
  std::vector<RdmaOp> ops;
  for (std::uint32_t i = 0; i < 5; ++i) engine.ingest(entry(0, i), false, ops);
  EXPECT_TRUE(ops.empty());
  engine.flush_all(ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].payload.size(), 20u);
}

TEST_F(AppendEngineTest, PartialFlushThenFullBatchesStayInsideTheRing) {
  // A partial flush leaves the head off the batch grid (3 of 64). Full
  // batches after it must end at the ring end rather than write past
  // it, and the head must wrap to 0 with every entry's ring position
  // (cumulative entries mod list length) landing where the WRITE put it.
  AppendEngine engine(geometry_, 4);
  std::vector<RdmaOp> ops;
  std::uint32_t value = 0;
  for (; value < 3; ++value) engine.ingest(entry(3, value), false, ops);
  engine.flush_all(ops);
  for (; value < 3 + 3 * 64; ++value) {
    engine.ingest(entry(3, value), false, ops);
  }
  engine.flush_all(ops);
  const std::uint64_t list_base = geometry_.list_base(3);
  const std::uint64_t list_end = list_base + geometry_.list_bytes();
  std::uint64_t delivered = 0;
  for (const RdmaOp& op : ops) {
    ASSERT_GE(op.remote_va, list_base);
    ASSERT_LE(op.remote_va + op.payload.size(), list_end)
        << "WRITE crosses the ring end at entry " << delivered;
    ASSERT_LE(op.payload.size(), 4u * 4u);
    const std::uint64_t entries = op.payload.size() / 4;
    EXPECT_EQ(op.remote_va,
              list_base + (delivered % geometry_.entries_per_list) * 4);
    for (std::uint64_t e = 0; e < entries; ++e) {
      EXPECT_EQ(common::load_u32(op.payload.data() + e * 4), delivered + e);
    }
    delivered += entries;
  }
  EXPECT_EQ(delivered, 3u + 3 * 64);
  EXPECT_EQ(engine.head(3), delivered % geometry_.entries_per_list);
}

TEST_F(AppendEngineTest, NoBatchingEmitsPerEntry) {
  AppendEngine engine(geometry_, 1);
  std::vector<RdmaOp> ops;
  engine.ingest(entry(0, 42), false, ops);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].payload.size(), 4u);
}

// ------------------------------------------------------------ Rate limiter

TEST(RateLimiter, AdmitsWithinBudget) {
  RateLimiterParams params;
  params.ops_per_second = 1e9;
  params.burst = 10;
  RateLimiter limiter(params);
  EXPECT_TRUE(limiter.admit(0, 10));
  EXPECT_FALSE(limiter.admit(0, 1));  // bucket drained, no time passed
}

TEST(RateLimiter, RefillsOverTime) {
  RateLimiterParams params;
  params.ops_per_second = 1e9;  // 1 token/ns
  params.burst = 10;
  RateLimiter limiter(params);
  EXPECT_TRUE(limiter.admit(0, 10));
  EXPECT_FALSE(limiter.admit(0, 5));
  EXPECT_TRUE(limiter.admit(5, 5));  // 5ns later: 5 tokens back
}

TEST(RateLimiter, NackCarriesDropInfo) {
  RateLimiterParams params;
  params.nack_on_drop = true;
  RateLimiter limiter(params);
  auto nack = limiter.make_nack(proto::PrimitiveOp::kAppend, 16);
  ASSERT_TRUE(nack);
  EXPECT_EQ(nack->dropped_op, proto::PrimitiveOp::kAppend);
  EXPECT_EQ(nack->dropped_count, 16u);
}

TEST(RateLimiter, NackDisabled) {
  RateLimiterParams params;
  params.nack_on_drop = false;
  RateLimiter limiter(params);
  EXPECT_FALSE(limiter.make_nack(proto::PrimitiveOp::kKeyWrite, 1));
}

// ------------------------------------------- Rate limiter: tenant buckets

TEST(RateLimiterTenants, ConfiguredTenantsAreIsolated) {
  RateLimiterParams shared;
  shared.ops_per_second = 1e9;
  shared.burst = 100;
  RateLimiter limiter(shared);
  RateLimiterParams small;
  small.ops_per_second = 1e9;
  small.burst = 4;
  limiter.set_tenant_params(7, small);
  limiter.set_tenant_params(8, small);

  // Tenant 7 drains its own bucket...
  EXPECT_TRUE(limiter.admit(7, 0, 4));
  EXPECT_FALSE(limiter.admit(7, 0, 1));
  // ...without touching tenant 8's or the shared default bucket.
  EXPECT_TRUE(limiter.admit(8, 0, 4));
  EXPECT_TRUE(limiter.admit(kDefaultTenant, 0, 100));
  EXPECT_EQ(limiter.dropped(7), 1u);
  EXPECT_EQ(limiter.dropped(8), 0u);
  EXPECT_EQ(limiter.dropped(), 1u);
}

TEST(RateLimiterTenants, UnconfiguredTenantsShareDefaultBucket) {
  RateLimiterParams shared;
  shared.ops_per_second = 1e9;
  shared.burst = 10;
  RateLimiter limiter(shared);
  EXPECT_FALSE(limiter.has_tenant_bucket(42));

  // Two unconfigured tenants compete for the same shared tokens.
  EXPECT_TRUE(limiter.admit(42, 0, 6));
  EXPECT_FALSE(limiter.admit(43, 0, 6));
  // Per-tenant counters for unconfigured tenants read the shared bucket.
  EXPECT_EQ(limiter.admitted(42), 1u);
  EXPECT_EQ(limiter.dropped(43), 1u);
}

TEST(RateLimiterTenants, TenantBucketRefillsAtItsOwnRate) {
  RateLimiterParams shared;
  shared.ops_per_second = 1.0;  // shared bucket refills glacially
  shared.burst = 1;
  RateLimiter limiter(shared);
  RateLimiterParams fast;
  fast.ops_per_second = 1e9;  // 1 token/ns
  fast.burst = 8;
  limiter.set_tenant_params(3, fast);

  EXPECT_TRUE(limiter.admit(3, 0, 8));
  EXPECT_FALSE(limiter.admit(3, 0, 4));
  EXPECT_TRUE(limiter.admit(3, 4, 4));  // 4ns later: 4 tokens back
}

TEST(RateLimiterTenants, RetryAfterTracksRefillHorizon) {
  RateLimiterParams params;
  params.ops_per_second = 1e9;  // 1 token/ns
  params.burst = 10;
  RateLimiter limiter(params);
  limiter.set_tenant_params(5, params);

  EXPECT_EQ(limiter.retry_after_ns(5, 0, 10), 0u);  // full bucket
  EXPECT_TRUE(limiter.admit(5, 0, 10));
  EXPECT_EQ(limiter.retry_after_ns(5, 0, 10), 10u);  // full drain: 10ns
  EXPECT_EQ(limiter.retry_after_ns(5, 0, 3), 3u);
  // Requests beyond the bucket depth saturate to the full-bucket
  // horizon instead of promising the impossible.
  EXPECT_EQ(limiter.retry_after_ns(5, 0, 64), 10u);
}

TEST(RateLimiterTenants, TenantNackCarriesRetryHint) {
  RateLimiterParams params;
  params.nack_on_drop = true;
  RateLimiter limiter(params);
  limiter.set_tenant_params(6, params);
  auto nack =
      limiter.make_nack(6, proto::PrimitiveOp::kKeyWrite, 3, 2'500'000);
  ASSERT_TRUE(nack);
  EXPECT_EQ(nack->dropped_count, 3u);
  EXPECT_EQ(nack->retry_after_us, 2500u);  // ns clamped into us hint
}

}  // namespace
}  // namespace dta::translator
