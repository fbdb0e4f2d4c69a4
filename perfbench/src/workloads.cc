#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <utility>

#include "collector/shard.h"
#include "common/rng.h"
#include "dta/report_builders.h"

namespace perfbench {

namespace {

using dta::proto::TelemetryKey;

constexpr std::uint32_t kNumShards = 2;
constexpr std::uint32_t kNumLists = 64;
constexpr std::uint8_t kRedundancy = 2;
constexpr std::uint32_t kPageLimit = 64;
constexpr std::uint64_t kEventsMax = 64;
constexpr std::uint32_t kQueriesPerTick = 16;  // 14 point reads, 1 range, 1 events
constexpr std::uint32_t kReportsPerTick = 64;
constexpr std::uint8_t kPathHops = 5;
constexpr std::uint32_t kSwitchIds = 256;
constexpr std::uint32_t kSwitchIdBase = 1000;
constexpr std::uint32_t kInFlightFlows = 1024;
constexpr std::uint32_t kRecentPaths = 32768;
constexpr dta::TenantId kVictim = 1;
constexpr dta::TenantId kAggressor = 2;
constexpr double kAggressorQuota = 50000.0;  // submits/s
constexpr std::uint32_t kAggressorBurst = 64;
// A range window spans 1% of the 8-byte key space, so ~1% of the keys.
constexpr std::uint64_t kWindowWidth = ~std::uint64_t{0} / 100;

// Measured-stream item: operation in the top 3 bits, target below.
enum Op : std::uint32_t { kPut = 0, kAdd = 1, kAppend = 2, kPostcard = 3 };
constexpr std::uint32_t kTargetMask = (1u << 29) - 1;
std::uint32_t item(Op op, std::uint32_t target) { return op << 29 | target; }
Op op_of(std::uint32_t it) { return static_cast<Op>(it >> 29); }
std::uint32_t target_of(std::uint32_t it) { return it & kTargetMask; }
// Postcard targets pack the flow id over the hop.
std::uint32_t pc_target(std::uint32_t flow, std::uint32_t hop) {
  return flow << 3 | hop;
}

std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t key_u64(const TelemetryKey& key) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | key.bytes[i];
  return v;
}

dta::common::Bytes be32(std::uint32_t v) {
  dta::common::Bytes out;
  dta::common::put_u32(out, v);
  return out;
}

struct Geometry {
  std::uint64_t kw_slots = 0;
  std::uint64_t ki_slots = 0;
  std::uint64_t list_entries = 0;
  std::uint64_t pc_chunks = 0;
  std::uint32_t flows = 0;          // Key-Write (and Key-Increment) flows
  std::uint32_t preload_flows = 0;  // flows written once during setup
  std::uint32_t preload_list_entries = 0;  // per list, during setup
};

Geometry geometry_for(Kind kind) {
  Geometry g;
  switch (kind) {
    case Kind::kIntIngest:
      g.kw_slots = 1u << 24;  // 128 MiB of slots, larger than the LLC
      g.list_entries = 1024;
      g.flows = 1u << 20;
      g.preload_list_entries = 1536;
      break;
    case Kind::kAggregateIngest:
      g.kw_slots = 1u << 20;
      g.list_entries = 1u << 16;
      g.pc_chunks = 1u << 20;
      g.flows = 1u << 16;
      g.preload_flows = g.flows;
      break;
    case Kind::kServing:
      g.kw_slots = 1u << 22;
      g.ki_slots = 1u << 20;
      g.list_entries = 1024;
      g.flows = 1u << 18;
      g.preload_flows = g.flows;
      g.preload_list_entries = 1536;
      break;
    case Kind::kTenantContention:
      g.kw_slots = 1u << 20;
      g.list_entries = 1024;
      g.flows = 2u << 16;  // victim flows, then aggressor flows
      g.preload_flows = g.flows;
      g.preload_list_entries = 1536;
      break;
  }
  return g;
}

}  // namespace

struct WorkloadInputs {
  std::uint64_t seed = 0;
  Geometry geo;
  std::vector<TelemetryKey> flow_keys;
  // (key as big-endian u64, flow) sorted by key: the model's key lookup.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> by_key;
  std::vector<std::uint32_t> preload_values;       // per preloaded flow
  std::vector<std::uint32_t> preload_list_values;  // list-major
  // The measured stream (the victim's, under contention).
  std::vector<std::uint32_t> items;
  std::vector<std::uint32_t> values;
  // The aggressor's stream, replayed cyclically.
  std::vector<std::uint32_t> agg_items;
  std::vector<std::uint32_t> agg_values;
  // Postcard flows finished by the measured stream: (item index of the
  // last hop, flow), in stream order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> completions;
  // Pregenerated random draws for every query choice.
  std::vector<std::uint64_t> draws;

  TelemetryKey pc_key(std::uint32_t flow) const {
    return dta::reports::mixed_key(mix(seed) + (std::uint64_t{1} << 40) +
                                   flow);
  }
  std::uint32_t path_value(std::uint32_t flow, std::uint32_t hop) const {
    return kSwitchIdBase +
           static_cast<std::uint32_t>(
               mix(seed ^ (std::uint64_t{flow} << 3 | hop)) % kSwitchIds);
  }
  std::optional<std::uint32_t> flow_of(const TelemetryKey& key) const {
    if (key.length != 8) return std::nullopt;
    const std::uint64_t k = key_u64(key);
    auto it = std::lower_bound(
        by_key.begin(), by_key.end(), k,
        [](const std::pair<std::uint64_t, std::uint32_t>& e,
           std::uint64_t v) { return e.first < v; });
    if (it == by_key.end() || it->first != k) return std::nullopt;
    return it->second;
  }
};

namespace {

// Allocates and touches room for `n` elements, so a buffer's resident
// size does not grow with how far a run gets (peak_rss_mb would
// otherwise track throughput).
template <typename T>
void reserve_resident(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  v.clear();
}

// Query ticks the sample buffers are sized for; a faster run still
// works, its buffers just grow past this.
constexpr std::size_t kTickCapacity = 1u << 17;

// The reference model: what the stores must answer after every
// accepted submit, plus the closed-loop query driver's position.
struct Model {
  explicit Model(const WorkloadInputs& in, std::uint32_t append_batch)
      : kw_value(in.geo.flows, 0),
        kw_written(in.geo.flows, 0),
        lists(kNumLists),
        pending(kNumLists, 0),
        batch(append_batch),
        cursors(kNumLists, 0) {}

  void put(std::uint32_t flow, std::uint32_t value) {
    kw_value[flow] = value;
    kw_written[flow] = 1;
    ++kw_reports;
  }
  // Append entries batch per list in the translator; a batch becomes
  // one WRITE when full or when the shard is flushed.
  void append(std::uint32_t list, std::uint32_t value) {
    lists[list].push_back(value);
    ++append_entries;
    if (++pending[list] == batch) {
      ++append_verbs;
      pending[list] = 0;
    }
  }
  void flush_lists() {
    for (auto& p : pending) {
      if (p != 0) ++append_verbs;
      p = 0;
    }
  }
  std::uint64_t reports() const {
    return kw_reports + ki_reports + pc_reports + append_entries;
  }

  std::vector<std::uint32_t> kw_value;
  std::vector<std::uint8_t> kw_written;
  std::vector<std::vector<std::uint32_t>> lists;
  std::vector<std::uint32_t> pending;
  std::uint32_t batch;
  std::uint64_t kw_reports = 0;
  std::uint64_t ki_reports = 0;
  std::uint64_t pc_reports = 0;
  std::uint64_t append_entries = 0;
  std::uint64_t append_verbs = 0;

  // Query driver state.
  std::uint64_t ingested = 0;       // measured items submitted
  std::uint64_t paths_done = 0;     // postcard flows completed
  std::size_t next_draw = 0;
  std::vector<std::uint64_t> cursors;
  std::uint32_t next_list = 0;
  bool window_open = false;
  std::uint64_t window_lo = 0;
  std::uint64_t window_hi = 0;
  std::optional<TelemetryKey> after;
};

struct Run {
  const WorkloadInputs& in;
  Kind kind;
  dta::Client& client;
  Calls& calls;
  Model& m;
  PassResult& out;
  Checks& checks;

  std::uint64_t draw() { return in.draws[m.next_draw++ % in.draws.size()]; }
};

bool is_miss(dta::StatusCode code) {
  return code == dta::StatusCode::kNotFound ||
         code == dta::StatusCode::kConflict;
}

// Submits one measured-stream item, timed, and applies it to the model
// when accepted.
void submit_item(Run& r, std::uint32_t it, std::uint32_t value,
                 const dta::ReportOptions& opts) {
  const std::uint32_t target = target_of(it);
  const std::int64_t t0 = now_ns();
  dta::Status status;
  switch (op_of(it)) {
    case kPut:
      status = r.calls.put(r.in.flow_keys[target], value, opts);
      break;
    case kAdd:
      status = r.calls.add(r.in.flow_keys[target], value, opts);
      break;
    case kAppend:
      status = r.calls.append(target, value, opts);
      break;
    case kPostcard:
      status = r.calls.postcard(r.in.pc_key(target >> 3),
                                static_cast<std::uint8_t>(target & 7),
                                kPathHops, value, opts);
      break;
  }
  const std::int64_t t1 = now_ns();
  r.out.submit_ns.push_back(static_cast<float>(t1 - t0));
  ++r.out.attempted;
  if (!status.ok()) {
    ++r.out.failed;
    return;
  }
  switch (op_of(it)) {
    case kPut: r.m.put(target, value); break;
    case kAdd: ++r.m.ki_reports; break;
    case kAppend: r.m.append(target, value); break;
    case kPostcard: ++r.m.pc_reports; break;
  }
}

std::uint32_t get_target(Run& r) {
  const std::uint64_t d = r.draw();
  if (r.kind == Kind::kIntIngest) {
    if (r.m.ingested == 0) return 0;
    return target_of(r.in.items[d % r.m.ingested]);
  }
  // Victims only under contention; every preloaded flow otherwise.
  const std::uint32_t n = r.kind == Kind::kTenantContention
                              ? r.in.geo.flows / 2
                              : r.in.geo.preload_flows;
  return static_cast<std::uint32_t>(d % n);
}

void point_get(Run& r) {
  const std::uint32_t flow = get_target(r);
  const std::int64_t t0 = now_ns();
  auto got = r.calls.get(r.in.flow_keys[flow]);
  const std::int64_t t1 = now_ns();
  r.out.get_ns.push_back(static_cast<float>(t1 - t0));
  ++r.out.attempted;
  ++r.out.point_reads;
  if (got.ok()) {
    if (r.m.kw_written[flow] && *got == be32(r.m.kw_value[flow])) {
      ++r.out.point_exact;
      r.checks.pass();
    } else {
      r.checks.fail("get returned a value the model does not hold");
    }
  } else if (!is_miss(got.code())) {
    ++r.out.failed;
  }
}

void point_path(Run& r) {
  const std::uint64_t recent = std::min<std::uint64_t>(r.m.paths_done,
                                                       kRecentPaths);
  const std::uint32_t flow =
      r.in.completions[r.m.paths_done - 1 - r.draw() % recent].second;
  auto got = r.calls.path_of(r.in.pc_key(flow));
  ++r.out.attempted;
  ++r.out.point_reads;
  if (got.ok()) {
    bool same = got->size() == kPathHops;
    for (std::uint32_t h = 0; same && h < kPathHops; ++h) {
      same = (*got)[h] == r.in.path_value(flow, h);
    }
    if (same) {
      ++r.out.point_exact;
      r.checks.pass();
    } else {
      r.checks.fail("path_of returned a path that was not generated");
    }
  } else if (!is_miss(got.code())) {
    ++r.out.failed;
  }
}

void range_page(Run& r) {
  Model& m = r.m;
  if (!m.window_open) {
    m.window_lo = r.draw();
    m.window_hi = m.window_lo + std::min(kWindowWidth, ~m.window_lo);
    m.after.reset();
    m.window_open = true;
  }
  dta::RangeSpec spec;
  spec.from = dta::reports::u64_key(m.window_lo);
  spec.to = dta::reports::u64_key(m.window_hi);
  spec.after = m.after;
  spec.limit = kPageLimit;
  const std::int64_t t0 = now_ns();
  auto page = r.calls.range(spec);
  const std::int64_t t1 = now_ns();
  r.out.range_ns.push_back(static_cast<float>(t1 - t0));
  ++r.out.attempted;
  if (!page.ok()) {
    ++r.out.failed;
    m.window_open = false;
    return;
  }
  bool have_prev = m.after.has_value();
  std::uint64_t prev = have_prev ? key_u64(*m.after) : 0;
  for (const dta::RangeEntry& e : page->entries) {
    const std::uint64_t k = key_u64(e.key);
    if (e.key.length != 8 || k < m.window_lo || k > m.window_hi) {
      r.checks.fail("range entry outside its window");
    } else if (have_prev && k <= prev) {
      r.checks.fail("range page not sorted past its cursor");
    } else {
      const auto flow = r.in.flow_of(e.key);
      if (!flow || !m.kw_written[*flow] ||
          e.value != be32(m.kw_value[*flow])) {
        r.checks.fail("range value differs from the model");
      } else {
        r.checks.pass();
      }
    }
    prev = k;
    have_prev = true;
  }
  if (!page->entries.empty()) {
    // One entry per page is re-read through get(): the two paths must
    // agree byte for byte.
    const dta::RangeEntry& e =
        page->entries[r.draw() % page->entries.size()];
    auto got = r.client.keywrite().get(e.key);
    if (!got.ok() || *got != e.value) {
      r.checks.fail("range value differs from get()");
    } else {
      r.checks.pass();
    }
  }
  if (page->truncated) {
    if (!page->next) {
      r.checks.fail("truncated range page without a cursor");
      m.window_open = false;
    } else {
      m.after = page->next->last;
    }
  } else {
    m.window_open = false;
  }
}

void events_batch(Run& r) {
  Model& m = r.m;
  const std::uint32_t list = m.next_list++ % kNumLists;
  const std::uint64_t cursor = m.cursors[list];
  const std::int64_t t0 = now_ns();
  auto batch = r.calls.events(list, cursor, kEventsMax);
  const std::int64_t t1 = now_ns();
  r.out.events_ns.push_back(static_cast<float>(t1 - t0));
  ++r.out.attempted;
  if (!batch.ok()) {
    ++r.out.failed;
    return;
  }
  const auto& values = m.lists[list];
  const std::uint64_t head = values.size();
  const std::uint64_t cap = r.in.geo.list_entries;
  const std::uint64_t oldest = head > cap ? head - cap : 0;
  const std::uint64_t start = std::max(cursor, oldest);
  const std::uint64_t n = std::min(kEventsMax, head - start);
  bool same = batch->dropped == start - cursor &&
              batch->entries.size() == n &&
              batch->next.position == start + n &&
              batch->remaining == head - (start + n);
  for (std::uint64_t i = 0; same && i < n; ++i) {
    same = batch->entries[i] == be32(values[start + i]);
  }
  if (same) {
    r.checks.pass();
  } else {
    r.checks.fail("events batch differs from the ring tail: list " +
                  std::to_string(list) + " cursor " + std::to_string(cursor) +
                  " head " + std::to_string(head) + " got dropped " +
                  std::to_string(batch->dropped) + " n " +
                  std::to_string(batch->entries.size()) + " next " +
                  std::to_string(batch->next.position) + " remaining " +
                  std::to_string(batch->remaining));
  }
  // A drained list is read again from the start, so batches keep
  // reading (and dropping) entries in workloads that stop appending.
  m.cursors[list] =
      batch->entries.empty() && batch->remaining == 0 ? 0 : batch->next.position;
}

// One tick of the closed-loop query driver: 14 point reads, one range
// page and one events batch, in a seeded order.
void query_tick(Run& r) {
  const std::uint64_t d = r.draw();
  const std::uint32_t range_slot = d % kQueriesPerTick;
  std::uint32_t events_slot = (d >> 8) % (kQueriesPerTick - 1);
  if (events_slot >= range_slot) ++events_slot;
  std::uint32_t point = 0;
  for (std::uint32_t slot = 0; slot < kQueriesPerTick; ++slot) {
    if (slot == range_slot) {
      range_page(r);
    } else if (slot == events_slot) {
      events_batch(r);
    } else if (r.kind == Kind::kAggregateIngest && (point++ & 1) != 0 &&
               r.m.paths_done > 0) {
      point_path(r);
    } else {
      point_get(r);
    }
  }
  r.out.queries += kQueriesPerTick;
}

void timed_flush(Run& r) {
  const std::int64_t t0 = now_ns();
  dta::Status status = r.calls.flush();
  r.out.flush_us = static_cast<double>(now_ns() - t0) / 1e3;
  if (!status.ok()) r.checks.fail("flush failed: " + status.to_string());
}

// Closed-loop producer over the measured stream, then flush().
void ingest_phase(Run& r, const Limit& limit) {
  const dta::ReportOptions opts;
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = limit.deadline(t0);
  std::uint64_t i = 0;
  const std::uint64_t n = r.in.items.size();
  for (; i < n; ++i) {
    if (limit.max_units != 0 && i >= limit.max_units) break;
    if ((i & 63) == 0 && now_ns() >= deadline) break;
    submit_item(r, r.in.items[i], r.in.values[i], opts);
  }
  timed_flush(r);
  r.out.ingest_seconds = static_cast<double>(now_ns() - t0) / 1e9;
  r.out.reports = i;
  r.m.ingested = i;
  r.m.flush_lists();
  const auto& done = r.in.completions;
  r.m.paths_done = static_cast<std::uint64_t>(
      std::lower_bound(done.begin(), done.end(),
                       std::make_pair(i, std::uint32_t{0})) -
      done.begin());
}

void query_phase(Run& r, const Limit& limit) {
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = limit.deadline(t0);
  std::uint64_t ticks = 0;
  while (!limit.done(now_ns(), deadline, ticks)) {
    query_tick(r);
    ++ticks;
  }
  r.out.query_seconds = static_cast<double>(now_ns() - t0) / 1e9;
}

// One driver thread: each tick submits 64 reports, then runs one
// query tick against the stores it just changed.
void serving_phase(Run& r, const Limit& limit) {
  const dta::ReportOptions opts;
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = limit.deadline(t0);
  std::uint64_t ticks = 0;
  std::uint64_t i = 0;
  const std::uint64_t n = r.in.items.size();
  while (i + kReportsPerTick <= n && !limit.done(now_ns(), deadline, ticks)) {
    for (std::uint32_t j = 0; j < kReportsPerTick; ++j, ++i) {
      submit_item(r, r.in.items[i], r.in.values[i], opts);
    }
    r.m.ingested = i;
    query_tick(r);
    // The tick's range page acquired every shard changed since the last
    // tick, and each acquire flushed that shard's partial batches.
    r.m.flush_lists();
    ++ticks;
  }
  timed_flush(r);
  r.out.reports = i;
  r.out.ingest_seconds = static_cast<double>(now_ns() - t0) / 1e9;
  r.out.query_seconds = r.out.ingest_seconds;
}

// The victim's closed-loop submit loop while the aggressor floods from
// a second thread against its quota.
void contention_phase(Run& r, const Limit& limit) {
  const std::uint32_t victims = r.in.geo.flows / 2;
  std::vector<std::uint32_t> agg_value(r.in.geo.flows - victims, 0);
  std::vector<std::uint8_t> agg_written(agg_value.size(), 0);
  std::uint64_t agg_errors = 0;
  std::int64_t agg_elapsed_ns = 0;
  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};

  auto flood = [&] {
    dta::ReportOptions as_aggressor;
    as_aggressor.tenant = kAggressor;
    auto table = r.client.keywrite();
    const std::int64_t begin = now_ns();
    started.store(true, std::memory_order_release);
    for (std::uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      const std::size_t at = i % r.in.agg_items.size();
      const std::uint32_t flow = target_of(r.in.agg_items[at]);
      const std::uint32_t value = r.in.agg_values[at];
      dta::Status status = table.put_u32(r.in.flow_keys[flow], value,
                                         kRedundancy, as_aggressor);
      if (status.ok()) {
        ++r.out.aggressor_admitted;
        agg_value[flow - victims] = value;
        agg_written[flow - victims] = 1;
      } else if (status.code() == dta::StatusCode::kResourceExhausted) {
        ++r.out.aggressor_shed;
      } else {
        ++agg_errors;
      }
    }
    agg_elapsed_ns = now_ns() - begin;
  };

  struct Joiner {
    std::thread thread;
    std::atomic<bool>& stop;
    ~Joiner() {
      stop.store(true, std::memory_order_release);
      if (thread.joinable()) thread.join();
    }
  };
  dta::ReportOptions as_victim;
  as_victim.tenant = kVictim;
  std::int64_t t0 = 0;
  std::uint64_t i = 0;
  {
    Joiner aggressor{std::thread(flood), stop};
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    t0 = now_ns();
    const std::int64_t deadline = limit.deadline(t0);
    const std::uint64_t n = r.in.items.size();
    for (; i < n; ++i) {
      if (limit.max_units != 0 && i >= limit.max_units) break;
      if ((i & 63) == 0 && now_ns() >= deadline) break;
      submit_item(r, r.in.items[i], r.in.values[i], as_victim);
    }
  }
  timed_flush(r);
  r.out.ingest_seconds = static_cast<double>(now_ns() - t0) / 1e9;
  r.out.reports = i;
  r.m.ingested = i;
  for (std::size_t a = 0; a < agg_value.size(); ++a) {
    if (agg_written[a] != 0) {
      r.m.kw_value[victims + a] = agg_value[a];
      r.m.kw_written[victims + a] = 1;
    }
  }
  r.m.kw_reports += r.out.aggressor_admitted;
  r.checks.expect_eq(agg_errors, 0, "aggressor submits with an unexpected status");
  // Token-bucket admission: never more than rate x time + burst.
  const double allowed = kAggressorQuota * 1.1 *
                             static_cast<double>(agg_elapsed_ns) / 1e9 +
                         2 * kAggressorBurst;
  if (static_cast<double>(r.out.aggressor_admitted) > allowed) {
    r.checks.fail("aggressor admitted past its quota");
  } else {
    r.checks.pass();
  }
  const dta::TenantCounters agg = r.client.tenants().counters(kAggressor);
  r.checks.expect_eq(agg.submits_admitted, r.out.aggressor_admitted,
                     "aggressor submits_admitted");
  r.checks.expect_eq(agg.submits_shed, r.out.aggressor_shed,
                     "aggressor submits_shed");
}

// Store-level counters after the ingest phase's flush: every report
// arrived, every verb the reports imply ran, none failed.
void check_stats(Run& r) {
  const dta::ClientStats stats = r.client.stats();
  const auto& t = stats.translation;
  r.checks.expect_eq(stats.ingest.reports_in, r.m.reports(), "reports_in");
  r.checks.expect_eq(t.keywrite_writes, kRedundancy * r.m.kw_reports,
                     "keywrite_writes");
  r.checks.expect_eq(t.fetch_adds, kRedundancy * r.m.ki_reports, "fetch_adds");
  r.checks.expect_eq(t.append_entries_in, r.m.append_entries,
                     "append_entries_in");
  r.checks.expect_eq(t.postcards_in, r.m.pc_reports, "postcards_in");
  r.checks.expect_eq(t.append_writes, r.m.append_verbs, "append_writes");
  // Postcard emissions depend on cache collisions the model does not
  // simulate; every emitted write must still have executed.
  r.checks.expect_eq(stats.ingest.verbs_executed,
                     kRedundancy * (r.m.kw_reports + r.m.ki_reports) +
                         r.m.append_verbs + t.postcard_writes,
                     "verbs_executed");
  r.checks.expect_eq(stats.ingest.verbs_failed, 0, "verbs_failed");
}

}  // namespace

bool parse_kind(const std::string& name, Kind* kind) {
  for (Kind k : {Kind::kIntIngest, Kind::kAggregateIngest, Kind::kServing,
                 Kind::kTenantContention}) {
    if (name == kind_name(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kIntIngest: return "int_ingest";
    case Kind::kAggregateIngest: return "aggregate_ingest";
    case Kind::kServing: return "serving";
    case Kind::kTenantContention: return "tenant_contention";
  }
  return "?";
}

void Checks::fail(const std::string& what) {
  ++failed_;
  ++by_kind_[what.substr(0, what.find(':'))];
  if (failures_.size() < 8) failures_.push_back(what);
}

void Checks::expect_eq(std::uint64_t got, std::uint64_t want,
                       const char* what) {
  if (got == want) {
    pass();
  } else {
    fail(std::string(what) + ": got " + std::to_string(got) + ", want " +
         std::to_string(want));
  }
}

Workload::Workload(Kind kind, std::uint64_t seed)
    : kind_(kind), in_(std::make_unique<WorkloadInputs>()) {
  WorkloadInputs& in = *in_;
  in.seed = seed;
  in.geo = geometry_for(kind);
  dta::common::Rng rng(mix(seed) ^ static_cast<std::uint64_t>(kind));
  const Geometry& g = in.geo;

  const std::uint64_t key_base = mix(seed) << 8;
  in.flow_keys.reserve(g.flows);
  in.by_key.reserve(g.flows);
  for (std::uint32_t f = 0; f < g.flows; ++f) {
    in.flow_keys.push_back(dta::reports::mixed_key(key_base + f));
    in.by_key.emplace_back(key_u64(in.flow_keys.back()), f);
  }
  std::sort(in.by_key.begin(), in.by_key.end());
  for (std::uint32_t f = 0; f < g.preload_flows; ++f) {
    in.preload_values.push_back(rng.next_u32());
  }
  for (std::uint64_t e = 0; e < std::uint64_t{kNumLists} * g.preload_list_entries;
       ++e) {
    in.preload_list_values.push_back(rng.next_u32());
  }

  switch (kind) {
    case Kind::kIntIngest: {
      // Every flow written 4 times, in a seeded order.
      for (std::uint32_t w = 0; w < 4; ++w) {
        for (std::uint32_t f = 0; f < g.flows; ++f) {
          in.items.push_back(item(kPut, f));
        }
      }
      for (std::size_t i = in.items.size(); i > 1; --i) {
        std::swap(in.items[i - 1], in.items[rng.next_below(i)]);
      }
      for (std::size_t i = 0; i < in.items.size(); ++i) {
        in.values.push_back(rng.next_u32());
      }
      break;
    }
    case Kind::kAggregateIngest: {
      // 80% Append entries over 64 lists, 20% postcards of a bounded
      // set of in-flight 5-hop flows.
      constexpr std::size_t kItems = 16u << 20;
      std::vector<std::pair<std::uint32_t, std::uint32_t>> in_flight;
      std::uint32_t next_flow = 0;
      for (std::uint32_t s = 0; s < kInFlightFlows; ++s) {
        in_flight.emplace_back(next_flow++, 0);
      }
      in.items.reserve(kItems);
      in.values.reserve(kItems);
      for (std::size_t i = 0; i < kItems; ++i) {
        const std::uint64_t d = rng.next_u64();
        if (d % 5 != 0) {
          in.items.push_back(
              item(kAppend, static_cast<std::uint32_t>((d >> 8) % kNumLists)));
          in.values.push_back(static_cast<std::uint32_t>(d >> 32));
          continue;
        }
        auto& slot = in_flight[(d >> 8) % kInFlightFlows];
        in.items.push_back(item(kPostcard, pc_target(slot.first, slot.second)));
        in.values.push_back(in.path_value(slot.first, slot.second));
        if (++slot.second == kPathHops) {
          in.completions.emplace_back(i + 1, slot.first);
          slot = {next_flow++, 0};
        }
      }
      break;
    }
    case Kind::kServing: {
      // Per tick: 32 Key-Write updates, 16 Key-Increments, 16 Appends,
      // in a seeded order.
      constexpr std::size_t kTicks = 40000;
      std::vector<Op> tick_ops;
      for (std::uint32_t j = 0; j < kReportsPerTick; ++j) {
        tick_ops.push_back(j < 32 ? kPut : j < 48 ? kAdd : kAppend);
      }
      for (std::size_t t = 0; t < kTicks; ++t) {
        for (std::size_t j = tick_ops.size(); j > 1; --j) {
          std::swap(tick_ops[j - 1], tick_ops[rng.next_below(j)]);
        }
        for (Op op : tick_ops) {
          const std::uint64_t d = rng.next_u64();
          if (op == kAppend) {
            in.items.push_back(item(op, static_cast<std::uint32_t>(d % kNumLists)));
            in.values.push_back(static_cast<std::uint32_t>(d >> 32));
          } else {
            in.items.push_back(item(op, static_cast<std::uint32_t>(d % g.flows)));
            in.values.push_back(op == kAdd ? 1 + static_cast<std::uint32_t>(
                                                     (d >> 32) % 1000)
                                           : static_cast<std::uint32_t>(d >> 32));
          }
        }
      }
      break;
    }
    case Kind::kTenantContention: {
      const std::uint32_t victims = g.flows / 2;
      for (std::size_t i = 0; i < (8u << 20); ++i) {
        in.items.push_back(item(kPut, static_cast<std::uint32_t>(
                                          rng.next_below(victims))));
        in.values.push_back(rng.next_u32());
      }
      for (std::size_t i = 0; i < (1u << 20); ++i) {
        in.agg_items.push_back(item(
            kPut, victims + static_cast<std::uint32_t>(
                                rng.next_below(g.flows - victims))));
        in.agg_values.push_back(rng.next_u32());
      }
      break;
    }
  }
  for (std::size_t i = 0; i < (1u << 20); ++i) in.draws.push_back(rng.next_u64());
}

Workload::~Workload() = default;

dta::collector::CollectorRuntimeConfig Workload::config() const {
  const Geometry& g = in_->geo;
  dta::collector::CollectorRuntimeConfig config;
  config.num_shards = kNumShards;
  if (g.kw_slots != 0) {
    dta::collector::KeyWriteSetup kw;
    kw.num_slots = g.kw_slots;
    kw.value_bytes = 4;
    config.keywrite = kw;
  }
  if (g.ki_slots != 0) {
    dta::collector::KeyIncrementSetup ki;
    ki.num_slots = g.ki_slots;
    config.keyincrement = ki;
  }
  if (g.list_entries != 0) {
    dta::collector::AppendSetup ap;
    ap.num_lists = kNumLists;
    ap.entries_per_list = g.list_entries;
    ap.entry_bytes = 4;
    config.append = ap;
  }
  if (g.pc_chunks != 0) {
    dta::collector::PostcardingSetup pc;
    pc.num_chunks = g.pc_chunks;
    pc.hops = kPathHops;
    for (std::uint32_t v = 0; v < kSwitchIds; ++v) {
      pc.value_space.push_back(kSwitchIdBase + v);
    }
    config.postcarding = pc;
  }
  return config;
}

dta::Client Workload::setup(Checks& checks) {
  const WorkloadInputs& in = *in_;
  dta::Client client = dta::Client::local(config());
  if (kind_ == Kind::kTenantContention) {
    client.tenants().register_tenant(kVictim, {});
    dta::TenantConfig aggressor;
    aggressor.quota.submits_per_second = kAggressorQuota;
    aggressor.quota.submit_burst = kAggressorBurst;
    client.tenants().register_tenant(kAggressor, aggressor);
  }
  std::uint64_t rejected = 0;
  auto table = client.keywrite();
  auto counters = client.counters();
  for (std::uint32_t f = 0; f < in.geo.preload_flows; ++f) {
    rejected += !table.put_u32(in.flow_keys[f], in.preload_values[f],
                               kRedundancy).ok();
    if (in.geo.ki_slots != 0) {
      rejected += !counters.add(in.flow_keys[f], 1, kRedundancy).ok();
    }
  }
  for (std::uint32_t l = 0; l < kNumLists; ++l) {
    auto list = client.list(l);
    for (std::uint32_t e = 0; e < in.geo.preload_list_entries; ++e) {
      rejected += !list.append_u32(
                          in.preload_list_values[l * in.geo.preload_list_entries + e])
                       .ok();
    }
  }
  checks.expect_eq(rejected, 0, "preload submits rejected");
  if (dta::Status status = client.flush(); !status.ok()) {
    checks.fail("preload flush failed: " + status.to_string());
  }
  // Warm-up: build the first snapshot of every shard and the first
  // index version, so the timed phase starts from a served state.
  auto got = client.keywrite().get(in.flow_keys[0]);
  auto page = client.range(client.keywrite())
                  .from(dta::reports::u64_key(0))
                  .to(dta::reports::u64_key(kWindowWidth))
                  .limit(kPageLimit)
                  .run();
  auto batch = client.events(0).max(kEventsMax).run();
  if ((!got.ok() && !is_miss(got.code())) || !page.ok() || !batch.ok()) {
    checks.fail("warm-up query failed");
  }
  return client;
}

void Workload::run(dta::Client& client, Calls& calls, const Limit& ingest,
                   const Limit& query, PassResult& out, Checks& checks) {
  const WorkloadInputs& in = *in_;
  Model model(in, client.backend().host_config().append_batch_size);
  std::vector<std::uint64_t> list_appends(kNumLists, in.geo.preload_list_entries);
  for (std::uint32_t it : in.items) {
    if (op_of(it) == kAppend) ++list_appends[target_of(it)];
  }
  for (std::uint32_t l = 0; l < kNumLists; ++l) {
    reserve_resident(model.lists[l], list_appends[l]);
  }
  reserve_resident(out.submit_ns, in.items.size());
  reserve_resident(out.get_ns, kTickCapacity * kQueriesPerTick);
  reserve_resident(out.range_ns, kTickCapacity);
  reserve_resident(out.events_ns, kTickCapacity);
  // The model starts where setup() left the stores.
  for (std::uint32_t f = 0; f < in.geo.preload_flows; ++f) {
    model.put(f, in.preload_values[f]);
    if (in.geo.ki_slots != 0) ++model.ki_reports;
  }
  for (std::uint32_t l = 0; l < kNumLists; ++l) {
    for (std::uint32_t e = 0; e < in.geo.preload_list_entries; ++e) {
      model.append(l, in.preload_list_values[l * in.geo.preload_list_entries + e]);
    }
  }
  model.flush_lists();

  Run r{in, kind_, client, calls, model, out, checks};
  switch (kind_) {
    case Kind::kIntIngest:
    case Kind::kAggregateIngest:
      ingest_phase(r, ingest);
      check_stats(r);
      query_phase(r, query);
      break;
    case Kind::kServing:
      serving_phase(r, ingest);
      check_stats(r);
      break;
    case Kind::kTenantContention:
      contention_phase(r, ingest);
      check_stats(r);
      query_phase(r, query);
      break;
  }
}

std::vector<dta::proto::ParsedDta> Workload::shard0_reports(
    std::size_t max_reports) const {
  namespace col = dta::collector;
  const WorkloadInputs& in = *in_;
  std::vector<dta::proto::ParsedDta> out;
  for (std::size_t i = 0; i < in.items.size() && out.size() < max_reports;
       ++i) {
    const std::uint32_t target = target_of(in.items[i]);
    const std::uint32_t value = in.values[i];
    switch (op_of(in.items[i])) {
      case kPut:
        if (col::shard_for_key(in.flow_keys[target], kNumShards) == 0) {
          out.push_back(
              dta::reports::keywrite_u32(in.flow_keys[target], value, kRedundancy));
        }
        break;
      case kAdd:
        if (col::shard_for_key(in.flow_keys[target], kNumShards) == 0) {
          out.push_back(
              dta::reports::keyincrement(in.flow_keys[target], value, kRedundancy));
        }
        break;
      case kAppend:
        if (col::shard_for_list(target, kNumShards) == 0) {
          out.push_back(dta::reports::append_u32(
              col::local_list_id(target, kNumShards), value));
        }
        break;
      case kPostcard: {
        const TelemetryKey key = in.pc_key(target >> 3);
        if (col::shard_for_key(key, kNumShards) == 0) {
          out.push_back(dta::reports::postcard(
              key, static_cast<std::uint8_t>(target & 7), kPathHops, value, 1));
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace perfbench
