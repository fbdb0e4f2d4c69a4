#include "calls.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "collector/shard_index.h"
#include "dta/report_builders.h"
#include "dtalib/query_core.h"

namespace perfbench {

namespace {

dta::collector::CollectorRuntime& local_runtime(dta::Client& client) {
  dta::collector::CollectorRuntime* runtime = client.local_runtime();
  if (runtime == nullptr) {
    std::fprintf(stderr, "perfbench: the benchmark needs Client::local\n");
    std::abort();
  }
  return *runtime;
}

}  // namespace

Calls::Calls(dta::Client& client, Tracer* tracer, std::uint32_t submit_sample)
    : client_(client),
      backend_(client.backend()),
      runtime_(local_runtime(client)),
      tracer_(tracer),
      submit_sample_(std::max<std::uint32_t>(submit_sample, 1)) {}

Tracer* Calls::submit_tracer() {
  if (tracer_ == nullptr) return nullptr;
  return submits_++ % submit_sample_ == 0 ? tracer_ : nullptr;
}

dta::Status Calls::traced_submit(dta::proto::ParsedDta parsed,
                                 const dta::ReportOptions& opts) {
  Tracer* t = tracer_;
  Scope request(t, "client.submit");
  {
    Scope span(t, "dtalib.validate_report");
    dta::Status status = dta::validate_report(parsed, backend_.host_config(),
                                              backend_.num_lists());
    if (!status.ok()) return status;
  }
  {
    Scope span(t, "collector.route");
    // The shard is recomputed inside submit; this call only times it.
    if (runtime_.shard_index_for(parsed) >= runtime_.num_shards()) {
      return {dta::StatusCode::kOutOfRange, "route outside the shard range"};
    }
  }
  {
    Scope span(t, "dtalib.admit_submit");
    dta::Status status = backend_.tenants().admit_submit(opts.tenant);
    if (!status.ok()) return status;
  }
  Scope span(t, "dtalib.backend_submit");
  return backend_.submit(std::move(parsed), opts);
}

dta::Status Calls::put(const dta::proto::TelemetryKey& key,
                       std::uint32_t value, const dta::ReportOptions& opts) {
  if (submit_tracer() != nullptr) {
    return traced_submit(dta::reports::keywrite_u32(key, value, 2), opts);
  }
  return client_.keywrite().put_u32(key, value, 2, opts);
}

dta::Status Calls::add(const dta::proto::TelemetryKey& key,
                       std::uint64_t delta, const dta::ReportOptions& opts) {
  if (submit_tracer() != nullptr) {
    return traced_submit(dta::reports::keyincrement(key, delta, 2), opts);
  }
  return client_.counters().add(key, delta, 2, opts);
}

dta::Status Calls::append(std::uint32_t list, std::uint32_t value,
                          const dta::ReportOptions& opts) {
  if (submit_tracer() != nullptr) {
    return traced_submit(dta::reports::append_u32(list, value), opts);
  }
  return client_.list(list).append_u32(value, opts);
}

dta::Status Calls::postcard(const dta::proto::TelemetryKey& key,
                            std::uint8_t hop, std::uint8_t path_len,
                            std::uint32_t value,
                            const dta::ReportOptions& opts) {
  if (submit_tracer() != nullptr) {
    return traced_submit(dta::reports::postcard(key, hop, path_len, value, 1),
                         opts);
  }
  return client_.postcards().report(key, hop, path_len, value, 1, opts);
}

dta::Status Calls::flush() {
  Scope span(tracer_, "client.flush");
  return client_.flush();
}

dta::Expected<dta::common::Bytes> Calls::get(
    const dta::proto::TelemetryKey& key) {
  if (tracer_ == nullptr) return client_.keywrite().get(key);
  const dta::QueryOptions opts;
  Scope request(tracer_, "client.get");
  auto snaps = [&] {
    Scope span(tracer_, "dtalib.key_snapshots");
    return backend_.key_snapshots(key, opts);
  }();
  if (!snaps.ok()) return snaps.status();
  return dta::internal::merge_keywrite(*snaps, key, opts);
}

dta::Expected<std::vector<std::uint32_t>> Calls::path_of(
    const dta::proto::TelemetryKey& key) {
  const dta::QueryOptions opts = dta::PostcardStream::path_defaults();
  if (tracer_ == nullptr) return client_.postcards().path_of(key, opts);
  Scope request(tracer_, "client.path_of");
  auto snaps = [&] {
    Scope span(tracer_, "dtalib.key_snapshots");
    return backend_.key_snapshots(key, opts);
  }();
  if (!snaps.ok()) return snaps.status();
  return dta::internal::merge_path(*snaps, key, opts);
}

dta::Expected<dta::RangeResult> Calls::range(const dta::RangeSpec& spec) {
  if (tracer_ == nullptr) {
    auto query = client_.range(client_.keywrite());
    if (spec.from) query.from(*spec.from);
    if (spec.to) query.to(*spec.to);
    if (spec.after) query.after(dta::RangeCursor{*spec.after});
    return query.limit(spec.limit).run();
  }
  namespace col = dta::collector;
  const dta::QueryOptions opts;
  Scope request(tracer_, "client.range");
  {
    Scope span(tracer_, "dtalib.admit_query");
    dta::Status status = backend_.tenants().admit_query(opts.tenant);
    if (!status.ok()) return status;
  }
  const std::uint32_t n = runtime_.num_shards();
  std::vector<dta::Backend::SnapshotPtr> pinned(n);
  std::vector<std::shared_ptr<const col::ShardIndexVersion>> indexes(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    {
      Scope span(tracer_, "collector.snapshot.acquire");
      pinned[s] = runtime_.snapshot_shard_bounded(s, 0,
                                                  runtime_.staleness_budget());
    }
    Scope span(tracer_, "collector.index.catchup");
    indexes[s] = runtime_.index_shard(s, pinned[s]->generation());
  }
  // The candidate walk of dta::internal::collect_range_candidates,
  // rebuilt over the index's public visit_range so the walk is timed
  // on its own.
  const dta::proto::TelemetryKey* from = nullptr;
  bool exclusive_from = false;
  if (spec.after && !(spec.from && col::index_key_less(*spec.after,
                                                        *spec.from))) {
    from = &*spec.after;
    exclusive_from = true;
  } else if (spec.from) {
    from = &*spec.from;
  }
  const dta::proto::TelemetryKey* to = spec.to ? &*spec.to : nullptr;
  std::vector<dta::proto::TelemetryKey> candidates;
  for (const auto& index : indexes) {
    Scope span(tracer_, "collector.index.visit_range");
    index->visit_range(from, to, [&](const col::IndexEntry& entry) {
      if ((entry.primitives & col::kIndexKeyWrite) != 0 &&
          !(exclusive_from && entry.key == *from)) {
        candidates.push_back(entry.key);
      }
      return true;
    });
  }
  {
    Scope span(tracer_, "dtalib.candidate_merge");
    std::sort(candidates.begin(), candidates.end(), col::index_key_less);
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }
  Scope span(tracer_, "dtalib.range_resolve");
  dta::RangeResult result = dta::internal::scan_range_candidates(
      candidates, spec.limit, [&](const dta::proto::TelemetryKey& key) {
        const std::vector<dta::Backend::SnapshotPtr> snaps{
            pinned[col::shard_for_key(key, n)]};
        return dta::internal::resolve_range_entry(snaps, key, spec, opts);
      });
  ++range_stats_.pages;
  range_stats_.candidates += candidates.size();
  range_stats_.entries += result.entries.size();
  return result;
}

dta::Expected<dta::EventBatch> Calls::events(std::uint32_t list,
                                             std::uint64_t cursor,
                                             std::uint64_t max_entries) {
  if (tracer_ == nullptr) {
    return client_.events(list).since(cursor).max(max_entries).run();
  }
  const dta::QueryOptions opts;
  Scope request(tracer_, "client.events");
  auto slice = [&] {
    Scope span(tracer_, "dtalib.list_snapshot");
    return backend_.list_snapshot(list, opts);
  }();
  if (!slice.ok()) return slice.status();
  // The cursor arithmetic of Backend::events_query over the pinned ring.
  Scope span(tracer_, "dtalib.events_read");
  const dta::collector::StoreSnapshot& snap = *slice->snap;
  const std::uint64_t head = snap.append_head(slice->shard_list);
  if (cursor > head) {
    return dta::Status(dta::StatusCode::kOutOfRange,
                       "event cursor ahead of the delivered head");
  }
  const std::uint64_t capacity = snap.append_entries_per_list();
  const std::uint64_t oldest = head > capacity ? head - capacity : 0;
  const std::uint64_t start = std::max(cursor, oldest);
  const std::uint64_t count = std::min(max_entries, head - start);
  dta::EventBatch out;
  out.dropped = start - cursor;
  out.entries = snap.append_read_range(slice->shard_list, start, count);
  out.next.position = start + count;
  out.remaining = head - out.next.position;
  return out;
}

}  // namespace perfbench
