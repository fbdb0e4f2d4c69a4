// The benchmark's only way into the system: dta::Client calls.
//
// Untraced, every method is the plain public Client call
// (keywrite().put_u32, get, range(...).run(), events(...).run(), ...).
// Traced, the method rebuilds the call from the lower layers' public
// functions and wraps each in a span, so the reducer can attribute
// time to layers without any tracing inside the library:
//
//   submit  = validate_report + shard_index_for + admit_submit probes,
//             then Backend::submit (the probes are extra work the
//             traced run pays, counted in the tracing overhead)
//   get     = Backend::key_snapshots, then the query-core merge
//   path_of = Backend::key_snapshots, then the query-core path merge
//   range   = per shard: snapshot acquire + IndexPublisher catch-up +
//             ShardIndexVersion::visit_range; candidate merge; resolve
//   events  = Backend::list_snapshot, then the ring-cursor arithmetic
//
// Traced submits are sampled (one in `submit_sample`); queries are all
// traced.
#pragma once

#include <cstdint>
#include <vector>

#include "dtalib/client.h"
#include "trace.h"

namespace perfbench {

struct RangeStats {
  std::uint64_t pages = 0;
  std::uint64_t candidates = 0;
  std::uint64_t entries = 0;
};

class Calls {
 public:
  Calls(dta::Client& client, Tracer* tracer, std::uint32_t submit_sample);

  dta::Status put(const dta::proto::TelemetryKey& key, std::uint32_t value,
                  const dta::ReportOptions& opts = {});
  dta::Status add(const dta::proto::TelemetryKey& key, std::uint64_t delta,
                  const dta::ReportOptions& opts = {});
  dta::Status append(std::uint32_t list, std::uint32_t value,
                     const dta::ReportOptions& opts = {});
  dta::Status postcard(const dta::proto::TelemetryKey& key, std::uint8_t hop,
                       std::uint8_t path_len, std::uint32_t value,
                       const dta::ReportOptions& opts = {});
  dta::Status flush();

  dta::Expected<dta::common::Bytes> get(const dta::proto::TelemetryKey& key);
  dta::Expected<std::vector<std::uint32_t>> path_of(
      const dta::proto::TelemetryKey& key);
  dta::Expected<dta::RangeResult> range(const dta::RangeSpec& spec);
  dta::Expected<dta::EventBatch> events(std::uint32_t list,
                                        std::uint64_t cursor,
                                        std::uint64_t max_entries);

  // Candidate counts of traced range pages (zero when untraced).
  const RangeStats& range_stats() const { return range_stats_; }

 private:
  // The tracer for the next submit, or nullptr when it is not sampled.
  Tracer* submit_tracer();
  dta::Status traced_submit(dta::proto::ParsedDta parsed,
                            const dta::ReportOptions& opts);

  dta::Client& client_;
  dta::Backend& backend_;
  dta::collector::CollectorRuntime& runtime_;
  Tracer* tracer_;
  std::uint32_t submit_sample_;
  std::uint64_t submits_ = 0;
  RangeStats range_stats_;
};

}  // namespace perfbench
