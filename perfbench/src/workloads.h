// The four benchmark workloads: seeded inputs, a reference model of
// what the stores must answer, and the phases that drive dta::Client.
#pragma once

#include <climits>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "calls.h"
#include "collector/runtime.h"
#include "dtalib/client.h"

namespace perfbench {

struct WorkloadInputs;

enum class Kind { kIntIngest, kAggregateIngest, kServing, kTenantContention };

bool parse_kind(const std::string& name, Kind* kind);
const char* kind_name(Kind kind);

// When a phase stops: `duration_ns` after it starts, or after
// `max_units` units of work (reports or query ticks) when that is
// nonzero. Timed runs use durations; the traced run uses fixed work so
// its counts repeat.
struct Limit {
  std::int64_t duration_ns = LLONG_MAX;
  std::uint64_t max_units = 0;

  std::int64_t deadline(std::int64_t start) const {
    return duration_ns >= LLONG_MAX - start ? LLONG_MAX : start + duration_ns;
  }
  bool done(std::int64_t now, std::int64_t deadline,
            std::uint64_t units) const {
    return now >= deadline || (max_units != 0 && units >= max_units);
  }
};

// Output checks: every mismatch against the reference model is
// recorded; a run with any failure reports correct=false.
class Checks {
 public:
  void pass() { ++passed_; }
  void fail(const std::string& what);
  // Shorthand for the count/equality checks that build no message
  // unless they fail.
  void expect_eq(std::uint64_t got, std::uint64_t want, const char* what);

  std::uint64_t passed() const { return passed_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  // Failures counted by kind (the message up to its first ':').
  const std::map<std::string, std::uint64_t>& by_kind() const {
    return by_kind_;
  }

 private:
  std::uint64_t passed_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // the first few, for the log
  std::map<std::string, std::uint64_t> by_kind_;
};

// What one measured pass produced.
struct PassResult {
  std::uint64_t reports = 0;       // measured producer's reports
  double ingest_seconds = 0.0;     // first submit until flush() returned
  std::uint64_t queries = 0;
  double query_seconds = 0.0;
  std::vector<float> submit_ns, get_ns, range_ns, events_ns;
  std::uint64_t point_reads = 0;   // get + path_of attempted
  std::uint64_t point_exact = 0;   // ... that returned the model's value
  std::uint64_t attempted = 0;     // measured operations
  std::uint64_t failed = 0;        // ... that returned an unexpected status
  double flush_us = 0.0;
  std::uint64_t aggressor_admitted = 0;
  std::uint64_t aggressor_shed = 0;
};

class Workload {
 public:
  // Builds every input of the workload from `seed` (outside any timed
  // phase).
  Workload(Kind kind, std::uint64_t seed);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  Kind kind() const { return kind_; }

  // The library's default CollectorRuntimeConfig with only the store
  // geometry and num_shards = 2 changed.
  dta::collector::CollectorRuntimeConfig config() const;

  // A fresh client: tenants registered, stores preloaded, flushed and
  // warmed up (first snapshot and index version built). This is what
  // setup_s times.
  dta::Client setup(Checks& checks);

  // Runs the measured phases on a client from setup(): the ingest (or
  // serving) phase bounded by `ingest`, then, for the workloads that
  // have one, the closed-loop query phase bounded by `query`. Checks
  // every output against the reference model.
  void run(dta::Client& client, Calls& calls, const Limit& ingest,
           const Limit& query, PassResult& out, Checks& checks);

  // The first `max_reports` reports of the measured ingest stream that
  // route to shard 0, with Append list ids made shard-local: the input
  // of the standalone CollectorShard replay.
  std::vector<dta::proto::ParsedDta> shard0_reports(
      std::size_t max_reports) const;

 private:
  Kind kind_;
  std::unique_ptr<WorkloadInputs> in_;
};

}  // namespace perfbench
