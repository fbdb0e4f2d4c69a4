// dta_perfbench — the repository benchmark driver.
//
//   dta_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--commit <id>] [--src-digest <hex>] [--out-dir <dir>]
//
// --trace 0 runs the workload's timed phases untraced and prints every
// end-to-end metric. --trace 1 runs a fixed amount of the same work
// twice, untraced and traced, replays the inputs through a standalone
// CollectorShard with and without an index sink, and prints every
// per-layer metric. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines above it are
// the host/build fingerprint and a human-readable table. Usually
// started through run.py, which builds this binary first.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "calls.h"
#include "collector/index_publisher.h"
#include "collector/shard.h"
#include "common/crc.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetups = 3;
// Latency percentiles come from consecutive segments of at least this
// many samples (so each segment's p99 has 10 samples beyond it).
constexpr std::size_t kSegmentSamples = 1000;
constexpr std::size_t kMaxSegments = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Options* opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opts->trace = value == "1";
    } else if (flag == "--commit") {
      opts->commit = value;
    } else if (flag == "--src-digest") {
      opts->src_digest = value;
    } else if (flag == "--out-dir") {
      opts->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opts->workload.empty() && opts->seconds > 0 &&
         opts->trace >= 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string read_first_line(const std::string& path) {
  std::ifstream file(path);
  std::string line;
  std::getline(file, line);
  return line;
}

std::string cpu_model() {
  std::ifstream file("/proc/cpuinfo");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// Size of the highest cache level cpu0 reports (the LLC).
std::string llc_size() {
  int best_level = 0;
  std::string best = "unknown";
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first_line(dir + "level");
    if (level.empty()) continue;
    if (std::atoi(level.c_str()) > best_level) {
      best_level = std::atoi(level.c_str());
      best = "L" + level + " " + read_first_line(dir + "size");
    }
  }
  return best;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string fingerprint(const Options& opts) {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\""
     << ", \"llc\": \"" << json_escape(llc_size()) << "\""
     << ", \"hw_crc32c\": "
     << (dta::common::cpu_has_hw_crc32c() ? "true" : "false")
     << ", \"compiler\": \"" << json_escape(compiler()) << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"commit\": \"" << json_escape(opts.commit) << "\""
     << ", \"src_digest\": \"" << json_escape(opts.src_digest) << "\""
     << ", \"workload\": \"" << json_escape(opts.workload) << "\""
     << ", \"seed\": " << opts.seed << ", \"seconds\": " << opts.seconds
     << ", \"trace\": " << opts.trace << "}";
  return os.str();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Hypervisor steal: the share of all CPUs' time, since `since`, that
// the host ran something else. Bursts of it slow every wall-clock
// figure of a run, so runs print it next to their results.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};

CpuTimes cpu_times() {
  std::ifstream file("/proc/stat");
  std::string cpu;
  CpuTimes t;
  double field = 0.0;
  file >> cpu;
  for (int i = 0; i < 8 && file >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

double steal_pct(const CpuTimes& since) {
  const CpuTimes now = cpu_times();
  return 100.0 * ratio(now.steal - since.steal, now.total - since.total);
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The q-quantile as the mean of the order statistics within 0.25% of
// rank q*n (at least one on each side): the clock's whole-nanosecond
// steps would otherwise make one sample's value the answer.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size() - 1);
  const double half = std::max(1.0, 0.0025 * n);
  const auto lo = static_cast<std::size_t>(std::max(0.0, q * n - half));
  const auto hi = static_cast<std::size_t>(std::min(n, q * n + half));
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// p50 over every sample; p99 as the median of the p99s of up to 8
// consecutive segments of >= kSegmentSamples samples each (one segment
// when there are fewer), so one burst of stalls moves one segment.
struct Dist {
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t samples = 0;
  std::size_t segments = 0;
  std::size_t beyond_p99 = 0;  // samples above p99 in each segment
};

Dist summarize(const std::vector<float>& ns) {
  Dist d;
  d.samples = ns.size();
  if (ns.empty()) return d;
  std::vector<double> all(ns.begin(), ns.end());
  d.p50_us = median(all) / 1e3;
  d.segments = std::clamp<std::size_t>(ns.size() / kSegmentSamples, 1,
                                       kMaxSegments);
  const std::size_t per = ns.size() / d.segments;
  std::vector<double> p99s;
  for (std::size_t s = 0; s < d.segments; ++s) {
    std::vector<double> seg(all.begin() + static_cast<std::ptrdiff_t>(s * per),
                            all.begin() + static_cast<std::ptrdiff_t>((s + 1) * per));
    p99s.push_back(quantile(std::move(seg), 0.99));
  }
  d.p99_us = median(p99s) / 1e3;
  d.beyond_p99 = per - 1 - static_cast<std::size_t>(0.99 * static_cast<double>(per - 1));
  return d;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %-16s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void print_result(const Checks& checks, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::printf("checks: %llu passed, %llu failed\n",
              static_cast<unsigned long long>(checks.passed()),
              static_cast<unsigned long long>(checks.failed()));
  for (const auto& [kind, count] : checks.by_kind()) {
    std::printf("  %llu x check failed: %s\n",
                static_cast<unsigned long long>(count), kind.c_str());
  }
  for (const std::string& f : checks.failures()) {
    std::printf("  first failures: %s\n", f.c_str());
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

std::string samples_note(const Dist& d) {
  return "samples=" + std::to_string(d.samples) +
         " segments=" + std::to_string(d.segments) +
         " beyond_p99_per_segment=" + std::to_string(d.beyond_p99);
}

// The end-to-end metrics of one pass that BENCHMARK.json bounds, in its
// order. get_p99_us, events_* and failed_frac are printed but kept out
// of the JSON: the first three spread too far between runs on a shared
// host to bound, and failed_frac is 0 on a healthy run (the result's
// `failed` field carries it).
std::vector<Metric> end_to_end(const PassResult& out, double setup_s) {
  const Dist submit = summarize(out.submit_ns);
  const Dist get = summarize(out.get_ns);
  const Dist range = summarize(out.range_ns);
  return {
      {"ingest_rps", static_cast<double>(out.reports) / out.ingest_seconds,
       "reports/s", "reports=" + std::to_string(out.reports)},
      {"query_qps", static_cast<double>(out.queries) / out.query_seconds,
       "queries/s", "queries=" + std::to_string(out.queries)},
      {"submit_p50_us", submit.p50_us, "us", samples_note(submit)},
      {"submit_p99_us", submit.p99_us, "us", samples_note(submit)},
      {"get_p50_us", get.p50_us, "us", samples_note(get)},
      {"range_p50_us", range.p50_us, "us", samples_note(range)},
      {"range_p99_us", range.p99_us, "us", samples_note(range)},
      {"query_success_frac",
       out.point_reads ? static_cast<double>(out.point_exact) /
                             static_cast<double>(out.point_reads)
                       : 0.0,
       "ratio", "point_reads=" + std::to_string(out.point_reads)},
      {"setup_s", setup_s, "s", "median of " + std::to_string(kSetups)},
      {"peak_rss_mb", peak_rss_mib(), "MiB", ""},
  };
}

// --- timed run ---------------------------------------------------------------

int timed_run(const Options& opts, Workload& workload) {
  const CpuTimes start = cpu_times();
  Checks checks;
  std::vector<double> setups;
  std::optional<dta::Client> client;
  for (int k = 0; k < kSetups; ++k) {
    client.reset();  // one client alive at a time
    const std::int64_t t0 = now_ns();
    client.emplace(workload.setup(checks));
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const auto secs = [&](double share) {
    return static_cast<std::int64_t>(opts.seconds * share * 1e9);
  };
  // Serving interleaves its queries with ingest; every other workload
  // spends 60% of the run ingesting and 40% in the query driver.
  Limit ingest;
  Limit query;
  ingest.duration_ns = secs(workload.kind() == Kind::kServing ? 1.0 : 0.6);
  query.duration_ns = secs(0.4);
  Calls calls(*client, nullptr, 1);
  PassResult out;
  workload.run(*client, calls, ingest, query, out, checks);
  client->stop();

  const std::vector<Metric> metrics = end_to_end(out, median(setups));
  const Dist get = summarize(out.get_ns);
  const Dist events = summarize(out.events_ns);
  print_metrics("end-to-end metrics:", metrics);
  print_metrics(
      "printed, not in BENCHMARK.json:",
      {{"get_p99_us", get.p99_us, "us", samples_note(get)},
       {"events_p50_us", events.p50_us, "us", samples_note(events)},
       {"events_p99_us", events.p99_us, "us", samples_note(events)},
       {"failed_frac",
        ratio(static_cast<double>(out.failed),
              static_cast<double>(out.attempted)),
        "ratio", "attempted=" + std::to_string(out.attempted)}});
  std::printf("  %-40s %16.6f %-16s over the run, all CPUs\n",
              "host_steal_pct", steal_pct(start), "%");
  print_result(checks, out.attempted, out.failed, metrics);
  return 0;
}

// --- traced run --------------------------------------------------------------

// Fixed work of the traced run at --seconds 10 (ingest and query work
// scale linearly with --seconds), so exact counters repeat from run to
// run with the same --seconds.
struct FixedWork {
  std::uint64_t ingest_units = 0;  // reports, or serving ticks
  std::uint64_t query_ticks = 0;
  std::size_t replay_reports = 0;
  std::uint32_t submit_sample = 1;  // one traced submit in this many
};

FixedWork fixed_work(Kind kind, double seconds) {
  FixedWork w;
  switch (kind) {
    case Kind::kIntIngest: w = {600000, 1500, 300000, 16}; break;
    case Kind::kAggregateIngest: w = {3000000, 3000, 500000, 64}; break;
    case Kind::kServing: w = {5000, 0, 300000, 8}; break;
    case Kind::kTenantContention: w = {200000, 3000, 300000, 4}; break;
  }
  const auto scale = [seconds](std::uint64_t units) {
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(units) * seconds / 10));
  };
  w.ingest_units = scale(w.ingest_units);
  if (w.query_ticks != 0) w.query_ticks = scale(w.query_ticks);
  return w;
}

// Shard 0's slice of the runtime geometry, as CollectorRuntime builds
// it.
dta::collector::ShardConfig shard0_config(
    const dta::collector::CollectorRuntimeConfig& rc) {
  const std::uint32_t n = rc.num_shards;
  const auto slice = [n](std::uint64_t total) {
    return std::max<std::uint64_t>(total / n, 1024);
  };
  dta::collector::ShardConfig sc;
  sc.nic = rc.nic;
  sc.op_batch_size = rc.op_batch_size;
  sc.append_batch_size = rc.append_batch_size;
  sc.postcard_cache_slots = rc.postcard_cache_slots;
  sc.snapshot_chunk_bytes = rc.snapshot_chunk_bytes;
  sc.direct_execution = rc.direct_execution;
  sc.hugepage_store_memory = rc.hugepage_store_memory;
  if (rc.keywrite) {
    sc.keywrite = *rc.keywrite;
    sc.keywrite->num_slots = slice(rc.keywrite->num_slots);
  }
  if (rc.postcarding) {
    sc.postcarding = *rc.postcarding;
    sc.postcarding->num_chunks = slice(rc.postcarding->num_chunks);
  }
  if (rc.append) {
    sc.append = *rc.append;
    sc.append->num_lists = std::max<std::uint32_t>((rc.append->num_lists + n - 1) / n, 1);
  }
  if (rc.keyincrement) {
    sc.keyincrement = *rc.keyincrement;
    sc.keyincrement->num_slots = slice(rc.keyincrement->num_slots);
  }
  return sc;
}

struct Replay {
  double ns_per_report = 0.0;
  dta::collector::ShardStats stats;
  dta::collector::IndexPublisherStats index;
};

// Replays `reports` through a standalone CollectorShard on this thread,
// with or without an IndexPublisher sink.
Replay replay_shard(const dta::collector::CollectorRuntimeConfig& rc,
                    const std::vector<dta::proto::ParsedDta>& reports,
                    bool with_index, Tracer& tracer) {
  dta::collector::CollectorShard shard(0, shard0_config(rc));
  shard.first_touch_regions();
  dta::collector::IndexPublisher::Config ic;
  ic.publish_batch = rc.index_publish_batch;
  ic.target_leaf_entries = rc.index_leaf_entries;
  dta::collector::IndexPublisher publisher(1, ic);
  if (with_index) shard.set_index_sink(&publisher);
  const std::int64_t t0 = now_ns();
  {
    Scope span(&tracer, with_index ? "collector.shard.replay_indexed"
                                   : "collector.shard.replay");
    for (const auto& report : reports) shard.ingest(report);
    shard.flush();
  }
  Replay out;
  out.ns_per_report = static_cast<double>(now_ns() - t0) /
                      static_cast<double>(std::max<std::size_t>(reports.size(), 1));
  out.stats = shard.stats();
  out.index = publisher.stats();
  return out;
}

int traced_run(const Options& opts, Workload& workload) {
  const CpuTimes start = cpu_times();
  const Kind kind = workload.kind();
  const FixedWork work = fixed_work(kind, opts.seconds);
  Limit ingest;
  Limit query;
  ingest.max_units = work.ingest_units;
  query.max_units = work.query_ticks;
  Checks checks;

  // Pass 1: the same fixed work, untraced (the overhead baseline).
  PassResult plain;
  {
    dta::Client client = workload.setup(checks);
    Calls calls(client, nullptr, 1);
    workload.run(client, calls, ingest, query, plain, checks);
    client.stop();
  }

  // Pass 2: traced.
  Tracer tracer(1u << 19, 1);
  PassResult traced;
  std::uint64_t backpressure = 0;
  dta::collector::SnapshotCacheStats snaps;
  dta::collector::IndexPublisherStats index;
  dta::TenantCounters aggressor;
  RangeStats range;
  {
    dta::Client client = workload.setup(checks);
    Calls calls(client, &tracer, work.submit_sample);
    workload.run(client, calls, ingest, query, traced, checks);
    dta::collector::CollectorRuntime& runtime = *client.local_runtime();
    backpressure = runtime.pipeline().stats().backpressure_waits;
    snaps = runtime.snapshot_cache().stats();
    index = runtime.index_publisher().stats();
    aggressor = client.tenants().counters(2);
    range = calls.range_stats();
    client.stop();
  }

  // Standalone shard replays of the same inputs.
  const auto reports = workload.shard0_reports(work.replay_reports);
  const auto rc = workload.config();
  const Replay bare = replay_shard(rc, reports, false, tracer);
  const Replay indexed = replay_shard(rc, reports, true, tracer);

  const auto spans = reduce_spans({&tracer});
  const auto durations = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? std::vector<double>{} : it->second.duration_ns;
  };
  const auto self = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? std::vector<double>{} : it->second.self_ns;
  };
  const std::vector<double> acquire = durations("dtalib.key_snapshots");
  const bool single_producer = kind != Kind::kTenantContention;
  const std::string exact = "exact";
  const std::string exact_if = single_producer ? "exact" : "";
  const double plain_rps = ratio(static_cast<double>(plain.reports), plain.ingest_seconds);
  const double traced_rps = ratio(static_cast<double>(traced.reports), traced.ingest_seconds);
  const double plain_qps = ratio(static_cast<double>(plain.queries), plain.query_seconds);
  const double traced_qps = ratio(static_cast<double>(traced.queries), traced.query_seconds);
  const double lookups = static_cast<double>(snaps.hits + snaps.stale_hits + snaps.misses);

  const std::vector<Metric> metrics = {
      {"dtalib.validate_ns", median(durations("dtalib.validate_report")), "ns", ""},
      {"dtalib.submit_ns", median(durations("dtalib.backend_submit")), "ns", ""},
      {"dtalib.admit_ns", median(durations("dtalib.admit_submit")), "ns", ""},
      {"tenant.shed_frac",
       ratio(static_cast<double>(aggressor.submits_shed),
             static_cast<double>(aggressor.submits_shed + aggressor.submits_admitted)),
       "ratio", ""},
      {"dtalib.merge_ns", median(self("client.get")), "ns", ""},
      {"dtalib.range_candidates_per_page",
       ratio(static_cast<double>(range.candidates), static_cast<double>(range.pages)),
       "candidates/page", exact_if},
      {"dtalib.range_useful_frac",
       ratio(static_cast<double>(range.entries), static_cast<double>(range.candidates)),
       "ratio", exact_if},
      {"collector.route_ns", median(durations("collector.route")), "ns", ""},
      {"collector.pipeline.backpressure_waits", static_cast<double>(backpressure),
       "count", ""},
      {"collector.flush_us", traced.flush_us, "us", ""},
      {"collector.shard.ingest_ns", bare.ns_per_report, "ns", ""},
      {"translator.verbs_per_report",
       ratio(static_cast<double>(bare.stats.verbs_executed),
             static_cast<double>(bare.stats.reports_in)),
       "verbs/report", exact},
      {"rdma.ops_per_doorbell",
       ratio(static_cast<double>(bare.stats.ops_batched),
             static_cast<double>(bare.stats.batch_flushes)),
       "ops/doorbell", exact},
      {"rdma.verbs", static_cast<double>(bare.stats.verbs_executed), "count", exact},
      {"rdma.doorbells", static_cast<double>(bare.stats.batch_flushes), "count", exact},
      {"rdma.verbs_failed", static_cast<double>(bare.stats.verbs_failed), "count", exact},
      {"collector.index.ingest_ns", indexed.ns_per_report - bare.ns_per_report, "ns", ""},
      {"collector.index.deltas", static_cast<double>(index.deltas_applied), "count",
       exact_if},
      {"collector.index.publishes", static_cast<double>(index.publishes), "count",
       exact_if},
      {"collector.index.deltas_per_publish",
       ratio(static_cast<double>(index.deltas_applied),
             static_cast<double>(index.publishes)),
       "deltas/publish", exact_if},
      {"collector.index.catchup_us", mean(durations("collector.index.catchup")) / 1e3,
       "us", ""},
      {"collector.index.reader_catchups", static_cast<double>(index.reader_catchups),
       "count", exact_if},
      {"collector.index.visit_ns", median(durations("collector.index.visit_range")),
       "ns", ""},
      {"collector.snapshot.acquire_p50_us", quantile(acquire, 0.5) / 1e3, "us",
       "samples=" + std::to_string(acquire.size())},
      {"collector.snapshot.acquire_p99_us", quantile(acquire, 0.99) / 1e3, "us",
       "samples=" + std::to_string(acquire.size())},
      {"collector.snapshot.hits", static_cast<double>(snaps.hits), "count", exact_if},
      {"collector.snapshot.misses", static_cast<double>(snaps.misses), "count",
       exact_if},
      {"collector.snapshot.hit_frac",
       ratio(static_cast<double>(snaps.hits + snaps.stale_hits), lookups), "ratio",
       exact_if},
      {"collector.snapshot.refresh_bytes",
       ratio(static_cast<double>(snaps.quiesce_bytes_copied),
             static_cast<double>(snaps.misses)),
       "bytes", exact_if},
      {"collector.snapshot.cow_clones", static_cast<double>(snaps.cow_clones), "count",
       exact_if},
      {"trace.overhead_ingest_frac", 1.0 - ratio(traced_rps, plain_rps), "ratio",
       "untraced=" + std::to_string(plain_rps) + " traced=" + std::to_string(traced_rps)},
      {"trace.overhead_query_frac", 1.0 - ratio(traced_qps, plain_qps), "ratio",
       "untraced=" + std::to_string(plain_qps) + " traced=" + std::to_string(traced_qps)},
      {"trace.spans", static_cast<double>(tracer.spans().size()), "count",
       "requests_dropped=" + std::to_string(tracer.dropped_requests())},
  };

  std::printf("spans (duration p50 / self p50, ns):\n");
  for (const auto& [name, s] : spans) {
    std::printf("  %-40s n=%-9zu dur_p50=%-12.1f self_p50=%.1f\n", name.c_str(),
                s.duration_ns.size(), median(s.duration_ns), median(s.self_ns));
  }
  const std::string dump = opts.out_dir + "/spans-" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".tsv";
  if (!dump_spans(dump, {&tracer})) {
    checks.fail("could not write the span dump " + dump);
  } else {
    std::printf("span dump: %s\n", dump.c_str());
  }
  print_metrics("per-layer metrics (\"exact\" = repeats exactly for a seed):",
                metrics);
  std::printf("  %-40s %16.6f %-16s over the run, all CPUs\n",
              "host_steal_pct", steal_pct(start), "%");
  print_result(checks, traced.attempted, traced.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  Kind kind = Kind::kIntIngest;
  if (!parse_args(argc, argv, &opts) || !parse_kind(opts.workload, &kind)) {
    std::fprintf(stderr,
                 "usage: dta_perfbench --workload "
                 "<int_ingest|aggregate_ingest|serving|tenant_contention> "
                 "--seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
                 "[--src-digest <hex>] [--out-dir <dir>]\n");
    return 2;
  }
  std::printf("# dta perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace);
  std::printf("fingerprint %s\n", fingerprint(opts).c_str());
  const std::int64_t t0 = now_ns();
  Workload workload(kind, opts.seed);
  std::printf("inputs built in %.3f s (not part of setup_s)\n",
              static_cast<double>(now_ns() - t0) / 1e9);
  std::fflush(stdout);
  return opts.trace ? traced_run(opts, workload) : timed_run(opts, workload);
}
