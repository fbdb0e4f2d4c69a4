// Figure 10: Key-Write collection rates vs redundancy level, for 4B
// INT-XD/MX postcards and 20B INT-MD 5-hop path traces.
//
// For each (N, payload) configuration the bench (1) drives the real
// translator -> RoCE -> NIC path to verify verbs/report == N and to
// measure the software rate this machine sustains, and (2) prints the
// modeled-hardware rate, where the BlueField-2-class message rate is the
// binding resource (the paper's bottleneck).
// The layer ledger replays the same reports through one standalone
// shard with and without its secondary index, to price index
// maintenance per report.
// The sharded sweep at the bottom drives the dta::Client facade over a
// LocalBackend (sharded CollectorRuntime): shard counts 1/2/4/8 x
// op-batch sizes, reporting the aggregate modeled ops/s (per-shard NIC
// message units add) next to the software rate.
//
// Flags:
//   --smoke           scaled-down report counts for CI smoke runs (does
//                     not write BENCH_fig10.json — the bench gate reads
//                     full-length runs only)
//   --replay <path>   first replay a committed .dtatrace through the
//                     fig10 store geometry and fail on any rejection
#include <algorithm>
#include <cstring>

#include "analysis/hw_model.h"
#include "bench_util.h"
#include "collector/index_publisher.h"
#include "collector/shard.h"
#include "dtalib/client.h"
#include "dtalib/fabric.h"
#include "dtalib/replay_backend.h"
#include "telemetry/report_trace.h"

using namespace dta;

namespace {

struct Measurement {
  double software_rate;
  double verbs_per_report;
};

Measurement run(unsigned redundancy, unsigned value_bytes,
                std::uint32_t reports) {
  FabricConfig config;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 20;
  kw.value_bytes = value_bytes;
  config.keywrite = kw;
  Fabric fabric(config);

  // Pre-build the parsed reports so the measured loop is translation +
  // RoCE crafting + NIC execution only.
  std::vector<proto::ParsedDta> parsed;
  parsed.reserve(reports);
  for (std::uint32_t i = 0; i < reports; ++i) {
    common::Bytes data(value_bytes);
    common::store_u32(data.data(), i);
    parsed.push_back(reports::keywrite(
        benchutil::mixed_key(i), common::ByteSpan(data),
        static_cast<std::uint8_t>(redundancy)));
  }

  benchutil::WallTimer timer;
  for (const auto& p : parsed) fabric.report_direct(p);
  const double seconds = timer.seconds();

  Measurement m;
  m.software_rate = reports / seconds;
  m.verbs_per_report =
      static_cast<double>(fabric.collector().stats().verbs_executed) /
      reports;
  return m;
}

struct ShardedMeasurement {
  double aggregate_modeled;  // sum of per-shard NIC modeled rates
  double software_rate;
  double ops_per_doorbell;
};

ShardedMeasurement run_sharded(std::uint32_t shards, std::uint32_t batch,
                               std::uint32_t report_count) {
  collector::CollectorRuntimeConfig config;
  config.num_shards = shards;
  config.op_batch_size = batch;
  config.thread_mode = collector::ThreadMode::kAuto;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 20;  // total across shards
  kw.value_bytes = 4;
  config.keywrite = kw;
  Client client = Client::local(config);

  std::vector<proto::ParsedDta> prebuilt;
  prebuilt.reserve(report_count);
  for (std::uint32_t i = 0; i < report_count; ++i) {
    prebuilt.push_back(reports::keywrite_u32(benchutil::mixed_key(i), i));
  }

  benchutil::WallTimer timer;
  for (const auto& p : prebuilt) (void)client.backend().submit(p, {});
  (void)client.flush();
  const double seconds = timer.seconds();
  client.stop();

  const auto stats = client.stats();
  ShardedMeasurement m;
  m.aggregate_modeled = client.modeled_verbs_per_sec();
  m.software_rate = report_count / seconds;
  m.ops_per_doorbell =
      stats.ingest.batch_flushes == 0
          ? 0.0
          : static_cast<double>(stats.ingest.ops_batched) /
                static_cast<double>(stats.ingest.batch_flushes);
  return m;
}

// Hot-path ablation: the same report stream through the sharded
// runtime with the fast paths toggled. wire = per-report submit with
// RoCE craft + NIC parse per verb; direct = per-report submit with the
// crafterless verb-execution path; batched = submit_batch (one
// interleaved CRC routing pass, SoA op blocks) on top of direct.
struct HotPathAblation {
  double wire_rate = 0.0;
  double direct_rate = 0.0;
  double batched_rate = 0.0;
};

HotPathAblation run_hot_path_ablation(std::uint32_t report_count) {
  auto run = [&](bool direct, bool batched) {
    collector::CollectorRuntimeConfig config;
    config.num_shards = 2;
    config.op_batch_size = 16;
    config.thread_mode = collector::ThreadMode::kInline;
    config.direct_execution = direct;
    collector::KeyWriteSetup kw;
    kw.num_slots = 1 << 20;
    kw.value_bytes = 4;
    config.keywrite = kw;
    collector::CollectorRuntime runtime(config);

    std::vector<proto::ParsedDta> prebuilt;
    prebuilt.reserve(report_count);
    for (std::uint32_t i = 0; i < report_count; ++i) {
      prebuilt.push_back(reports::keywrite_u32(benchutil::mixed_key(i), i));
    }

    constexpr std::uint32_t kChunk = 1024;
    benchutil::WallTimer timer;
    if (batched) {
      for (std::uint32_t at = 0; at < report_count; at += kChunk) {
        const std::uint32_t n = std::min(kChunk, report_count - at);
        std::vector<proto::ParsedDta> chunk(prebuilt.begin() + at,
                                            prebuilt.begin() + at + n);
        runtime.submit_batch(std::move(chunk));
      }
    } else {
      for (const auto& p : prebuilt) runtime.submit(p);
    }
    runtime.flush();
    const double rate = report_count / timer.seconds();
    runtime.stop();
    return rate;
  };

  HotPathAblation out;
  out.wire_rate = run(false, false);
  out.direct_rate = run(true, false);
  out.batched_rate = run(true, true);
  return out;
}

// Layer ledger: the same Key-Write reports replayed through a
// standalone CollectorShard (translate, dirty marking, verb execution),
// once bare and once with an IndexPublisher sink at the runtime's
// default index config. The difference is what index maintenance adds
// to shard ingest per report. The two replays alternate, five times
// each, and each side keeps its fastest, so host drift hits both alike.
struct LayerLedger {
  double shard_ingest_ns = 0.0;
  double index_ingest_ns = 0.0;
  // Ingest rate with the index / rate without it.
  double index_ingest_retained = 0.0;
};

LayerLedger run_layer_ledger(std::uint32_t report_count) {
  std::vector<proto::ParsedDta> prebuilt;
  prebuilt.reserve(report_count);
  for (std::uint32_t i = 0; i < report_count; ++i) {
    prebuilt.push_back(reports::keywrite_u32(benchutil::mixed_key(i), i));
  }
  const collector::CollectorRuntimeConfig defaults;
  const auto replay_ns = [&](bool with_index) {
    collector::ShardConfig config;
    config.op_batch_size = defaults.op_batch_size;
    collector::KeyWriteSetup kw;
    kw.num_slots = 1 << 20;
    kw.value_bytes = 4;
    config.keywrite = kw;
    collector::CollectorShard shard(0, config);
    collector::IndexPublisherConfig index_config;
    index_config.publish_batch = defaults.index_publish_batch;
    index_config.target_leaf_entries = defaults.index_leaf_entries;
    collector::IndexPublisher publisher(1, index_config);
    if (with_index) shard.set_index_sink(&publisher);
    benchutil::WallTimer timer;
    for (const auto& p : prebuilt) shard.ingest(p);
    shard.flush();
    return timer.seconds() * 1e9 / report_count;
  };
  double bare_ns = replay_ns(false);
  double indexed_ns = replay_ns(true);
  for (int rep = 1; rep < 5; ++rep) {
    bare_ns = std::min(bare_ns, replay_ns(false));
    indexed_ns = std::min(indexed_ns, replay_ns(true));
  }
  LayerLedger out;
  out.shard_ingest_ns = bare_ns;
  out.index_ingest_ns = indexed_ns - bare_ns;
  out.index_ingest_retained = bare_ns / indexed_ns;
  return out;
}

// Machine-readable output: the ablation ratios and the index retention
// ratio are the CI regression gate (ratios, not absolute rates, so the
// gate is portable across runner hardware); the rates and the layer
// ledger's per-report costs ride along as data.
void write_bench_json(const HotPathAblation& ablation,
                      const LayerLedger& ledger) {
  FILE* json = std::fopen("BENCH_fig10.json", "w");
  if (!json) return;
  std::fprintf(json,
               "{\n  \"ablation\": {\"wire_rate\": %.1f, "
               "\"direct_rate\": %.1f, \"batched_rate\": %.1f},\n",
               ablation.wire_rate, ablation.direct_rate,
               ablation.batched_rate);
  std::fprintf(json,
               "  \"layers\": {\"shard_ingest_ns\": %.1f, "
               "\"index_ingest_ns\": %.1f},\n",
               ledger.shard_ingest_ns, ledger.index_ingest_ns);
  std::fprintf(json,
               "  \"gate\": {\n"
               "    \"direct_ingest_speedup\": %.3f,\n"
               "    \"batched_ingest_speedup\": %.3f,\n"
               "    \"index_ingest_retained\": %.3f\n  }\n}\n",
               ablation.direct_rate / ablation.wire_rate,
               ablation.batched_rate / ablation.wire_rate,
               ledger.index_ingest_retained);
  std::fclose(json);
  std::printf("\nwrote BENCH_fig10.json\n");
}

// Replays a committed .dtatrace (see gen_golden_trace) through the
// fig10 single-shard Key-Write store: the CI replay-smoke proof that a
// trace recorded by the ReplayBackend drives the real ingest path
// end to end. Returns nonzero on any decode error or rejected record.
int run_replay(const std::string& path) {
  benchutil::print_header("Replay smoke — committed trace vs fig10 store",
                          "trace-driven ingest; every record must be "
                          "accepted");
  const auto records = telemetry::read_trace_file(path);
  if (!records.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 records.status().to_string().c_str());
    return 1;
  }

  collector::CollectorRuntimeConfig config;
  config.num_shards = 1;
  config.thread_mode = collector::ThreadMode::kInline;
  collector::KeyWriteSetup kw;
  kw.num_slots = 1 << 20;
  kw.value_bytes = 4;
  config.keywrite = kw;
  Client client = Client::local(config);

  benchutil::WallTimer timer;
  const Status status = ReplayBackend::replay(records.value(), client.backend());
  const double seconds = timer.seconds();
  if (!status.ok()) {
    std::fprintf(stderr, "replay rejected: %s\n", status.to_string().c_str());
    return 1;
  }

  const auto stats = client.stats();
  std::printf("%s: %zu records replayed in %.3fs (%s reports/s), "
              "%llu ingested\n",
              path.c_str(), records.value().size(), seconds,
              benchutil::eng(records.value().size() / seconds).c_str(),
              static_cast<unsigned long long>(stats.ingest.reports_in));
  if (stats.ingest.reports_in != records.value().size()) {
    std::fprintf(stderr, "ingest count mismatch: %llu != %zu\n",
                 static_cast<unsigned long long>(stats.ingest.reports_in),
                 records.value().size());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string replay_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--replay <trace>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!replay_path.empty()) {
    if (int rc = run_replay(replay_path)) return rc;
  }
  const std::uint32_t scale = smoke ? 10 : 1;

  benchutil::print_header(
      "Figure 10 — Key-Write collection rate vs redundancy",
      "N=1 ~105M reports/s, halving per redundancy step; rate unaffected "
      "by payload size until line rate (16B+)");

  analysis::HwParams hw;
  for (unsigned value_bytes : {4u, 20u}) {
    std::printf("\n%uB payloads (%s):\n", value_bytes,
                value_bytes == 4 ? "INT postcards" : "5-hop path tracing");
    std::printf("%4s %16s %16s %14s\n", "N", "modeled-hw", "software",
                "verbs/report");
    for (unsigned n = 1; n <= 4; ++n) {
      const auto m = run(n, value_bytes, 200000 / n / scale);
      const double modeled = analysis::kw_collection_rate(hw, n, value_bytes);
      std::printf("%4u %16s %16s %14.2f\n", n,
                  benchutil::eng(modeled).c_str(),
                  benchutil::eng(m.software_rate).c_str(),
                  m.verbs_per_report);
    }
  }
  std::printf("\nmodeled-hw: min(100G ingress, NIC message rate / N); the "
              "linear 1/N relationship and size-insensitivity are the "
              "reproduced shape.\n");

  std::printf("\nSharded collector runtime (N=2, 4B payloads) — aggregate "
              "ops/s vs shard count and op-batch size:\n");
  std::printf("%8s %8s %18s %16s %14s\n", "shards", "batch", "aggregate-ops/s",
              "software", "ops/doorbell");
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (std::uint32_t batch : {1u, 16u}) {
      const auto m = run_sharded(shards, batch, 100000 / scale);
      std::printf("%8u %8u %18s %16s %14.2f\n", shards, batch,
                  benchutil::eng(m.aggregate_modeled).c_str(),
                  benchutil::eng(m.software_rate).c_str(),
                  m.ops_per_doorbell);
    }
  }
  std::printf("\naggregate-ops/s: sum of per-shard NIC message units — each "
              "shard owns an independent NIC + QP, so modeled collection "
              "capacity scales linearly with shards (the paper's "
              "collector-scaling claim); ops/doorbell shows the per-op "
              "delivery overhead amortized by batching.\n");

  const auto ablation = run_hot_path_ablation(200000 / scale);
  std::printf("\nHot-path ablation (2 shards, N=2, 4B payloads, software "
              "reports/s):\n");
  std::printf("  wire (craft + parse per verb)   %12s\n",
              benchutil::eng(ablation.wire_rate).c_str());
  std::printf("  direct verb execution           %12s  (%5.2fx)\n",
              benchutil::eng(ablation.direct_rate).c_str(),
              ablation.direct_rate / ablation.wire_rate);
  std::printf("  + batched submit (SoA blocks)   %12s  (%5.2fx)\n",
              benchutil::eng(ablation.batched_rate).c_str(),
              ablation.batched_rate / ablation.wire_rate);

  const auto ledger = run_layer_ledger(200000 / scale);
  std::printf("\nLayer ledger (1 shard, N=2, 4B payloads, ns/report):\n");
  std::printf("  shard ingest (translate + verbs) %10.1f\n",
              ledger.shard_ingest_ns);
  std::printf("  + index maintenance              %10.1f  (rate retained "
              "%.2f)\n",
              ledger.index_ingest_ns, ledger.index_ingest_retained);
  if (!smoke) write_bench_json(ablation, ledger);
  return 0;
}
