// Closed-loop scaling benchmark: the src/load workload engine driving an
// increasing number of simulated clients against a fixed cluster to find
// the saturation knee. Each point stands up a fresh cluster, runs the
// seeded op-mix state machines (Zipf-skewed reads/writes, open/stat
// metadata traffic, create/remove churn) through ramp -> measure -> drain,
// and reports saturation throughput, p50/p99/p999 latency, and the Jain
// fairness index over per-client goodput. Below the knee, doubling the
// clients doubles the ops; past it, throughput is flat and every extra
// client shows up as tail latency instead.
//
// A second (non-smoke) sweep holds the client count at the saturating
// point and scales the iod count, showing the knee move with server
// capacity — the standing yardstick for iod-scheduler / caching / RDMA
// fast-path work, tracked across PRs via machine-readable BENCH_load.json.
// Identical seeds reproduce the JSON bit-for-bit.
#include <cstring>

#include "bench_common.h"
#include "load/load_engine.h"

namespace pvfsib::bench {
namespace {

struct Point {
  u32 clients = 0;
  u32 iods = 0;
  load::LoadSummary sum;
  // Set on --faults points only: which disturbance ran under the load
  // ("crash_flip" or "migration"), whether the scrubber was on, and how
  // many shard migrations completed.
  const char* fault = nullptr;
  int scrub = -1;
  i64 migrations = 0;
};

load::LoadConfig base_config(bool smoke) {
  load::LoadConfig lc;
  lc.seed = 42;
  lc.population = smoke ? 8 : 32;
  lc.file_bytes = smoke ? 64 * kKiB : 256 * kKiB;
  lc.io_min_bytes = 4 * kKiB;
  lc.io_max_bytes = smoke ? 16 * kKiB : 64 * kKiB;
  lc.ramp = smoke ? Duration::ms(5.0) : Duration::ms(20.0);
  lc.measure = smoke ? Duration::ms(40.0) : Duration::ms(200.0);
  lc.start_jitter = smoke ? Duration::ms(2.0) : Duration::ms(5.0);
  lc.interval = smoke ? Duration::ms(10.0) : Duration::ms(20.0);
  return lc;
}

Point run_point(u32 clients, u32 iods, u32 shards, const load::LoadConfig& lc) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  // Metadata service queues on a real per-manager CPU so the metadata leg
  // of the mix saturates honestly alongside the iods.
  cfg.pvfs.meta_cpu_queue = true;
  pvfs::Cluster cluster(cfg, pvfs::Cluster::Topology{}
                                 .clients(clients)
                                 .iods(iods)
                                 .metadata_shards(shards));
  load::LoadEngine engine(cluster, lc);
  Point pt;
  pt.clients = clients;
  pt.iods = iods;
  pt.sum = engine.run();
  return pt;
}

std::string us(Duration d) { return fmt(d.as_us(), 1); }

void table_row(Table& t, const Point& pt) {
  const load::LoadSummary& s = pt.sum;
  t.row({fmt_int(pt.clients), fmt_int(pt.iods), fmt_int(s.ops),
         fmt(s.ops_per_s / 1000.0, 1), fmt(s.mib_per_s, 1),
         us(s.latency.quantile(0.50)), us(s.latency.quantile(0.99)),
         us(s.latency.quantile(0.999)), fmt(s.fairness, 3),
         s.ok ? "ok" : "FAILED"});
}

// pt.scrub < 0: plain sweep point; 0/1: a --faults point, with the flag.
void json_point(JsonWriter& j, const Point& pt) {
  const load::LoadSummary& s = pt.sum;
  j.begin_object();
  j.field("clients", pt.clients);
  j.field("iods", pt.iods);
  if (pt.scrub >= 0) j.field("scrub", pt.scrub != 0);
  if (pt.fault != nullptr) {
    j.field("fault", pt.fault);
    j.field("migrations", pt.migrations);
  }
  j.field("ok", s.ok);
  j.field("ops", s.ops);
  j.field("data_ops", s.data_ops);
  j.field("meta_ops", s.meta_ops);
  j.field("bytes", s.bytes);
  j.field("ops_per_s", s.ops_per_s, 3);
  j.field("mib_per_s", s.mib_per_s, 3);
  j.field("p50_us", s.latency.quantile(0.50).as_us(), 3);
  j.field("p99_us", s.latency.quantile(0.99).as_us(), 3);
  j.field("p999_us", s.latency.quantile(0.999).as_us(), 3);
  j.field("mean_us", s.latency.mean().as_us(), 3);
  j.field("max_us", s.latency.max().as_us(), 3);
  j.field("data_p99_us", s.data_latency.quantile(0.99).as_us(), 3);
  j.field("meta_p99_us", s.meta_latency.quantile(0.99).as_us(), 3);
  j.field("fairness", s.fairness, 6);
  j.begin_array("intervals");
  for (const load::LoadSummary::Interval& w : s.intervals) {
    j.begin_object();
    j.field("start_ms", w.start_ms, 3);
    j.field("end_ms", w.end_ms, 3);
    j.field("ops", w.ops);
    j.field("bytes", w.bytes);
    j.field("pvfs_requests", w.pvfs_requests);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

// --- Client-cache re-read sweep (--cache) ----------------------------------

struct CachePoint {
  u64 cache_bytes = 0;  // 0 = uncached baseline, same seed
  load::LoadSummary sum;
  i64 hits = 0;
  i64 misses = 0;
  i64 invalidations = 0;
  i64 lease_revokes = 0;
  i64 wire_requests = 0;

  double hit_rate() const {
    const i64 total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

// One closed-loop point with the client caching tier at `cache_bytes` of
// data capacity (0 = cache off: the uncached baseline every other point is
// compared against). The workload pins data ops to slot 0
// (cacheable_reads), so Zipf re-reads of a popular file repeat the same
// range — the traffic shape the attribute and data caches exist for.
CachePoint run_cache_point(u32 clients, u32 iods, u32 shards,
                           const load::LoadConfig& lc, u64 cache_bytes) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.pvfs.meta_cpu_queue = true;
  if (cache_bytes > 0) {
    cfg.cache.enabled = true;
    cfg.cache.leases = true;
    cfg.cache.data_capacity = cache_bytes;
  }
  pvfs::Cluster cluster(cfg, pvfs::Cluster::Topology{}
                                 .clients(clients)
                                 .iods(iods)
                                 .metadata_shards(shards));
  CachePoint pt;
  pt.cache_bytes = cache_bytes;
  load::LoadEngine engine(cluster, lc);
  pt.sum = engine.run();
  pt.hits = cluster.stats().get(stat::kPvfsCacheHits);
  pt.misses = cluster.stats().get(stat::kPvfsCacheMisses);
  pt.invalidations = cluster.stats().get(stat::kPvfsCacheInvalidations);
  pt.lease_revokes = cluster.stats().get(stat::kPvfsCacheLeaseRevokes);
  pt.wire_requests = cluster.stats().get(stat::kPvfsRequest);
  return pt;
}

// --- The same closed loop under fire (--faults) ---------------------------

// One sweep point with a seeded fault schedule landing mid-measure: iod 0
// crashes for 10 ms at the midpoint, and a burst of bit flips lands at
// rest on iod 1 right after the window closes (one chain member only —
// the recoverable regime). Factor 2 with write quorum 1 keeps every op
// completing through the outage (reads fail over, writes settle on the
// survivor), so the damage shows up where it belongs: in the tail. Run
// once with the scrubber off (every read of a rotten stripe re-pays the
// corrupt failover) and once with it on (the sweep heals the copies and
// the tail recovers).
Point run_fault_point(u32 clients, u32 iods, u32 shards,
                      const load::LoadConfig& lc, bool scrub) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.pvfs.meta_cpu_queue = true;
  cfg.replication.factor = 2;
  cfg.replication.write_quorum = 1;
  cfg.replication.resync = true;
  cfg.fault.seed = 42;
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.backoff_cap = Duration::ms(2.0);
  cfg.fault.max_retries = 25;
  // Setup (population create + preload) runs before the load timeline
  // starts, so "mid-measure" in absolute time is approximate — a few ms of
  // setup drift moves the window within the measure interval, not out of
  // it.
  const TimePoint mid =
      TimePoint::origin() + lc.ramp + (lc.measure / 2);
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash, mid, /*target=*/0, Duration::ms(10.0)});
  for (int k = 0; k < 4; ++k) {
    cfg.fault.schedule.push_back(FaultEvent{
        FaultKind::kBitFlip,
        mid + Duration::ms(12.0) + Duration::ms(1.0) * static_cast<i64>(k),
        /*target=*/1, Duration::zero()});
  }

  pvfs::Cluster cluster(cfg, pvfs::Cluster::Topology{}
                                 .clients(clients)
                                 .iods(iods)
                                 .metadata_shards(shards));
  if (scrub) {
    cluster.start_scrub(TimePoint::origin() + lc.ramp + lc.measure +
                        Duration::ms(100.0));
  }
  load::LoadEngine engine(cluster, lc);
  Point pt;
  pt.clients = clients;
  pt.iods = iods;
  pt.sum = engine.run();
  pt.fault = "crash_flip";
  pt.scrub = scrub ? 1 : 0;
  return pt;
}

// A fault point where the disturbance is the control plane itself: shard 0
// migrates to a fresh manager at the measure midpoint while the closed loop
// runs. Every client that cached the old map eats a kWrongShard redirect
// and re-refreshes; the op mix must keep completing through the stream, the
// cutover fence, and the zombie-source drain. Works at any shard count —
// at K=1 the whole metadata plane changes hands mid-measure.
Point run_migration_fault_point(u32 clients, u32 iods, u32 shards,
                                const load::LoadConfig& lc) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.pvfs.meta_cpu_queue = true;
  cfg.replication.factor = 2;
  cfg.replication.write_quorum = 1;
  cfg.replication.resync = true;
  cfg.fault.seed = 42;
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.backoff_cap = Duration::ms(2.0);
  cfg.fault.max_retries = 25;
  // Small rounds so the stream overlaps a real slice of the measure window
  // instead of finishing inside one event.
  cfg.migration.round_bytes = 4 * kKiB;
  cfg.migration.stream_bandwidth = 50.0;

  pvfs::Cluster cluster(cfg, pvfs::Cluster::Topology{}
                                 .clients(clients)
                                 .iods(iods)
                                 .metadata_shards(shards));
  const TimePoint mid = TimePoint::origin() + lc.ramp + (lc.measure / 2);
  cluster.engine().schedule_at(
      mid, [&cluster, mid] { cluster.migrate_shard(0, mid); });
  load::LoadEngine engine(cluster, lc);
  Point pt;
  pt.clients = clients;
  pt.iods = iods;
  pt.sum = engine.run();
  pt.fault = "migration";
  pt.scrub = 0;
  pt.migrations = cluster.stats().get(stat::kPvfsShardMigrations);
  return pt;
}

void run(bool smoke, bool faults, bool cache) {
  const load::LoadConfig lc = base_config(smoke);
  const std::vector<u32> client_counts =
      smoke ? std::vector<u32>{2, 8} : std::vector<u32>{4, 16, 64, 192};
  const u32 iods = 4;
  const u32 shards = smoke ? 1 : 2;

  header("Closed-loop load scaling: throughput and tail latency vs clients",
         fmt_int(iods) + " iods, " + fmt_int(shards) +
             " metadata shard(s); each client runs a seeded op-mix state "
             "machine\n(40% read / 25% write / 15% open / 10% stat / 10% "
             "create-remove churn,\nZipf(0.99) file popularity, log-uniform "
             "4K..64K ops, half list I/O) in a\nclosed loop: ramp " +
             fmt(lc.ramp.as_ms(), 0) + " ms, measure " +
             fmt(lc.measure.as_ms(), 0) +
             " ms, then drain. Past the saturation\nknee, extra clients buy "
             "tail latency, not ops");

  Table t({"clients", "iods", "ops", "kop/s", "MiB/s", "p50 us", "p99 us",
           "p999 us", "fairness", "status"});
  std::vector<Point> points;
  for (u32 n : client_counts) {
    points.push_back(run_point(n, iods, shards, lc));
    table_row(t, points.back());
  }
  t.print();
  std::printf("\n");

  // Server-capacity sweep: the knee should move with the iod count.
  std::vector<Point> iod_points;
  if (!smoke) {
    const u32 at_clients = client_counts.back();
    header("Closed-loop load scaling: saturated clients vs iod count",
           fmt_int(at_clients) +
               " clients (past the knee above); more iods move the "
               "saturation\nceiling up until the metadata plane or the "
               "fabric takes over as the bottleneck");
    Table t2({"clients", "iods", "ops", "kop/s", "MiB/s", "p50 us", "p99 us",
              "p999 us", "fairness", "status"});
    for (u32 k : {2u, 4u, 8u}) {
      iod_points.push_back(run_point(at_clients, k, shards, lc));
      table_row(t2, iod_points.back());
    }
    t2.print();
    std::printf("\n");
  }

  std::vector<Point> fault_points;
  if (faults) {
    const u32 at_clients = smoke ? client_counts.back() : client_counts[1];
    header("Closed-loop load under fire: iod crash + corruption burst "
           "mid-measure",
           fmt_int(at_clients) +
               " clients, factor 2, write quorum 1. iod 0 crashes for 10 ms "
               "at the measure\nmidpoint; 4 bit flips land at rest on iod 1 "
               "right after. Every op still\ncompletes (reads fail over, "
               "writes settle on the survivor) — the damage is\nall tail. "
               "Scrubber off: each read of a rotten stripe re-pays the "
               "corrupt\nfailover. Scrubber on: the sweep heals the copies "
               "and the tail recovers.\nThird point: shard 0 of the "
               "metadata plane migrates to a fresh manager at the\nmeasure "
               "midpoint — redirects and the cutover fence land in the "
               "tail, not in\nfailed ops");
    Table tf({"clients", "iods", "fault", "scrub", "ops", "kop/s", "MiB/s",
              "p50 us", "p99 us", "p999 us", "fairness", "status"});
    auto fault_row = [&](const Point& pt) {
      const load::LoadSummary& s = pt.sum;
      tf.row({fmt_int(pt.clients), fmt_int(pt.iods), pt.fault,
              pt.scrub != 0 ? "on" : "off", fmt_int(s.ops),
              fmt(s.ops_per_s / 1000.0, 1), fmt(s.mib_per_s, 1),
              us(s.latency.quantile(0.50)), us(s.latency.quantile(0.99)),
              us(s.latency.quantile(0.999)), fmt(s.fairness, 3),
              s.ok ? "ok" : "FAILED"});
    };
    for (bool scrub : {false, true}) {
      fault_points.push_back(
          run_fault_point(at_clients, iods, shards, lc, scrub));
      fault_row(fault_points.back());
    }
    // Third point: the disturbance is the metadata plane migrating out
    // from under the closed loop (shard 0 changes owners mid-measure).
    fault_points.push_back(
        run_migration_fault_point(at_clients, iods, shards, lc));
    fault_row(fault_points.back());
    tf.print();
    std::printf("\n");
  }

  // Cache sweep (--cache): the same seeded closed loop, read-leaning and
  // with data ops pinned to each file's slot 0 so Zipf re-reads repeat the
  // same byte ranges, run uncached once and then at growing client-cache
  // data capacities. Hits complete without touching the wire, so the hit
  // rate shows up directly as throughput and as a drop in pvfs.requests.
  std::vector<CachePoint> cache_points;
  load::LoadConfig cache_lc = lc;
  if (cache) {
    cache_lc.cacheable_reads = true;
    cache_lc.mix.read = 0.60;
    cache_lc.mix.write = 0.10;
    cache_lc.mix.open = 0.15;
    cache_lc.mix.stat = 0.10;
    cache_lc.mix.churn = 0.05;
    const u32 at_clients = smoke ? client_counts.back() : client_counts[1];
    const std::vector<u64> capacities =
        smoke ? std::vector<u64>{0, 64 * kKiB, 256 * kKiB, 1 * kMiB}
              : std::vector<u64>{0, 256 * kKiB, 1 * kMiB, 4 * kMiB};
    header("Client caching tier: Zipf re-read sweep vs cache capacity",
           fmt_int(at_clients) +
               " clients, read-leaning mix (60% read / 10% write), data ops "
               "pinned to\nslot 0 so popular files re-read the same range. "
               "Row one is the uncached\nbaseline at the same seed; growing "
               "the per-client data cache turns Zipf\nre-reads into local "
               "hits — fewer wire requests, more ops");
    Table tc({"cache KiB", "hit rate", "ops", "kop/s", "MiB/s", "p50 us",
              "p99 us", "wire reqs", "status"});
    for (u64 cap : capacities) {
      cache_points.push_back(
          run_cache_point(at_clients, iods, shards, cache_lc, cap));
      const CachePoint& cp = cache_points.back();
      const load::LoadSummary& s = cp.sum;
      tc.row({cp.cache_bytes == 0 ? std::string("off")
                                  : fmt_int(cp.cache_bytes / kKiB),
              fmt(cp.hit_rate(), 3), fmt_int(s.ops),
              fmt(s.ops_per_s / 1000.0, 1), fmt(s.mib_per_s, 1),
              us(s.latency.quantile(0.50)), us(s.latency.quantile(0.99)),
              fmt_int(cp.wire_requests), s.ok ? "ok" : "FAILED"});
    }
    tc.print();
    std::printf("\n");
  }

  JsonWriter j;
  j.field("bench", "load_harness");
  j.field("smoke", smoke);
  j.begin_object("config");
  j.field("seed", lc.seed);
  j.field("iods", iods);
  j.field("metadata_shards", shards);
  j.field("population", lc.population);
  j.field("file_bytes", lc.file_bytes);
  j.field("zipf_theta", lc.zipf_theta, 3);
  j.field("ramp_ms", lc.ramp.as_ms(), 3);
  j.field("measure_ms", lc.measure.as_ms(), 3);
  j.field("interval_ms", lc.interval.as_ms(), 3);
  j.end_object();
  j.begin_array("points");
  for (const Point& pt : points) json_point(j, pt);
  j.end_array();
  j.begin_array("iod_points");
  for (const Point& pt : iod_points) json_point(j, pt);
  j.end_array();
  if (faults) {
    j.begin_array("fault_points");
    for (const Point& pt : fault_points) json_point(j, pt);
    j.end_array();
  }
  if (cache) {
    j.begin_object("cache");
    j.field("clients", smoke ? client_counts.back() : client_counts[1]);
    j.field("iods", iods);
    j.field("zipf_theta", cache_lc.zipf_theta, 3);
    j.begin_array("points");
    for (const CachePoint& cp : cache_points) {
      const load::LoadSummary& s = cp.sum;
      j.begin_object();
      j.field("cache_bytes", cp.cache_bytes);
      j.field("ok", s.ok);
      j.field("hit_rate", cp.hit_rate(), 6);
      j.field("hits", cp.hits);
      j.field("misses", cp.misses);
      j.field("invalidations", cp.invalidations);
      j.field("lease_revokes", cp.lease_revokes);
      j.field("wire_requests", cp.wire_requests);
      j.field("ops", s.ops);
      j.field("bytes", s.bytes);
      j.field("ops_per_s", s.ops_per_s, 3);
      j.field("mib_per_s", s.mib_per_s, 3);
      j.field("p50_us", s.latency.quantile(0.50).as_us(), 3);
      j.field("p99_us", s.latency.quantile(0.99).as_us(), 3);
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  j.write_file("BENCH_load.json");
}

}  // namespace
}  // namespace pvfsib::bench

int main(int argc, char** argv) {
  bool smoke = false;
  bool faults = false;
  bool cache = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--faults") == 0) faults = true;
    if (std::strcmp(argv[i], "--cache") == 0) cache = true;
  }
  pvfsib::bench::run(smoke, faults, cache);
  return 0;
}
