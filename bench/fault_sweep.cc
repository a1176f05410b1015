// Fault sweep: the Figure 6/7 block-column workloads (4 procs x 4 iods,
// list I/O + ADS, N=2048) run against an increasingly hostile fabric, plus
// a crash-restart availability sweep comparing replication factor 1 to 2.
//
// Section 1/2: request/reply drops, transport retransmits and injected
// completion errors all scale with one fault rate; the recovery layer
// (per-round timeouts, exponential backoff, idempotent replay) keeps the
// data correct and these tables show what that costs for writes and reads:
// goodput and p50/p99 round latency vs rate, plus the recovery counters.
//
// Section 3: one iod crashes and restarts after a mean-time-to-repair; a
// stream of strided operations pinned to that iod measures the fraction
// that still complete. At factor 1 availability degrades with MTTR as soon
// as the outage outlives the retry budget; at factor 2 writes settle on the
// surviving replica's ack (write_quorum 1) and reads fail over, so
// availability stays flat.
//
// Every row is deterministic: the injector's draws are a pure function of
// the seed and the engine's event order, so re-running the sweep reproduces
// it bit-for-bit. `--smoke` shrinks every axis for CI (asan) runs.
#include <algorithm>
#include <cstring>

#include "bench_common.h"
#include "sim/trace.h"

namespace pvfsib::bench {
namespace {

struct SweepPoint {
  double rate = 0.0;
  RunOutcome outcome;
  Duration p50 = Duration::zero();
  Duration p99 = Duration::zero();
  i64 retries = 0;
  i64 timeouts = 0;
  i64 replays_deduped = 0;
  i64 injected = 0;
};

Duration percentile(std::vector<Duration> samples, double p) {
  if (samples.empty()) return Duration::zero();
  std::sort(samples.begin(), samples.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[idx];
}

SweepPoint run_point(double rate, bool is_write, u64 n) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.seed = 42;
  cfg.fault.request_drop_rate = rate;
  cfg.fault.reply_drop_rate = rate;
  cfg.fault.retransmit_rate = rate;
  cfg.fault.completion_error_rate = rate / 2.0;
  // The timeout must clear the worst-case *healthy* round: a staging-sized
  // disk phase is ~64 ms and four clients can queue behind one disk, so
  // 400 ms separates "slow" from "lost". Detection latency, not the retry
  // itself, is what a drop costs.
  cfg.fault.round_timeout = Duration::ms(400.0);
  cfg.fault.backoff_base = Duration::ms(1.0);
  cfg.fault.backoff_cap = Duration::ms(50.0);
  cfg.fault.max_retries = 10;

  pvfs::Cluster cluster(cfg, 4, 4);
  SweepPoint pt;
  pt.rate = rate;
  pt.outcome = run_block_column(cluster, n, mpiio::IoMethod::kListIoAds,
                                is_write, /*sync=*/false,
                                /*cold_cache=*/false);
  pt.p50 = percentile(cluster.faults().round_latencies(), 0.50);
  pt.p99 = percentile(cluster.faults().round_latencies(), 0.99);
  const Stats& s = cluster.stats();
  pt.retries = s.get(stat::kPvfsRetries);
  pt.timeouts = s.get(stat::kPvfsTimeouts);
  pt.replays_deduped = s.get(stat::kPvfsReplaysDeduped);
  pt.injected = s.get(stat::kFaultRequestDrop) + s.get(stat::kFaultReplyDrop) +
                s.get(stat::kFaultRetransmit) +
                s.get(stat::kFaultCompletionError);
  return pt;
}

std::vector<SweepPoint> run_rate_sweep(bool is_write,
                                       const std::vector<double>& rates,
                                       u64 n) {
  Table t({"rate", "goodput MB/s", "p50 round", "p99 round", "injected",
           "timeouts", "retries", "deduped", "ok"});
  std::vector<SweepPoint> points;
  for (double rate : rates) {
    const SweepPoint pt = run_point(rate, is_write, n);
    t.row({fmt(rate, 4), fmt(pt.outcome.mbps, 1),
           pt.p50 == Duration::zero() ? "-" : pt.p50.to_string(),
           pt.p99 == Duration::zero() ? "-" : pt.p99.to_string(),
           fmt_int(pt.injected), fmt_int(pt.timeouts), fmt_int(pt.retries),
           fmt_int(pt.replays_deduped), pt.outcome.ok ? "yes" : "NO"});
    points.push_back(pt);
  }
  t.print();
  std::printf("\n");
  return points;
}

// --- Crash-restart availability vs MTTR ----------------------------------

struct AvailPoint {
  u32 ok = 0;
  u32 total = 0;
  i64 retries = 0;
  i64 failovers = 0;
  i64 replica_writes = 0;
  i64 quorum_waits = 0;
};

// One client, four iods, a file pinned to base iod 0 (the one that
// crashes). `ops` strided operations start at fixed virtual times spaced
// so a healthy op finishes well before the next begins; the crash window
// [crash_at, crash_at + mttr) sweeps across the stream. The retry budget
// (timeout 5 ms, backoff 1..8 ms, 4 retries, ~35 ms total) decides which
// factor-1 ops ride out the outage; factor 2 survives by construction.
AvailPoint run_avail(Duration mttr, u32 factor, bool is_write, u32 ops) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.replication.factor = factor;
  // Writes settle on the first surviving ack (availability over
  // durability); reads need every replica written, so the preload fans to
  // all of them.
  cfg.replication.write_quorum = is_write ? 1 : 0;
  cfg.fault.seed = 42;
  cfg.fault.round_timeout = Duration::ms(5.0);
  cfg.fault.backoff_base = Duration::ms(1.0);
  cfg.fault.backoff_mult = 2.0;
  cfg.fault.backoff_cap = Duration::ms(8.0);
  cfg.fault.max_retries = 4;
  const TimePoint crash_at = TimePoint::origin() + Duration::ms(50.0);
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash, crash_at, /*target=*/0, mttr});

  pvfs::Cluster cluster(cfg, 1, 4);
  pvfs::Client& c = cluster.client(0);
  pvfs::OpenFile f = c.create("/avail", 64 * kKiB, 4, /*base_iod=*/0).value();

  // 128 x 2 KiB pieces at 8 KiB file stride: one list round per iod.
  const u64 pieces = 128, piece_len = 2048;
  core::ListIoRequest req;
  const u64 buf = c.memory().alloc(pieces * piece_len);
  std::memset(c.memory().data(buf), 0x5a, pieces * piece_len);
  for (u64 i = 0; i < pieces; ++i) {
    req.mem.push_back({buf + i * piece_len, piece_len});
    req.file.push_back({i * 4 * piece_len, piece_len});
  }

  // Preload the whole strided span contiguously while everything is
  // healthy: reads have real data on every replica, and the strided ops'
  // RMW reads hit the page cache (a cold sieve read from media would
  // outlive the 5 ms round timeout on its own). The crash window opens
  // long after this lands.
  const u64 span = pieces * 4 * piece_len;
  pvfs::IoResult pre = c.write(f, 0, c.memory().alloc(span), span);
  if (!pre.ok()) return {};

  // Submit each op from an engine event at its start time (rather than all
  // up front): the fabric computes wire occupancy in call order, so sends
  // must be issued in nondecreasing virtual time. The grid starts at the
  // origin, which the preload has already passed — clamp to the engine
  // clock (only op 0 is affected, milliseconds before the crash window).
  const Duration spacing = Duration::ms(40.0);
  std::vector<pvfs::IoHandle> handles(ops);
  for (u32 k = 0; k < ops; ++k) {
    const TimePoint at =
        max(TimePoint::origin() + spacing * static_cast<i64>(k),
            cluster.engine().now());
    cluster.engine().schedule_at(at, [&, k, at] {
      pvfs::IoDesc d;
      d.dir = is_write ? pvfs::IoDir::kWrite : pvfs::IoDir::kRead;
      d.file = f;
      d.req = req;
      d.start = at;
      handles[k] = c.submit(d);
    });
  }
  cluster.run();

  AvailPoint pt;
  pt.total = ops;
  for (const pvfs::IoHandle& h : handles) {
    if (h.poll() && h.result().ok()) ++pt.ok;
  }
  const Stats& s = cluster.stats();
  pt.retries = s.get(stat::kPvfsRetries);
  pt.failovers = s.get(stat::kPvfsFailovers);
  pt.replica_writes = s.get(stat::kPvfsReplicaWrites);
  pt.quorum_waits = s.get(stat::kPvfsQuorumWaits);
  return pt;
}

void run_avail_sweep(const std::vector<Duration>& mttrs, u32 ops) {
  Table t({"MTTR", "dir", "factor", "ok/total", "availability", "retries",
           "failovers", "replica wr", "quorum waits"});
  for (Duration mttr : mttrs) {
    for (bool is_write : {true, false}) {
      for (u32 factor : {1u, 2u}) {
        const AvailPoint pt = run_avail(mttr, factor, is_write, ops);
        t.row({mttr.to_string(), is_write ? "write" : "read",
               fmt_int(factor),
               fmt_int(pt.ok) + "/" + fmt_int(pt.total),
               fmt(pt.total == 0 ? 0.0
                                 : static_cast<double>(pt.ok) /
                                       static_cast<double>(pt.total),
                   2),
               fmt_int(pt.retries), fmt_int(pt.failovers),
               fmt_int(pt.replica_writes), fmt_int(pt.quorum_waits)});
      }
    }
  }
  t.print();
  std::printf("\n");
}

// --- Availability vs manager MTTR: standby takeover on and off ------------

struct MgrPoint {
  u32 ok = 0;
  u32 total = 0;
  i64 meta_retries = 0;
  i64 meta_failovers = 0;
  i64 takeovers = 0;
  i64 epoch_rejections = 0;
};

// Two clients, two iods. Client 0 runs a metadata-heavy stream: every
// 40 ms, create a fresh file and put one small replicated write through
// it. Client 1 only writes to a file created up front, so its first
// post-takeover version mint — not a metadata request — is what discovers
// the demoted authority. The manager crashes at 50 ms and restarts after
// MTTR. Without a standby, ops issued inside the window ride on the
// ~35 ms retry budget alone, so availability collapses once MTTR outlives
// it. With a standby the takeover promotes 2 ms into the window: client
// 0's metadata fails over (pvfs.meta_failovers), client 1's mint is
// re-targeted by the epoch fence (pvfs.epoch_rejections), and
// availability stays flat no matter how long the old primary stays dead.
MgrPoint run_mgr_avail(Duration mttr, bool takeover, u32 ops) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.replication.factor = 2;
  cfg.fault.seed = 42;
  cfg.fault.round_timeout = Duration::ms(5.0);
  cfg.fault.backoff_base = Duration::ms(1.0);
  cfg.fault.backoff_mult = 2.0;
  cfg.fault.backoff_cap = Duration::ms(8.0);
  cfg.fault.max_retries = 4;
  cfg.fault.standby_takeover = takeover;
  cfg.fault.manager_takeover_delay = Duration::ms(2.0);
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kManagerCrash, TimePoint::origin() + Duration::ms(50.0),
      /*target=*/0, mttr});

  pvfs::Cluster cluster(cfg, 2, 2);
  pvfs::Client& c = cluster.client(0);
  pvfs::Client& c1 = cluster.client(1);
  const u64 len = 4 * kKiB;
  const u64 buf = c.memory().alloc(len);
  std::memset(c.memory().data(buf), 0x5a, len);
  const u64 buf1 = c1.memory().alloc(len);
  std::memset(c1.memory().data(buf1), 0xa5, len);
  pvfs::OpenFile shared =
      c1.create("/shared", 64 * kKiB, 1, /*base_iod=*/0).value();
  const Duration spacing = Duration::ms(40.0);
  std::vector<char> created(ops, 0);
  std::vector<pvfs::IoHandle> handles(ops);
  std::vector<pvfs::IoHandle> mints(ops);
  for (u32 k = 0; k < ops; ++k) {
    const TimePoint at = TimePoint::origin() + spacing * static_cast<i64>(k);
    cluster.engine().schedule_at(at, [&, k, at] {
      Result<pvfs::OpenFile> f =
          c.create("/m" + std::to_string(k), 64 * kKiB, 1, /*base_iod=*/0);
      if (!f.is_ok()) return;
      created[k] = 1;
      handles[k] = c.submit({pvfs::IoDir::kWrite, f.value(),
                             {{{buf, len}}, {{0, len}}}, {}, at});
    });
    const TimePoint mat = at + spacing / 2;
    cluster.engine().schedule_at(mat, [&, k, mat] {
      mints[k] = c1.submit({pvfs::IoDir::kWrite, shared,
                            {{{buf1, len}}, {{0, len}}}, {}, mat});
    });
  }
  cluster.run();

  MgrPoint pt;
  pt.total = 2 * ops;
  for (u32 k = 0; k < ops; ++k) {
    if (created[k] != 0 && handles[k].poll() && handles[k].result().ok()) {
      ++pt.ok;
    }
    if (mints[k].poll() && mints[k].result().ok()) ++pt.ok;
  }
  const Stats& s = cluster.stats();
  pt.meta_retries = s.get(stat::kPvfsMetaRetries);
  pt.meta_failovers = s.get(stat::kPvfsMetaFailovers);
  pt.takeovers = s.get(stat::kPvfsManagerTakeovers);
  pt.epoch_rejections = s.get(stat::kPvfsEpochRejections);
  return pt;
}

void run_mgr_avail_sweep(const std::vector<Duration>& mttrs, u32 ops) {
  Table t({"MTTR", "takeover", "ok/total", "availability", "meta retries",
           "meta failovers", "takeovers", "epoch rej"});
  for (Duration mttr : mttrs) {
    for (bool takeover : {false, true}) {
      const MgrPoint pt = run_mgr_avail(mttr, takeover, ops);
      t.row({mttr.to_string(), takeover ? "on" : "off",
             fmt_int(pt.ok) + "/" + fmt_int(pt.total),
             fmt(pt.total == 0 ? 0.0
                               : static_cast<double>(pt.ok) /
                                     static_cast<double>(pt.total),
                 2),
             fmt_int(pt.meta_retries), fmt_int(pt.meta_failovers),
             fmt_int(pt.takeovers), fmt_int(pt.epoch_rejections)});
    }
  }
  t.print();
  std::printf("\n");
}

// --- Sharded plane: one shard's manager dies, the others don't notice -----

struct ShardAvailPoint {
  std::vector<u32> ok;     // per shard
  std::vector<u32> total;  // per shard
  i64 meta_retries = 0;
  i64 meta_failovers = 0;
  i64 takeovers = 0;
};

// Smallest suffix that steers a bench file name onto `shard`.
std::string name_on_shard(u32 shard, u32 shards, u32 k) {
  for (u32 n = 0;; ++n) {
    std::string cand = "/sh" + std::to_string(shard) + "_" +
                       std::to_string(k) + "_" + std::to_string(n);
    if (pvfs::shard_of(cand, shards) == shard) return cand;
  }
}

// Four active manager shards; the one owning shard 1's names crashes at
// 50 ms for `mttr`. One client creates a file on every shard each 40 ms
// round. The blast radius is the point: shards 0/2/3 route to untouched
// managers and never retry, while shard 1 either rides the retry budget
// (takeover off — its ops inside the window fail once MTTR outlives
// ~35 ms) or fails over to its own standby (takeover on — nothing lost,
// and the other shards' epochs never move).
ShardAvailPoint run_shard_avail(Duration mttr, bool takeover, u32 ops) {
  constexpr u32 kShards = 4;
  constexpr u32 kCrashed = 1;
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.seed = 42;
  cfg.fault.round_timeout = Duration::ms(5.0);
  cfg.fault.backoff_base = Duration::ms(1.0);
  cfg.fault.backoff_mult = 2.0;
  cfg.fault.backoff_cap = Duration::ms(8.0);
  cfg.fault.max_retries = 4;
  cfg.fault.standby_takeover = takeover;
  cfg.fault.manager_takeover_delay = Duration::ms(2.0);
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kManagerCrash, TimePoint::origin() + Duration::ms(50.0),
      /*target=*/kCrashed, mttr});

  pvfs::Cluster cluster(
      cfg, pvfs::Cluster::Topology{}.clients(1).iods(2).metadata_shards(
          kShards));
  pvfs::Client& c = cluster.client(0);
  ShardAvailPoint pt;
  pt.ok.assign(kShards, 0);
  pt.total.assign(kShards, 0);
  const Duration spacing = Duration::ms(40.0);
  for (u32 k = 0; k < ops; ++k) {
    for (u32 s = 0; s < kShards; ++s) {
      const TimePoint at = TimePoint::origin() +
                           spacing * static_cast<i64>(k) +
                           Duration::ms(4.0) * static_cast<i64>(s);
      ++pt.total[s];
      cluster.engine().schedule_at(at, [&, s, k] {
        const std::string name = name_on_shard(s, kShards, k);
        if (c.create(name, 64 * kKiB, 1, /*base_iod=*/0).is_ok()) {
          ++pt.ok[s];
        }
      });
    }
  }
  cluster.run();
  const Stats& st = cluster.stats();
  pt.meta_retries = st.get(stat::kPvfsMetaRetries);
  pt.meta_failovers = st.get(stat::kPvfsMetaFailovers);
  pt.takeovers = st.get(stat::kPvfsManagerTakeovers);
  return pt;
}

void run_shard_avail_sweep(const std::vector<Duration>& mttrs, u32 ops) {
  Table t({"MTTR", "takeover", "shard0", "shard1*", "shard2", "shard3",
           "meta retries", "meta failovers", "takeovers"});
  for (Duration mttr : mttrs) {
    for (bool takeover : {false, true}) {
      const ShardAvailPoint pt = run_shard_avail(mttr, takeover, ops);
      auto cell = [&](u32 s) {
        return fmt_int(pt.ok[s]) + "/" + fmt_int(pt.total[s]);
      };
      t.row({mttr.to_string(), takeover ? "on" : "off", cell(0), cell(1),
             cell(2), cell(3), fmt_int(pt.meta_retries),
             fmt_int(pt.meta_failovers), fmt_int(pt.takeovers)});
    }
  }
  t.print();
  std::printf("\n");
}

// --- Sequential failures: durability with and without re-replication ------

struct SeqPoint {
  bool ran = false;
  bool read_ok = false;
  bool fresh = false;  // the read returned the last *acked* write's bytes
  u32 failovers = 0;
  i64 stale_avoided = 0;
  i64 read_repairs = 0;
  i64 resync_stripes = 0;
  i64 resync_rounds = 0;
};

// Factor 2, write quorum 1, a width-1 file on the chain {iod0, iod1}.
// Timeline: preload pattern A healthy (both replicas current); iod0 crashes
// at 20 ms and restarts at 50 ms; pattern B is written at 25 ms and settles
// on iod1 alone (iod0 now stale); iod1 dies for good `gap` after iod0's
// restart; a read at 500 ms must come from iod0. With resync on, iod0's
// restart scan pulls B from iod1 inside the gap and the read is fresh. With
// it off — or with no gap to resync in — the read "succeeds" from the stale
// primary and returns A: acked data provably lost.
SeqPoint run_seq(Duration gap, bool resync) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.replication.factor = 2;
  cfg.replication.write_quorum = 1;
  cfg.replication.resync = resync;
  cfg.fault.seed = 42;
  cfg.fault.round_timeout = Duration::ms(5.0);
  cfg.fault.backoff_base = Duration::ms(1.0);
  cfg.fault.backoff_mult = 2.0;
  cfg.fault.backoff_cap = Duration::ms(8.0);
  cfg.fault.max_retries = 4;
  const TimePoint restart = TimePoint::origin() + Duration::ms(50.0);
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kIodCrash,
                                          TimePoint::origin() + Duration::ms(20.0),
                                          /*target=*/0, Duration::ms(30.0)});
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kIodCrash, restart + gap,
                                          /*target=*/1, Duration::ms(1.0e6)});

  pvfs::Cluster cluster(cfg, 1, 2);
  pvfs::Client& c = cluster.client(0);
  pvfs::OpenFile f = c.create("/seq", 64 * kKiB, 1, /*base_iod=*/0).value();

  const u64 len = 64 * kKiB;
  const u64 wbuf = c.memory().alloc(len);
  const u64 rbuf = c.memory().alloc(len);
  pvfs::IoHandle read_h;
  // Submit from engine events so every send goes on the wire in
  // nondecreasing virtual time (resync traffic interleaves at 50 ms+).
  cluster.engine().schedule_at(TimePoint::origin(), [&] {
    std::memset(c.memory().data(wbuf), 0x11, len);  // pattern A
    c.submit({pvfs::IoDir::kWrite, f, {{{wbuf, len}}, {{0, len}}}, {},
              cluster.engine().now()});
  });
  cluster.engine().schedule_at(TimePoint::origin() + Duration::ms(25.0), [&] {
    std::memset(c.memory().data(wbuf), 0x22, len);  // pattern B
    c.submit({pvfs::IoDir::kWrite, f, {{{wbuf, len}}, {{0, len}}}, {},
              cluster.engine().now()});
  });
  cluster.engine().schedule_at(TimePoint::origin() + Duration::ms(500.0), [&] {
    read_h = c.submit({pvfs::IoDir::kRead, f, {{{rbuf, len}}, {{0, len}}}, {},
                       cluster.engine().now()});
  });
  cluster.engine().run_until(
      [&] { return read_h.valid() && read_h.poll(); });

  SeqPoint pt;
  pt.ran = true;
  pt.read_ok = read_h.valid() && read_h.poll() && read_h.result().ok();
  pt.failovers = pt.read_ok ? read_h.result().failovers : 0;
  if (pt.read_ok) {
    pt.fresh = true;
    const std::byte* d = c.memory().data(rbuf);
    for (u64 i = 0; i < len; ++i) {
      if (d[i] != std::byte{0x22}) {
        pt.fresh = false;
        break;
      }
    }
  }
  const Stats& s = cluster.stats();
  pt.stale_avoided = s.get(stat::kPvfsStaleReadsAvoided);
  pt.read_repairs = s.get(stat::kPvfsReadRepairs);
  pt.resync_stripes = s.get(stat::kPvfsResyncStripes);
  pt.resync_rounds = s.get(stat::kPvfsResyncRounds);
  return pt;
}

void run_seq_sweep(const std::vector<Duration>& gaps) {
  Table t({"gap", "resync", "read", "failovers", "stale avoided",
           "resync stripes", "resync rounds", "data"});
  for (Duration gap : gaps) {
    for (bool resync : {false, true}) {
      const SeqPoint pt = run_seq(gap, resync);
      t.row({gap.to_string(), resync ? "on" : "off",
             pt.read_ok ? "ok" : "FAILED", fmt_int(pt.failovers),
             fmt_int(pt.stale_avoided), fmt_int(pt.resync_stripes),
             fmt_int(pt.resync_rounds),
             !pt.read_ok ? "unreadable"
                         : (pt.fresh ? "fresh" : "STALE (acked write lost)")});
    }
  }
  t.print();
  std::printf("\n");
}

// --- Silent corruption: detection latency and repair, scrubber off/on -----

struct CorruptPoint {
  u32 flips_scheduled = 0;
  bool scrub = false;
  bool read_ok = false;
  bool data_ok = false;
  i64 flips = 0;
  i64 detections = 0;
  i64 corrupt_failovers = 0;
  i64 repairs = 0;
  i64 scrub_chunks = 0;
  i64 resync_stripes = 0;
  double detect_latency_ms = -1.0;  // first flip -> first checksum mismatch
  double read_mbps = 0.0;
};

// Factor 2, four iods, a healthy 512 KiB preload; `flips` scheduled
// bit flips land at rest from t=30 ms on, all on iod 0 — one member of
// each affected chain, so an intact copy always survives (factor 2 can
// promise nothing once both copies rot). A full-file read at 350 ms is
// the safety net either way — verify-on-read refuses rotten bytes and
// fails over — so what the scrubber buys is *when* the rot is found
// (next sweep vs next read, the detection-latency column) and *what the
// read costs* (scrub on: healed copies, clean placement; scrub off: the
// read itself discovers the rot and pays the failover).
CorruptPoint run_corruption(u32 flips, bool scrub) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.replication.factor = 2;
  cfg.replication.resync = true;
  cfg.fault.seed = 42;
  cfg.fault.round_timeout = Duration::ms(5.0);
  cfg.fault.backoff_base = Duration::ms(1.0);
  cfg.fault.backoff_cap = Duration::ms(8.0);
  cfg.fault.max_retries = 8;
  const TimePoint first_at = TimePoint::origin() + Duration::ms(30.0);
  for (u32 k = 0; k < flips; ++k) {
    cfg.fault.schedule.push_back(
        FaultEvent{FaultKind::kBitFlip,
                   first_at + Duration::ms(5.0) * static_cast<i64>(k),
                   /*target=*/0, Duration::zero()});
  }

  sim::Trace& trace = sim::Trace::instance();
  trace.enable(/*capacity=*/1 << 16);
  trace.clear();

  pvfs::Cluster cluster(cfg, 1, 4);
  pvfs::Client& c = cluster.client(0);
  pvfs::OpenFile f = c.create("/corr", 64 * kKiB, 4, /*base_iod=*/0).value();
  const u64 n = 512 * kKiB;
  const u64 src = c.memory().alloc(n);
  for (u64 i = 0; i < n; ++i) {
    c.memory().write_pod<u8>(src + i, static_cast<u8>(i * 131 + 17));
  }
  const pvfs::IoResult w = c.write(f, 0, src, n);

  if (scrub) cluster.start_scrub(TimePoint::origin() + Duration::ms(300.0));

  const u64 dst = c.memory().alloc(n);
  pvfs::IoHandle rh;
  const TimePoint rat = TimePoint::origin() + Duration::ms(350.0);
  cluster.engine().schedule_at(rat, [&, rat] {
    rh = c.submit({pvfs::IoDir::kRead, f, {{{dst, n}}, {{0, n}}}, {}, rat});
  });
  cluster.run();

  CorruptPoint pt;
  pt.flips_scheduled = flips;
  pt.scrub = scrub;
  pt.read_ok = w.ok() && rh.valid() && rh.poll() && rh.result().ok();
  pt.data_ok = pt.read_ok;
  if (pt.read_ok) {
    for (u64 i = 0; i < n; ++i) {
      if (c.memory().read_pod<u8>(dst + i) != static_cast<u8>(i * 131 + 17)) {
        pt.data_ok = false;
        break;
      }
    }
    pt.read_mbps = rh.result().bandwidth_mib();
  }
  const Stats& s = cluster.stats();
  pt.flips = s.get(stat::kFaultBitFlip);
  pt.detections = s.get(stat::kPvfsCorruptionsDetected);
  pt.corrupt_failovers = s.get(stat::kPvfsCorruptReadsFailedOver);
  pt.repairs = s.get(stat::kPvfsCorruptionsRepaired);
  pt.scrub_chunks = s.get(stat::kPvfsScrubChunks);
  pt.resync_stripes = s.get(stat::kPvfsResyncStripes);
  TimePoint first_det = TimePoint::from_ns(INT64_MAX);
  for (const sim::Trace::Entry& e : trace.entries()) {
    if (e.what.find("MISMATCH") != std::string::npos && e.at < first_det) {
      first_det = e.at;
    }
  }
  if (first_det != TimePoint::from_ns(INT64_MAX) && first_det >= first_at) {
    pt.detect_latency_ms = (first_det - first_at).as_ms();
  }
  trace.disable();
  trace.clear();
  return pt;
}

std::vector<CorruptPoint> run_corruption_sweep(const std::vector<u32>& flips) {
  Table t({"flips", "scrub", "injected", "detect latency", "detections",
           "corrupt failovers", "repairs", "scrub chunks", "resync stripes",
           "read MB/s", "data"});
  std::vector<CorruptPoint> points;
  for (u32 fl : flips) {
    for (bool scrub : {false, true}) {
      const CorruptPoint pt = run_corruption(fl, scrub);
      t.row({fmt_int(fl), scrub ? "on" : "off", fmt_int(pt.flips),
             pt.detect_latency_ms < 0.0 ? "never"
                                        : fmt(pt.detect_latency_ms, 2) + " ms",
             fmt_int(pt.detections), fmt_int(pt.corrupt_failovers),
             fmt_int(pt.repairs), fmt_int(pt.scrub_chunks),
             fmt_int(pt.resync_stripes), fmt(pt.read_mbps, 1),
             !pt.read_ok          ? "UNREADABLE"
             : pt.data_ok         ? "intact"
                                  : "ROTTEN (silent corruption)"});
      points.push_back(pt);
    }
  }
  t.print();
  std::printf("\n");
  return points;
}

void json_rate_points(JsonWriter& j, const char* key,
                      const std::vector<SweepPoint>& points) {
  j.begin_array(key);
  for (const SweepPoint& pt : points) {
    j.begin_object();
    j.field("rate", pt.rate, 4);
    j.field("mbps", pt.outcome.mbps, 3);
    j.field("ok", pt.outcome.ok);
    j.field("p50_us", pt.p50.as_us(), 3);
    j.field("p99_us", pt.p99.as_us(), 3);
    j.field("injected", pt.injected);
    j.field("timeouts", pt.timeouts);
    j.field("retries", pt.retries);
    j.field("replays_deduped", pt.replays_deduped);
    j.end_object();
  }
  j.end_array();
}

void json_corruption_points(JsonWriter& j,
                            const std::vector<CorruptPoint>& points) {
  j.begin_array("points");
  for (const CorruptPoint& pt : points) {
    j.begin_object();
    j.field("flips_scheduled", pt.flips_scheduled);
    j.field("scrub", pt.scrub);
    j.field("flips_injected", pt.flips);
    j.field("detect_latency_ms", pt.detect_latency_ms, 3);
    j.field("detections", pt.detections);
    j.field("corrupt_failovers", pt.corrupt_failovers);
    j.field("repairs", pt.repairs);
    j.field("scrub_chunks", pt.scrub_chunks);
    j.field("resync_stripes", pt.resync_stripes);
    j.field("read_mbps", pt.read_mbps, 3);
    j.field("read_ok", pt.read_ok);
    j.field("data_ok", pt.data_ok);
    j.end_object();
  }
  j.end_array();
}

void run(bool smoke) {
  const u64 n = smoke ? 512 : 2048;
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.01}
            : std::vector<double>{0.0, 0.002, 0.01, 0.05, 0.2};
  header("Fault sweep: block-column write goodput vs injected fault rate",
         "fig6 workload (List+ADS, no sync); request/reply drops, "
         "retransmits and\ncompletion errors at the given rate; 400 ms round "
         "timeout, 1 ms base backoff");
  const std::vector<SweepPoint> write_points =
      run_rate_sweep(/*is_write=*/true, rates, n);

  header("Fault sweep: block-column read goodput vs injected fault rate",
         "fig7 workload (List+ADS); reads are idempotent, so lost requests "
         "or replies\nare simply re-read after the round timeout");
  const std::vector<SweepPoint> read_points =
      run_rate_sweep(/*is_write=*/false, rates, n);

  const std::vector<Duration> mttrs =
      smoke ? std::vector<Duration>{Duration::ms(10.0), Duration::ms(150.0)}
            : std::vector<Duration>{Duration::ms(5.0), Duration::ms(60.0),
                                    Duration::ms(150.0), Duration::ms(250.0),
                                    Duration::ms(400.0)};
  const u32 ops = smoke ? 6 : 12;
  header("Availability vs MTTR: replication factor 1 vs 2",
         "one iod crashes at t=50ms and restarts after MTTR; strided ops "
         "pinned to it\nstart every 40 ms; retry budget ~35 ms. factor 2: "
         "writes settle on the\nsurviving replica (quorum 1), reads fail "
         "over to it");
  run_avail_sweep(mttrs, ops);

  const std::vector<Duration> mgr_mttrs =
      smoke ? std::vector<Duration>{Duration::ms(10.0), Duration::ms(150.0)}
            : std::vector<Duration>{Duration::ms(5.0), Duration::ms(60.0),
                                    Duration::ms(150.0), Duration::ms(250.0),
                                    Duration::ms(400.0)};
  header("Availability vs manager MTTR: standby takeover off vs on",
         "the manager crashes at t=50ms and restarts after MTTR; a "
         "create+replicated-write\nop starts every 40 ms; retry budget "
         "~35 ms. takeover on: the standby promotes\n2 ms into the window, "
         "metadata fails over and the epoch fence re-targets version\nmints, "
         "so availability is flat in MTTR");
  run_mgr_avail_sweep(mgr_mttrs, ops);

  const std::vector<Duration> shard_mttrs =
      smoke ? std::vector<Duration>{Duration::ms(150.0)}
            : std::vector<Duration>{Duration::ms(150.0), Duration::ms(400.0)};
  header("Sharded metadata plane: blast radius of one manager crash",
         "4 active manager shards, the shard-1 manager crashes at t=50ms "
         "and restarts\nafter MTTR; one create per shard starts every 40 ms "
         "(* = crashed shard).\nShards 0/2/3 route to untouched managers "
         "and never retry; shard 1 alone\neats the outage, and with a "
         "standby its takeover makes it whole too");
  run_shard_avail_sweep(shard_mttrs, ops);

  const std::vector<Duration> gaps =
      smoke ? std::vector<Duration>{Duration::zero(), Duration::ms(100.0)}
            : std::vector<Duration>{Duration::zero(), Duration::ms(5.0),
                                    Duration::ms(100.0)};
  header("Sequential failures: surviving F-1 crashes one at a time",
         "factor 2, quorum 1. A write lands on the backup alone while the "
         "primary is\ndown; the backup then dies for good `gap` after the "
         "primary restarts. With\nresync the restart scan re-replicates "
         "inside the gap and the final read is\nfresh; without it (or with "
         "no gap) the read comes from the stale primary\nand acked data is "
         "lost");
  run_seq_sweep(gaps);

  const std::vector<u32> flip_counts =
      smoke ? std::vector<u32>{2} : std::vector<u32>{1, 2, 4};
  header("Silent corruption: detection latency and repair, scrubber off vs on",
         "factor 2, 4 iods; scheduled bit flips land at rest from t=30ms, a "
         "full-file\nread follows at t=350ms. Verify-on-read refuses rotten "
         "bytes either way; the\nscrubber turns detection latency from "
         "'next read' into 'next sweep' and heals\nthe copies before the "
         "read ever pays a failover");
  const std::vector<CorruptPoint> corruption_points =
      run_corruption_sweep(flip_counts);

  JsonWriter j;
  j.field("bench", "fault_sweep");
  j.field("smoke", smoke);
  j.begin_object("config");
  j.field("seed", static_cast<u64>(42));
  j.field("n", n);
  j.field("clients", 4);
  j.field("iods", 4);
  j.end_object();
  json_rate_points(j, "write_rate_points", write_points);
  json_rate_points(j, "read_rate_points", read_points);
  j.begin_object("corruption");
  j.field("replication_factor", 2);
  j.field("preload_bytes", static_cast<u64>(512 * kKiB));
  json_corruption_points(j, corruption_points);
  j.end_object();
  j.write_file("BENCH_fault.json");
}

}  // namespace
}  // namespace pvfsib::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  pvfsib::bench::run(smoke);
  return 0;
}
