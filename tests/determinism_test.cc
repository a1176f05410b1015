// Regression lock on bit-for-bit determinism: the whole simulation —
// including a *non-trivial fault plane* — is a pure function of its
// inputs. Two runs of the Figure 6 block-column workload with identical
// configs (same fault seed, same crash schedule) must produce identical
// Stats snapshots and identical sim::Trace event streams; a different
// fault seed must not.
//
// This is what makes recovery behaviour testable at all: a faulty run is
// exactly as reproducible as a healthy one. The golden-digest test then
// pins every scenario's fingerprint to a committed constant, so a refactor
// that claims "outputs unchanged" is checked event by event.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mpiio/mpio_file.h"
#include "pvfs/cluster.h"
#include "sim/trace.h"
#include "workloads/block_column.h"

namespace pvfsib::pvfs {
namespace {

// --- Fingerprinting ---------------------------------------------------------

// Start a scenario with an empty, enabled trace ring.
void start_trace() {
  sim::Trace& trace = sim::Trace::instance();
  trace.enable(/*capacity=*/1 << 16);
  trace.clear();
}

// The (trace, stats) fingerprint of a finished scenario; leaves the trace
// ring disabled and empty for the next one.
std::string fingerprint(Cluster& cluster) {
  sim::Trace& trace = sim::Trace::instance();
  std::string fp;
  for (const sim::Trace::Entry& e : trace.entries()) {
    fp += std::to_string(e.at.as_ns()) + " " + e.who + " " + e.what + "\n";
  }
  fp += "dropped=" + std::to_string(trace.dropped()) + "\n";
  fp += cluster.stats().to_string();
  trace.disable();
  trace.clear();
  return fp;
}

// FNV-1a 64-bit.
u64 digest(const std::string& s) {
  u64 h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Submit one contiguous I/O of `n` bytes at file offset 0 from an engine
// event at `at` (the fabric books wire occupancy in call order, so sends
// must be issued in nondecreasing virtual time).
IoHandle submit_at(Cluster& cluster, Client& c, const OpenFile& f, IoDir dir,
                   u64 addr, u64 n, TimePoint at) {
  auto h = std::make_shared<IoHandle>();
  cluster.engine().schedule_at(at, [&c, f, dir, addr, n, at, h] {
    core::ListIoRequest req;
    req.mem = {{addr, n}};
    req.file = {{0, n}};
    *h = c.submit({dir, f, req, {}, at});
  });
  cluster.engine().run_until([h] { return h->valid() && h->poll(); });
  return *h;
}

void fill(Client& c, u64 addr, u64 n, u64 seed) {
  std::byte* p = c.memory().data(addr);
  for (u64 i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xff);
  }
}

bool equal_mem(Client& c, u64 a, u64 b, u64 n) {
  return std::memcmp(c.memory().data(a), c.memory().data(b), n) == 0;
}

// --- Scenarios --------------------------------------------------------------

ModelConfig faulty_fig6_config(u64 seed) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.seed = seed;
  cfg.fault.request_drop_rate = 0.02;
  cfg.fault.reply_drop_rate = 0.02;
  cfg.fault.retransmit_rate = 0.05;
  cfg.fault.latency_spike_rate = 0.02;
  // One deterministic crash window on iod 1 partway into the run.
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kIodCrash,
                                          TimePoint::from_ns(2'000'000), 1,
                                          Duration::ms(4.0)});
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.max_retries = 25;
  return cfg;
}

// The full robustness stack at once: factor-2 replication (fan-out, quorum
// settles, replay dedupe), adaptive timeouts, and a mid-run iod crash.
ModelConfig replicated_fig6_config(u64 seed) {
  ModelConfig cfg = faulty_fig6_config(seed);
  cfg.replication.factor = 2;
  cfg.fault.adaptive_timeout = true;
  return cfg;
}

// A manager crash mid-workload with standby takeover: epoch bump,
// header-scan rebuild, client metadata failover, resync re-pointing.
ModelConfig takeover_fig6_config(u64 seed) {
  ModelConfig cfg = faulty_fig6_config(seed);
  cfg.replication.factor = 2;
  cfg.replication.resync = true;
  cfg.fault.standby_takeover = true;
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kManagerCrash,
                                          TimePoint::from_ns(1'000'000), 0,
                                          Duration::ms(20.0)});
  return cfg;
}

// Fast-recovery policy for the small replicated scenarios, so a dead
// replica's retry budget burns out in little virtual time.
ModelConfig recovery_config() {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.seed = 7;
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.backoff_cap = Duration::ms(2.0);
  cfg.fault.max_retries = 25;
  return cfg;
}

// The fig6 block-column write (N = 1024, 4 clients x 4 iods, list I/O +
// ADS) under `cfg`.
std::string fig6_fingerprint(const ModelConfig& cfg) {
  start_trace();
  Cluster cluster(cfg, 4, 4);
  mpiio::Communicator comm(cluster);
  workloads::BlockColumnWorkload w;
  w.n = 1024;
  Result<mpiio::File> file = mpiio::File::create(comm, "/det");
  EXPECT_TRUE(file.is_ok());
  mpiio::File f = file.value();
  std::vector<mpiio::RankIo> io(4);
  for (int p = 0; p < 4; ++p) {
    io[p] = w.rank_io(p, comm.rank(p).memory().alloc(w.share_bytes()));
  }
  mpiio::Hints hints;
  hints.method = mpiio::IoMethod::kListIoAds;
  for (const IoResult& r : f.write_all(io, hints)) {
    EXPECT_TRUE(r.ok()) << r.status.to_string();
  }
  return fingerprint(cluster);
}

// The background re-replication plane end to end: restart hook, staleness
// scan, rate-limited pull rounds, and version-aware read placement.
std::string resync_fingerprint() {
  start_trace();
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.backoff_cap = Duration::ms(2.0);
  cfg.fault.max_retries = 25;
  cfg.replication.factor = 2;
  cfg.replication.write_quorum = 1;
  cfg.replication.resync = true;
  // Primary down for the overwrite, backup dead for good later: the
  // restarted primary must re-replicate inside the gap.
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash,
                 TimePoint::origin() + Duration::ms(20.0), 0,
                 Duration::ms(30.0)});
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash,
                 TimePoint::origin() + Duration::ms(100.0), 1,
                 Duration::sec(1000.0)});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/det-seq", 64 * kKiB, 1, 0).value();
  const u64 n = 32 * kKiB;
  const u64 a = c.memory().alloc(n);
  const u64 b = c.memory().alloc(n);
  for (u64 i = 0; i < n; ++i) {
    c.memory().write_pod<u8>(a + i, 0x11);
    c.memory().write_pod<u8>(b + i, 0x22);
  }
  EXPECT_TRUE(c.write(f, 0, a, n).ok());
  IoHandle w, r;
  const TimePoint wat = TimePoint::origin() + Duration::ms(25.0);
  cluster.engine().schedule_at(wat, [&, wat] {
    core::ListIoRequest req;
    req.mem = {{b, n}};
    req.file = {{0, n}};
    w = c.submit({IoDir::kWrite, f, req, {}, wat});
  });
  const u64 dst = c.memory().alloc(n);
  const TimePoint rat = TimePoint::origin() + Duration::ms(500.0);
  cluster.engine().schedule_at(rat, [&, rat] {
    core::ListIoRequest req;
    req.mem = {{dst, n}};
    req.file = {{0, n}};
    r = c.submit({IoDir::kRead, f, req, {}, rat});
  });
  cluster.engine().run_until([&r] { return r.valid() && r.poll(); });
  EXPECT_TRUE(w.poll() && w.result().ok());
  EXPECT_TRUE(r.poll() && r.result().ok());
  EXPECT_EQ(c.memory().read_pod<u8>(dst), 0x22);  // acked bytes survived
  return fingerprint(cluster);
}

// The integrity plane end to end: checksum stamping, rate-driven write
// corruption, verify-on-read failover, the scrubber's chunked sweep and the
// resync heals it enqueues.
std::string scrub_fingerprint(u64 seed) {
  start_trace();
  ModelConfig cfg = faulty_fig6_config(seed);
  cfg.replication.factor = 2;
  cfg.replication.resync = true;
  cfg.fault.bit_flip_rate = 0.25;
  cfg.fault.torn_write_rate = 0.05;
  Cluster cluster(cfg, 2, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/det-scrub", 64 * kKiB, 2, 0).value();
  const u64 n = 256 * kKiB;
  const u64 a = c.memory().alloc(n);
  for (u64 i = 0; i < n; ++i) {
    c.memory().write_pod<u8>(a + i, static_cast<u8>(seed * 131 + i));
  }
  EXPECT_TRUE(c.write(f, 0, a, n).ok());
  cluster.start_scrub(TimePoint::origin() + Duration::ms(100.0));
  const u64 dst = c.memory().alloc(n);
  IoHandle r;
  const TimePoint rat = TimePoint::origin() + Duration::ms(150.0);
  cluster.engine().schedule_at(rat, [&, rat] {
    core::ListIoRequest req;
    req.mem = {{dst, n}};
    req.file = {{0, n}};
    r = c.submit({IoDir::kRead, f, req, {}, rat});
  });
  cluster.run();
  EXPECT_TRUE(r.poll() && r.result().ok());
  return fingerprint(cluster);
}

// Live resharding end to end: the rate-limited stream rounds, the fenced
// cutover with its epoch sweep, redirect-driven client map refreshes and
// the retired zombie source.
std::string migration_fingerprint(u64 seed) {
  start_trace();
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.seed = seed;
  cfg.fault.request_drop_rate = 0.02;
  cfg.fault.reply_drop_rate = 0.02;
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.max_retries = 25;
  cfg.migration.round_bytes = 256;  // several stream rounds
  Cluster cluster(cfg,
                  Cluster::Topology{}.clients(2).iods(2).metadata_shards(2));
  Client& c = cluster.client(0);
  std::vector<OpenFile> files;
  for (int i = 0; i < 12; ++i) {
    files.push_back(c.create("/det-mig" + std::to_string(i)).value());
  }
  const u64 n = 8 * kKiB;
  const u64 a = c.memory().alloc(n);
  for (u64 i = 0; i < n; ++i) {
    c.memory().write_pod<u8>(a + i, static_cast<u8>(seed + i));
  }
  EXPECT_TRUE(c.write(files[0], 0, a, n).ok());
  EXPECT_TRUE(
      cluster.migrate_shard(1, TimePoint::origin() + Duration::ms(1.0)));
  cluster.engine().schedule_at(
      TimePoint::origin() + Duration::ms(10.0), [&cluster] {
        EXPECT_TRUE(
            cluster.split_shards(TimePoint::origin() + Duration::ms(10.0)));
      });
  cluster.run();
  // A stale client converges after both reshards and reads back intact.
  Client& late = cluster.client(1);
  OpenFile g = late.open("/det-mig0").value();
  const u64 dst = late.memory().alloc(n);
  EXPECT_TRUE(late.read(g, 0, dst, n).ok());
  EXPECT_EQ(late.memory().read_pod<u8>(dst), static_cast<u8>(seed));
  return fingerprint(cluster);
}

// The client caching tier: attr/data hits, write-notice seq bumps,
// write-back staging, the staleness_bound flush timer, lease revokes on
// remove.
std::string cache_fingerprint(u64 seed) {
  start_trace();
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.seed = seed;
  cfg.fault.request_drop_rate = 0.02;
  cfg.fault.reply_drop_rate = 0.02;
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.max_retries = 25;
  cfg.cache.enabled = true;
  cfg.cache.write_back = true;
  cfg.cache.staleness_bound = Duration::ms(3.0);
  Cluster cluster(cfg, 2, 2);
  Client& c0 = cluster.client(0);
  Client& c1 = cluster.client(1);
  OpenFile f = c0.create("/det-cache").value();
  const u64 n = 64 * kKiB;
  const u64 a = c0.memory().alloc(n);
  for (u64 i = 0; i < n; ++i) {
    c0.memory().write_pod<u8>(a + i, static_cast<u8>(seed * 7 + i));
  }
  EXPECT_TRUE(c0.write(f, 0, a, n).ok());  // staged dirty
  EXPECT_TRUE(c0.close(f).ok());           // flushed + dropped
  OpenFile g = c1.open("/det-cache").value();
  const u64 d = c1.memory().alloc(n);
  EXPECT_TRUE(c1.read(g, 0, d, n).ok());         // wire, populates
  EXPECT_TRUE(c1.read(g, 0, d, n).ok());         // hit
  EXPECT_TRUE(c1.open("/det-cache").is_ok());    // attr hit
  EXPECT_TRUE(c0.remove("/det-cache").is_ok());  // revokes both clients
  cluster.run();  // drain any armed flush timers
  return fingerprint(cluster);
}

// Read failover on an exhausted budget: a factor-2 chain whose primary
// crashes for good after the write landed on both replicas; the read
// burns the primary's retry budget, then fails over to the backup.
std::string read_failover_fingerprint() {
  start_trace();
  ModelConfig cfg = recovery_config();
  cfg.replication.factor = 2;
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash,
                 TimePoint::origin() + Duration::ms(50.0), 0,
                 Duration::sec(1000.0)});
  Cluster cluster(cfg, 1, 4);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/gold-fo", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 n = 32 * kKiB;
  const u64 src = c.memory().alloc(n);
  fill(c, src, n, 21);
  EXPECT_TRUE(c.write(f, 0, src, n).ok());
  const u64 dst = c.memory().alloc(n);
  const IoHandle h = submit_at(cluster, c, f, IoDir::kRead, dst, n,
                               TimePoint::origin() + Duration::ms(60.0));
  cluster.run();
  EXPECT_TRUE(h.poll() && h.result().ok());
  EXPECT_TRUE(equal_mem(c, src, dst, n));
  EXPECT_GT(cluster.stats().get(stat::kPvfsFailovers), 0);
  return fingerprint(cluster);
}

// Corrupt-read failover: one bit of the primary's data flips at rest; the
// first read trips the block checksum and fails over to the intact backup,
// the second is placed on the backup straight away.
std::string bit_flip_fingerprint() {
  start_trace();
  ModelConfig cfg = recovery_config();
  cfg.replication.factor = 2;
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kBitFlip, TimePoint::origin() + Duration::ms(10.0), 0,
      Duration::zero()});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/gold-flip", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 n = 32 * kKiB;
  const u64 a = c.memory().alloc(n);
  fill(c, a, n, 41);
  EXPECT_TRUE(c.write(f, 0, a, n).ok());
  for (const double ms : {20.0, 40.0}) {
    const u64 dst = c.memory().alloc(n);
    const IoHandle h = submit_at(cluster, c, f, IoDir::kRead, dst, n,
                                 TimePoint::origin() + Duration::ms(ms));
    EXPECT_TRUE(h.poll() && h.result().ok());
    EXPECT_TRUE(equal_mem(c, a, dst, n));
  }
  EXPECT_GT(cluster.stats().get(stat::kPvfsCorruptReadsFailedOver), 0);
  return fingerprint(cluster);
}

// Lost-write failover: the primary acks an overwrite it never applied, so
// its header contradicts the staleness map's record of the ack; the read
// placed on it detects that and fails over to the backup.
std::string lost_write_fingerprint() {
  start_trace();
  ModelConfig cfg = recovery_config();
  cfg.replication.factor = 2;
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kLostWrite, TimePoint::origin() + Duration::ms(10.0), 0,
      Duration::zero()});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/gold-lost", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 n = 32 * kKiB;
  const u64 a = c.memory().alloc(n);
  const u64 b = c.memory().alloc(n);
  fill(c, a, n, 41);
  fill(c, b, n, 43);
  EXPECT_TRUE(c.write(f, 0, a, n).ok());
  const IoHandle w = submit_at(cluster, c, f, IoDir::kWrite, b, n,
                               TimePoint::origin() + Duration::ms(15.0));
  EXPECT_TRUE(w.poll() && w.result().ok());
  const u64 dst = c.memory().alloc(n);
  const IoHandle r = submit_at(cluster, c, f, IoDir::kRead, dst, n,
                               TimePoint::origin() + Duration::ms(100.0));
  EXPECT_TRUE(r.poll() && r.result().ok());
  EXPECT_TRUE(equal_mem(c, b, dst, n));
  EXPECT_GT(cluster.stats().get(stat::kPvfsCorruptReadsFailedOver), 0);
  return fingerprint(cluster);
}

// Read-repair: the primary is down for an overwrite that settles on the
// backup's ack alone (quorum 1); a later read is placed on the current
// backup and pushes the just-read bytes back to the stale primary.
std::string read_repair_fingerprint() {
  start_trace();
  ModelConfig cfg = recovery_config();
  cfg.replication.factor = 2;
  cfg.replication.write_quorum = 1;
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash,
                 TimePoint::origin() + Duration::ms(10.0), 0,
                 Duration::ms(30.0)});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/gold-repair", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 n = 32 * kKiB;
  const u64 a = c.memory().alloc(n);
  const u64 b = c.memory().alloc(n);
  fill(c, a, n, 3);
  fill(c, b, n, 9);
  EXPECT_TRUE(c.write(f, 0, a, n).ok());
  const IoHandle w = submit_at(cluster, c, f, IoDir::kWrite, b, n,
                               TimePoint::origin() + Duration::ms(15.0));
  EXPECT_TRUE(w.poll() && w.result().ok());
  const u64 dst = c.memory().alloc(n);
  const IoHandle r = submit_at(cluster, c, f, IoDir::kRead, dst, n,
                               TimePoint::origin() + Duration::ms(200.0));
  EXPECT_TRUE(r.poll() && r.result().ok());
  EXPECT_TRUE(equal_mem(c, b, dst, n));
  cluster.run();  // drain the async repair write
  EXPECT_GT(cluster.stats().get(stat::kPvfsReadRepairs), 0);
  return fingerprint(cluster);
}

// A pipelined (depth 4) write plus read of one iod whose rounds take the
// three read-return paths: small rounds (Fast-RDMA bounce), one large
// contiguous buffer (direct gather) and a large scattered one (client
// pull). Each op's first request is dropped, so its later rounds settle
// ahead of it and the slot-reuse floor stalls the window until the replay.
std::string pipeline_fingerprint() {
  start_trace();
  ModelConfig cfg = recovery_config();
  cfg.pipeline_depth = 4;
  cfg.pvfs.max_list_pairs = 4;
  cfg.pvfs.staging_buffer = 128 * kKiB;
  const TimePoint read_at = TimePoint::origin() + Duration::ms(100.0);
  for (const TimePoint at : {TimePoint::origin(), read_at}) {
    cfg.fault.schedule.push_back(
        FaultEvent{FaultKind::kDropRequest, at, 0, Duration::zero()});
  }
  Cluster cluster(cfg, 1, 1);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/gold-pipe", 4 * kMiB, 1, /*base_iod=*/0).value();
  const u64 span = 6 * 4 * 8 * kKiB + 132 * kKiB + 4 * 36 * kKiB;
  auto request = [&](u64 base) {
    core::ListIoRequest req;
    u64 mem = base;
    u64 file = 0;
    auto piece = [&](u64 len) {
      req.mem.push_back({mem, len});
      req.file.push_back({file, len});
      mem += len + 4 * kKiB;  // gaps keep the pieces separate segments
      file += len + 4 * kKiB;
    };
    for (int i = 0; i < 6 * 4; ++i) piece(4 * kKiB);  // 16 KiB rounds
    piece(128 * kKiB);                                // one buffer
    for (int i = 0; i < 4; ++i) piece(32 * kKiB);     // scattered
    return req;
  };
  const core::ListIoRequest wreq = request(c.memory().alloc(span));
  const core::ListIoRequest rreq = request(c.memory().alloc(span));
  for (const core::MemSegment& m : wreq.mem) fill(c, m.addr, m.length, m.addr);
  EXPECT_TRUE(c.write_list(f, wreq).ok());
  IoHandle r;
  cluster.engine().schedule_at(read_at, [&] {
    r = c.submit({IoDir::kRead, f, rreq, {}, read_at});
  });
  cluster.engine().run_until([&r] { return r.valid() && r.poll(); });
  EXPECT_TRUE(r.poll() && r.result().ok());
  for (size_t i = 0; i < wreq.mem.size(); ++i) {
    EXPECT_TRUE(equal_mem(c, wreq.mem[i].addr, rreq.mem[i].addr,
                          wreq.mem[i].length));
  }
  EXPECT_GT(cluster.stats().get(stat::kPvfsPipelineStalls), 0);
  std::string fp = fingerprint(cluster);
  for (const char* path : {"fast-bounce", "direct-gather", "client-pull"}) {
    EXPECT_NE(fp.find(path), std::string::npos) << path;
  }
  return fp;
}

// --- Run-to-run determinism -------------------------------------------------

TEST(DeterminismTest, FaultyFig6RunsAreBitIdenticalAcrossInvocations) {
  const std::string a = fig6_fingerprint(faulty_fig6_config(123));
  const std::string b = fig6_fingerprint(faulty_fig6_config(123));
  // The fault plane actually fired (the lock is not vacuous)...
  EXPECT_NE(a.find("fault.injected"), std::string::npos);
  EXPECT_NE(a.find("pvfs.retries"), std::string::npos);
  // ...and the two runs are indistinguishable, event by event.
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, ReplicatedFaultyRunsAreBitIdenticalAcrossInvocations) {
  const std::string a = fig6_fingerprint(replicated_fig6_config(99));
  const std::string b = fig6_fingerprint(replicated_fig6_config(99));
  // Replication actually engaged (the lock is not vacuous)...
  EXPECT_NE(a.find("pvfs.replica_writes"), std::string::npos);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, fig6_fingerprint(replicated_fig6_config(100)));
}

TEST(DeterminismTest, ResyncRunsAreBitIdenticalAcrossInvocations) {
  const std::string a = resync_fingerprint();
  const std::string b = resync_fingerprint();
  // The resync plane actually fired (the lock is not vacuous)...
  EXPECT_NE(a.find("pvfs.resync_stripes"), std::string::npos);
  EXPECT_NE(a.find("pvfs.resync_rounds"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, ManagerTakeoverRunsAreBitIdenticalAcrossInvocations) {
  const std::string a = fig6_fingerprint(takeover_fig6_config(77));
  const std::string b = fig6_fingerprint(takeover_fig6_config(77));
  // The takeover actually fired (the lock is not vacuous)...
  EXPECT_NE(a.find("pvfs.manager_takeovers"), std::string::npos);
  EXPECT_NE(a.find("fault.injected.manager_crash"), std::string::npos);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, fig6_fingerprint(takeover_fig6_config(78)));
}

TEST(DeterminismTest, ScrubbedCorruptionRunsAreBitIdenticalAcrossInvocations) {
  const std::string a = scrub_fingerprint(1);
  const std::string b = scrub_fingerprint(1);
  // The corruption plane actually fired (the lock is not vacuous)...
  EXPECT_NE(a.find("fault.injected.bit_flip"), std::string::npos);
  EXPECT_NE(a.find("pvfs.scrub_chunks"), std::string::npos);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, scrub_fingerprint(32));
}

TEST(DeterminismTest, MigrationRunsAreBitIdenticalAcrossInvocations) {
  const std::string a = migration_fingerprint(11);
  const std::string b = migration_fingerprint(11);
  // The reshard machinery actually fired (the lock is not vacuous)...
  EXPECT_NE(a.find("pvfs.shard_migrations"), std::string::npos);
  EXPECT_NE(a.find("pvfs.shard_splits"), std::string::npos);
  EXPECT_NE(a.find("pvfs.migration_rounds"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, CachedRunsAreBitIdenticalAcrossInvocations) {
  const std::string a = cache_fingerprint(5);
  const std::string b = cache_fingerprint(5);
  // The tier actually engaged (the lock is not vacuous)...
  EXPECT_NE(a.find("pvfs.cache_hits"), std::string::npos);
  EXPECT_NE(a.find("pvfs.cache_lease_revokes"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, CacheDisabledRunsMatchUncachedBaseline) {
  // The discipline every optional plane obeys: disabled means *inert*.
  // A config carrying every cache knob but enabled=false must produce the
  // exact fig6 fingerprint of the defaults — no counters, no events, no
  // timing drift.
  ModelConfig off = faulty_fig6_config(123);
  off.cache.enabled = false;
  off.cache.data_capacity = 1 * kMiB;
  off.cache.write_back = true;
  off.cache.staleness_bound = Duration::ms(1.0);
  off.cache.attr_ttl = Duration::ms(1.0);
  const std::string a = fig6_fingerprint(off);
  const std::string b = fig6_fingerprint(faulty_fig6_config(123));
  EXPECT_EQ(a.find("pvfs.cache"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, DifferentFaultSeedsDiverge) {
  EXPECT_NE(fig6_fingerprint(faulty_fig6_config(123)),
            fig6_fingerprint(faulty_fig6_config(321)));
}

TEST(DeterminismTest, ZeroFaultRunsAreBitIdenticalToo) {
  const std::string a = fig6_fingerprint(ModelConfig::paper_defaults());
  const std::string b = fig6_fingerprint(ModelConfig::paper_defaults());
  EXPECT_EQ(a.find("fault."), std::string::npos);
  EXPECT_EQ(a, b);
}

// --- Golden digests ---------------------------------------------------------

// FNV-1a-64 of each scenario's fingerprint. A change that deliberately
// alters the model re-captures these (the failure message prints the new
// value) and says why in CHANGES.md; a refactor must leave them alone.
constexpr std::pair<const char*, u64> kGoldenDigests[] = {
    {"fig6-faulty-123", 0x2c1a7b8ebe077361ull},
    {"fig6-faulty-321", 0xe4002f3607fdb9d6ull},
    {"fig6-replicated-99", 0xd28d54082fcc6ffaull},
    {"fig6-replicated-100", 0xa52480df597378e6ull},
    {"fig6-takeover-77", 0x7ce980514afd6c58ull},
    {"fig6-takeover-78", 0x836f7d57f9742ceeull},
    {"fig6-fault-free", 0x949a9b53a3c8ea5cull},
    {"resync", 0x5e2794f4ec20d71bull},
    {"scrub-1", 0xa91e3cd1b836dd37ull},
    {"scrub-32", 0x5232f28f54b637ceull},
    {"migration-11", 0xe8ccf5f1115953afull},
    {"cache-5", 0x7c9c0c691f17b5daull},
    {"read-failover", 0xfaf2e64df8a20422ull},
    {"bit-flip-failover", 0xa8417836928774fcull},
    {"lost-write-failover", 0xbd7b32160d660319ull},
    {"read-repair", 0x8bc9572814e96690ull},
    {"pipeline-depth-4", 0x0933e834e7e72e87ull},
};

TEST(DeterminismTest, FingerprintsMatchGoldenDigests) {
  const std::vector<std::pair<const char*, std::function<std::string()>>>
      scenarios = {
          {"fig6-faulty-123",
           [] { return fig6_fingerprint(faulty_fig6_config(123)); }},
          {"fig6-faulty-321",
           [] { return fig6_fingerprint(faulty_fig6_config(321)); }},
          {"fig6-replicated-99",
           [] { return fig6_fingerprint(replicated_fig6_config(99)); }},
          {"fig6-replicated-100",
           [] { return fig6_fingerprint(replicated_fig6_config(100)); }},
          {"fig6-takeover-77",
           [] { return fig6_fingerprint(takeover_fig6_config(77)); }},
          {"fig6-takeover-78",
           [] { return fig6_fingerprint(takeover_fig6_config(78)); }},
          {"fig6-fault-free",
           [] { return fig6_fingerprint(ModelConfig::paper_defaults()); }},
          {"resync", resync_fingerprint},
          {"scrub-1", [] { return scrub_fingerprint(1); }},
          {"scrub-32", [] { return scrub_fingerprint(32); }},
          {"migration-11", [] { return migration_fingerprint(11); }},
          {"cache-5", [] { return cache_fingerprint(5); }},
          {"read-failover", read_failover_fingerprint},
          {"bit-flip-failover", bit_flip_fingerprint},
          {"lost-write-failover", lost_write_fingerprint},
          {"read-repair", read_repair_fingerprint},
          {"pipeline-depth-4", pipeline_fingerprint},
      };
  ASSERT_EQ(scenarios.size(), std::size(kGoldenDigests));
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const auto& [name, run] = scenarios[i];
    ASSERT_STREQ(name, kGoldenDigests[i].first);
    const u64 got = digest(run());
    EXPECT_EQ(got, kGoldenDigests[i].second)
        << name << ": digest 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace pvfsib::pvfs
