// Counter registry used to reproduce the paper's profile tables (e.g.
// Table 6: request counts, registration counts, cache hits, disk op counts,
// communication volumes). Every subsystem takes a Stats& and bumps named
// counters; benches snapshot/diff them.
//
// Also hosts the shared measurement plane the load-generation subsystem and
// the benches build on: a log-bucketed LatencyHistogram (p50/p99/p999
// without storing every sample) and IntervalSeries, rolling per-window
// snapshots of a Stats registry in the style of OrangeFS's
// pint-perf-counter rolling server counters.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"

namespace pvfsib {

class Stats {
 public:
  // The transparent comparator lets the hot-path bumps look up the
  // stat::k* string literals without constructing a std::string per call;
  // an allocation only happens the first time a counter name is seen.
  using CounterMap = std::map<std::string, i64, std::less<>>;

  void add(std::string_view name, i64 delta = 1) { slot(name) += delta; }
  void set(std::string_view name, i64 value) { slot(name) = value; }
  // High-water-mark counter: keep the largest value ever reported.
  void set_max(std::string_view name, i64 value) {
    i64& s = slot(name);
    if (value > s) s = value;
  }

  i64 get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  void clear() { counters_.clear(); }

  const CounterMap& counters() const { return counters_; }

  // Counters in `*this` minus counters in `base` (missing keys read as 0).
  Stats diff(const Stats& base) const {
    Stats out;
    for (const auto& [k, v] : counters_) {
      const i64 d = v - base.get(k);
      if (d != 0) out.counters_[k] = d;
    }
    return out;
  }

  std::string to_string() const;

 private:
  i64& slot(std::string_view name) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(std::string(name), 0).first;
    }
    return it->second;
  }

  CounterMap counters_;
};

// Log-bucketed latency histogram: constant memory, deterministic quantile
// estimates with bounded relative error, no per-sample storage. Buckets are
// power-of-two octaves split into 16 sub-buckets (HdrHistogram-style), so a
// quantile is reported as the midpoint of a bucket at most 6.25% wide;
// values below 16 ns land in exact unit buckets. min/max/sum are tracked
// exactly and quantiles clamp into [min, max].
class LatencyHistogram {
 public:
  void record(Duration d) {
    const i64 ns = d.as_ns() < 0 ? 0 : d.as_ns();
    ++buckets_[bucket_of(ns)];
    ++count_;
    sum_ns_ += ns;
    if (ns < min_ns_) min_ns_ = ns;
    if (ns > max_ns_) max_ns_ = ns;
  }

  // Smallest recorded value v such that at least ceil(p * count) samples
  // are <= v, reported at bucket resolution. p outside [0, 1] is clamped.
  Duration quantile(double p) const {
    if (count_ == 0) return Duration::zero();
    if (p <= 0.0) return Duration::ns(min_ns_);
    const u64 rank = p >= 1.0
                         ? count_
                         : std::max<u64>(
                               1, static_cast<u64>(
                                      p * static_cast<double>(count_) + 0.5));
    u64 cum = 0;
    for (u32 i = 0; i < kBuckets; ++i) {
      cum += buckets_[i];
      if (cum >= rank) {
        const i64 mid = bucket_mid(i);
        return Duration::ns(std::min(std::max(mid, min_ns_), max_ns_));
      }
    }
    return Duration::ns(max_ns_);
  }

  u64 count() const { return count_; }
  Duration min() const {
    return count_ == 0 ? Duration::zero() : Duration::ns(min_ns_);
  }
  Duration max() const { return Duration::ns(max_ns_); }
  Duration mean() const {
    return count_ == 0 ? Duration::zero()
                       : Duration::ns(sum_ns_ / static_cast<i64>(count_));
  }

  void merge(const LatencyHistogram& o) {
    for (u32 i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ns_ += o.sum_ns_;
    if (o.count_ > 0) {
      if (o.min_ns_ < min_ns_) min_ns_ = o.min_ns_;
      if (o.max_ns_ > max_ns_) max_ns_ = o.max_ns_;
    }
  }

  void clear() { *this = LatencyHistogram{}; }

 private:
  static constexpr u32 kSubBits = 4;            // 16 sub-buckets per octave
  static constexpr u32 kSub = 1u << kSubBits;
  static constexpr u32 kBuckets = (64 - kSubBits) * kSub;

  static u32 bucket_of(i64 ns) {
    const u64 v = static_cast<u64>(ns);
    if (v < kSub) return static_cast<u32>(v);
    const u32 e = 63 - static_cast<u32>(std::countl_zero(v));
    const u32 sub = static_cast<u32>((v >> (e - kSubBits)) & (kSub - 1));
    return (e - kSubBits + 1) * kSub + sub;
  }

  static i64 bucket_mid(u32 idx) {
    if (idx < kSub) return static_cast<i64>(idx);  // exact unit buckets
    const u32 e = idx / kSub + kSubBits - 1;
    const u32 sub = idx % kSub;
    const i64 lo = static_cast<i64>(kSub + sub) << (e - kSubBits);
    const i64 width = static_cast<i64>(1) << (e - kSubBits);
    return lo + width / 2;
  }

  std::array<u64, kBuckets> buckets_{};
  u64 count_ = 0;
  i64 sum_ns_ = 0;
  i64 min_ns_ = std::numeric_limits<i64>::max();
  i64 max_ns_ = 0;
};

// Rolling interval counters over a live Stats registry: each window's delta
// is the counter movement since the previous window closed, so per-window
// throughput and server-side rates are visible mid-run instead of only as
// one end-of-run aggregate (OrangeFS pint-perf-counter's rolling server
// counters are the exemplar). The caller decides the sampling cadence —
// Cluster::sample_intervals() schedules closes on the event engine.
class IntervalSeries {
 public:
  struct Window {
    TimePoint start;
    TimePoint end;
    Stats delta;
  };

  IntervalSeries(const Stats* source, TimePoint start)
      : source_(source), last_(*source), window_start_(start) {}

  // Close the current window at `now`: its delta is everything the source
  // counters moved since the previous close (or construction).
  void close_window(TimePoint now) {
    windows_.push_back(Window{window_start_, now, source_->diff(last_)});
    last_ = *source_;
    window_start_ = now;
  }

  const std::vector<Window>& windows() const { return windows_; }

  // Counter movement in window `i` as a per-second rate.
  double rate_per_sec(size_t i, std::string_view name) const {
    const Window& w = windows_.at(i);
    const double secs = (w.end - w.start).as_sec();
    if (secs <= 0.0) return 0.0;
    return static_cast<double>(w.delta.get(name)) / secs;
  }

 private:
  const Stats* source_;
  Stats last_;            // snapshot at the last window close
  TimePoint window_start_;
  std::vector<Window> windows_;
};

// Canonical counter names (keep in one place so benches and modules agree).
namespace stat {
inline constexpr const char* kMrRegister = "ib.mr.register";
inline constexpr const char* kMrDeregister = "ib.mr.deregister";
inline constexpr const char* kMrCacheHit = "ib.mr.cache_hit";
inline constexpr const char* kMrCacheMiss = "ib.mr.cache_miss";
inline constexpr const char* kMrCacheEvict = "ib.mr.cache_evict";
inline constexpr const char* kMrRegisteredBytes = "ib.mr.registered_bytes";
inline constexpr const char* kRdmaWrite = "ib.rdma.write";
inline constexpr const char* kRdmaRead = "ib.rdma.read";
inline constexpr const char* kSend = "ib.send";
inline constexpr const char* kNetBytesData = "net.bytes.data";
inline constexpr const char* kNetBytesControl = "net.bytes.control";
inline constexpr const char* kNetBytesInterClient = "net.bytes.inter_client";
inline constexpr const char* kDiskRead = "disk.read";
inline constexpr const char* kDiskWrite = "disk.write";
inline constexpr const char* kDiskSeek = "disk.seek";
inline constexpr const char* kDiskReadBytes = "disk.read_bytes";
inline constexpr const char* kDiskWriteBytes = "disk.write_bytes";
inline constexpr const char* kFsLseek = "fs.lseek";
inline constexpr const char* kFsLock = "fs.lock";
inline constexpr const char* kCacheHitBytes = "disk.cache_hit_bytes";
inline constexpr const char* kCacheMissBytes = "disk.cache_miss_bytes";
inline constexpr const char* kPvfsRequest = "pvfs.request";
inline constexpr const char* kPvfsReply = "pvfs.reply";
// Pipelining (only reported when pipeline_depth > 1 so depth-1 runs keep
// their counter sets — and therefore their profile tables — seed-identical).
inline constexpr const char* kPvfsRoundsInflightMax = "pvfs.rounds_inflight_max";
inline constexpr const char* kPvfsPipelineStalls = "pvfs.pipeline_stalls";
// Fault plane and recovery (reported only when FaultConfig is non-trivial,
// so zero-fault runs keep counter sets — and profile tables — identical).
inline constexpr const char* kFaultRetransmit = "fault.injected.retransmit";
inline constexpr const char* kFaultLatencySpike = "fault.injected.latency_spike";
inline constexpr const char* kFaultCompletionError =
    "fault.injected.completion_error";
inline constexpr const char* kFaultRequestDrop = "fault.injected.request_drop";
inline constexpr const char* kFaultReplyDrop = "fault.injected.reply_drop";
inline constexpr const char* kFaultIodCrash = "fault.injected.iod_crash";
inline constexpr const char* kFaultIodDownDrop = "fault.injected.iod_down_drop";
inline constexpr const char* kFaultMetaRequestDrop =
    "fault.injected.meta_request_drop";
inline constexpr const char* kFaultManagerCrash =
    "fault.injected.manager_crash";
inline constexpr const char* kFaultManagerDownDrop =
    "fault.injected.manager_down_drop";
inline constexpr const char* kPvfsRetries = "pvfs.retries";
inline constexpr const char* kPvfsTimeouts = "pvfs.timeouts";
inline constexpr const char* kPvfsReplaysDeduped = "pvfs.replays_deduped";
inline constexpr const char* kPvfsMetaRetries = "pvfs.meta_retries";
// Manager takeover plane (reported only when a standby manager is placed
// and a manager crash actually fires, so runs without manager faults keep
// counter sets identical). meta_failovers counts a client re-targeting a
// metadata request at the other manager; epoch_rejections counts fenced
// stale-epoch version mints / staleness notes (zombie-primary protection).
inline constexpr const char* kPvfsMetaFailovers = "pvfs.meta_failovers";
inline constexpr const char* kPvfsEpochRejections = "pvfs.epoch_rejections";
inline constexpr const char* kPvfsManagerTakeovers = "pvfs.manager_takeovers";
// Sharded metadata plane (reported only when a request actually hits a
// wrong-shard manager or a takeover bumps the shard map — never in
// fault-free runs, whose maps are seeded correct at mount and stay so).
// shard_redirects counts kWrongShard replies; shard_map_refreshes counts
// the map refreshes those redirects (and takeovers) deliver to clients.
inline constexpr const char* kPvfsShardRedirects = "pvfs.shard_redirects";
inline constexpr const char* kPvfsShardMapRefreshes =
    "pvfs.shard_map_refreshes";
// Live shard migration / resharding (reported only when a migration or
// split is actually started via Cluster::migrate_shard()/split_shards(), so
// every zero-migration run keeps counter sets — and fingerprints —
// identical). shard_migrations counts completed single-shard moves,
// shard_splits completed K->2K plane growths, migration_rounds the
// rate-limited snapshot stream rounds, migration_aborts cleanly abandoned
// migrations (source crash mid-stream, target crash, or a takeover racing
// the stream), and wrong_shard_during_migration the kWrongShard redirects
// answered by a manager that lost the name to a completed migration/split
// while clients still held stale maps.
inline constexpr const char* kPvfsShardMigrations = "pvfs.shard_migrations";
inline constexpr const char* kPvfsShardSplits = "pvfs.shard_splits";
inline constexpr const char* kPvfsMigrationRounds = "pvfs.migration_rounds";
inline constexpr const char* kPvfsMigrationAborts = "pvfs.migration_aborts";
inline constexpr const char* kPvfsWrongShardDuringMigration =
    "pvfs.wrong_shard_during_migration";
inline constexpr const char* kFaultMigrationTargetCrash =
    "fault.injected.migration_target_crash";
// Client re-minted a write round's version/epoch after an iod fenced the
// old-epoch mint (closes the sub-quorum old-epoch divergence window).
inline constexpr const char* kPvfsVersionRemints = "pvfs.version_remints";
// Partial-round restart: replays whose payload already landed in the
// target's staging buffer skip the wire phase entirely.
inline constexpr const char* kPvfsPartialRestarts = "pvfs.partial_restarts";
// Replication and failover (reported only when replication_factor > 1, so
// classic single-copy runs keep counter sets — and baselines — identical).
inline constexpr const char* kPvfsReplicaWrites = "pvfs.replica_writes";
inline constexpr const char* kPvfsQuorumWaits = "pvfs.quorum_waits";
inline constexpr const char* kPvfsFailovers = "pvfs.failovers";
// Version plane (stripe versioning, read-repair, background resync). All
// four only ever appear at replication_factor > 1, keeping factor-1 counter
// sets baseline-identical; resync_* additionally require
// ReplicationParams::resync. None of them count toward pvfs.request/reply
// (repair and resync traffic is out-of-band of the round protocol).
inline constexpr const char* kPvfsReadRepairs = "pvfs.read_repairs";
inline constexpr const char* kPvfsStaleReadsAvoided =
    "pvfs.stale_reads_avoided";
inline constexpr const char* kPvfsResyncStripes = "pvfs.resync_stripes";
inline constexpr const char* kPvfsResyncRounds = "pvfs.resync_rounds";
// Data-integrity plane (stripe block checksums, corruption injection,
// verify-on-read, scrubber). The fault.injected.* corruption counters move
// only when a corruption fault actually fires; the pvfs.* ones only when a
// checksum/version mismatch is detected, failed over, or repaired — so
// fault-free runs (and fault runs without corruption) keep counter sets
// byte-identical. scrub_* additionally require the scrubber to be enabled.
inline constexpr const char* kFaultBitFlip = "fault.injected.bit_flip";
inline constexpr const char* kFaultTornWrite = "fault.injected.torn_write";
inline constexpr const char* kFaultLostWrite = "fault.injected.lost_write";
inline constexpr const char* kPvfsCorruptionsDetected =
    "pvfs.corruptions_detected";
inline constexpr const char* kPvfsCorruptReadsFailedOver =
    "pvfs.corrupt_reads_failed_over";
inline constexpr const char* kPvfsCorruptionsRepaired =
    "pvfs.corruptions_repaired";
inline constexpr const char* kPvfsScrubChunks = "pvfs.scrub_chunks";
inline constexpr const char* kPvfsScrubBytes = "pvfs.scrub_bytes";
inline constexpr const char* kPvfsScrubCorruptions =
    "pvfs.scrub_corruptions_found";
inline constexpr const char* kPvfsScrubStaleHeaders =
    "pvfs.scrub_stale_headers_found";
// Client caching tier (src/cache/). All four move only when
// CacheParams::enabled is set, so cache-off runs keep counter sets — and
// every figure baseline — byte-identical. cache_hits/misses count attr and
// data lookups together; invalidations counts entries dropped by write
// notices, version-tag conflicts and name invalidation; lease_revokes
// counts entries dropped by lease revocation (create/remove on the name,
// epoch bumps on the owning shard).
inline constexpr const char* kPvfsCacheHits = "pvfs.cache_hits";
inline constexpr const char* kPvfsCacheMisses = "pvfs.cache_misses";
inline constexpr const char* kPvfsCacheInvalidations =
    "pvfs.cache_invalidations";
inline constexpr const char* kPvfsCacheLeaseRevokes =
    "pvfs.cache_lease_revokes";
inline constexpr const char* kAdsSieved = "ads.sieved";
inline constexpr const char* kAdsSeparate = "ads.separate";
inline constexpr const char* kAdsExtraBytes = "ads.extra_bytes";
inline constexpr const char* kOgrGroups = "ogr.groups";
inline constexpr const char* kOgrFallbacks = "ogr.fallbacks";
inline constexpr const char* kOgrOsQueries = "ogr.os_queries";
// Registration cost (ns) the client charged its operations up front.
inline constexpr const char* kOgrPreregNs = "ogr.prereg_ns";
inline constexpr const char* kHoleQueries = "vmem.hole_query";
}  // namespace stat

}  // namespace pvfsib
