// Counter registry used to reproduce the paper's profile tables (e.g.
// Table 6: request counts, registration counts, cache hits, disk op counts,
// communication volumes). Every subsystem takes a Stats& and bumps named
// counters; benches snapshot/diff them.
//
// The registry is a dense array. Every counter name lives in one table,
// stat::kNames, and a stat::Id is an index into it, so a bump is an indexed
// add. A bitmask records which counters were touched: a counter added to or
// set, even by 0, is touched and prints, and an untouched one reads as 0
// and does not print. Output lists the touched counters in lexicographic
// name order.
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
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"

namespace pvfsib {

namespace stat {

// The one table of counter names, in byte-wise lexicographic order, so that
// walking ids in index order prints names in name order. A new counter adds
// its name here and its Id at the end of this file. Each name views a string
// literal, so its data() is null-terminated.
inline constexpr auto kNames = std::to_array<std::string_view>({
    "ads.extra_bytes", "ads.separate", "ads.sieved", "disk.cache_hit_bytes",
    "disk.cache_miss_bytes", "disk.read", "disk.read_bytes", "disk.seek",
    "disk.write", "disk.write_bytes", "fault.injected.bit_flip",
    "fault.injected.completion_error", "fault.injected.iod_crash",
    "fault.injected.iod_down_drop", "fault.injected.latency_spike",
    "fault.injected.lost_write", "fault.injected.manager_crash",
    "fault.injected.manager_down_drop", "fault.injected.meta_request_drop",
    "fault.injected.migration_target_crash", "fault.injected.reply_drop",
    "fault.injected.request_drop", "fault.injected.retransmit",
    "fault.injected.torn_write", "fs.lock", "fs.lseek", "ib.mr.cache_evict",
    "ib.mr.cache_hit", "ib.mr.cache_miss", "ib.mr.deregister", "ib.mr.register",
    "ib.mr.registered_bytes", "ib.rdma.read", "ib.rdma.write", "ib.send",
    "net.bytes.control", "net.bytes.data", "net.bytes.inter_client",
    "ogr.fallbacks", "ogr.groups", "ogr.os_queries", "ogr.prereg_ns",
    "pvfs.cache_hits", "pvfs.cache_invalidations", "pvfs.cache_lease_revokes",
    "pvfs.cache_misses", "pvfs.corrupt_reads_failed_over",
    "pvfs.corruptions_detected", "pvfs.corruptions_repaired",
    "pvfs.epoch_rejections", "pvfs.failovers", "pvfs.manager_takeovers",
    "pvfs.meta_failovers", "pvfs.meta_retries", "pvfs.migration_aborts",
    "pvfs.migration_rounds", "pvfs.partial_restarts", "pvfs.pipeline_stalls",
    "pvfs.quorum_waits", "pvfs.read_repairs", "pvfs.replays_deduped",
    "pvfs.replica_writes", "pvfs.reply", "pvfs.request", "pvfs.resync_rounds",
    "pvfs.resync_stripes", "pvfs.retries", "pvfs.rounds_inflight_max",
    "pvfs.scrub_bytes", "pvfs.scrub_chunks", "pvfs.scrub_corruptions_found",
    "pvfs.scrub_stale_headers_found", "pvfs.shard_map_refreshes",
    "pvfs.shard_migrations", "pvfs.shard_redirects", "pvfs.shard_splits",
    "pvfs.stale_reads_avoided", "pvfs.timeouts", "pvfs.version_remints",
    "pvfs.wrong_shard_during_migration",
});
inline constexpr size_t kCount = kNames.size();

static_assert(std::ranges::adjacent_find(kNames,
                                         std::ranges::greater_equal{}) ==
                  kNames.end(),
              "stat::kNames must be sorted and free of duplicates");

// A counter: the index of its name in kNames. An Id is made only at compile
// time, from a name in the table (any other name does not compile), and
// converts back to that name.
class Id {
 public:
  consteval explicit Id(std::string_view name) : index_(index_of(name)) {}

  constexpr u32 index() const { return index_; }
  constexpr operator const char*() const { return kNames[index_].data(); }

 private:
  static consteval u32 index_of(std::string_view name) {
    for (u32 i = 0; i < kCount; ++i) {
      if (name == kNames[i]) return i;
    }
    throw "stat::Id: name is not in stat::kNames";
  }

  u32 index_;
};

}  // namespace stat

class Stats {
 public:
  void add(stat::Id id, i64 delta = 1) { touch(id.index()) += delta; }
  void set(stat::Id id, i64 value) { touch(id.index()) = value; }
  // High-water-mark counter: keep the largest value ever reported.
  void set_max(stat::Id id, i64 value) {
    i64& v = touch(id.index());
    if (value > v) v = value;
  }

  i64 get(stat::Id id) const { return values_[id.index()]; }
  // By name, for readers that hold a name; an unknown name reads as 0.
  i64 get(std::string_view name) const;

  // Whether the counter was ever added to or set (even by 0).
  bool touched(stat::Id id) const {
    return (touched_[id.index() / 64] >> (id.index() % 64)) & 1;
  }

  void clear() { *this = Stats{}; }

  // The touched counters as (name, value) pairs, in name order.
  std::vector<std::pair<std::string, i64>> counters() const;

  // Counters in `*this` minus counters in `base`: every counter touched in
  // `*this` whose difference is nonzero (untouched counters read as 0).
  Stats diff(const Stats& base) const;

  std::string to_string() const;

 private:
  i64& touch(u32 i) {
    touched_[i / 64] |= u64{1} << (i % 64);
    return values_[i];
  }

  // Calls f(index) for every touched counter, in name order.
  template <typename F>
  void for_each_touched(F&& f) const;

  std::array<i64, stat::kCount> values_{};  // 0 wherever not touched
  std::array<u64, (stat::kCount + 63) / 64> touched_{};
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

  // Smallest recorded value v such that at least `rank` samples are <= v,
  // reported at bucket resolution, where rank = floor(p * count + 0.5), at
  // least 1 (p = 0.31 with 10 samples is rank 3). p outside [0, 1] is
  // clamped.
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
inline constexpr Id kMrRegister{"ib.mr.register"};
inline constexpr Id kMrDeregister{"ib.mr.deregister"};
inline constexpr Id kMrCacheHit{"ib.mr.cache_hit"};
inline constexpr Id kMrCacheMiss{"ib.mr.cache_miss"};
inline constexpr Id kMrCacheEvict{"ib.mr.cache_evict"};
inline constexpr Id kMrRegisteredBytes{"ib.mr.registered_bytes"};
inline constexpr Id kRdmaWrite{"ib.rdma.write"};
inline constexpr Id kRdmaRead{"ib.rdma.read"};
inline constexpr Id kSend{"ib.send"};
inline constexpr Id kNetBytesData{"net.bytes.data"};
inline constexpr Id kNetBytesControl{"net.bytes.control"};
inline constexpr Id kNetBytesInterClient{"net.bytes.inter_client"};
inline constexpr Id kDiskRead{"disk.read"};
inline constexpr Id kDiskWrite{"disk.write"};
inline constexpr Id kDiskSeek{"disk.seek"};
inline constexpr Id kDiskReadBytes{"disk.read_bytes"};
inline constexpr Id kDiskWriteBytes{"disk.write_bytes"};
inline constexpr Id kFsLseek{"fs.lseek"};
inline constexpr Id kFsLock{"fs.lock"};
inline constexpr Id kCacheHitBytes{"disk.cache_hit_bytes"};
inline constexpr Id kCacheMissBytes{"disk.cache_miss_bytes"};
inline constexpr Id kPvfsRequest{"pvfs.request"};
inline constexpr Id kPvfsReply{"pvfs.reply"};
// Pipelining (only reported when pipeline_depth > 1 so depth-1 runs keep
// their counter sets — and therefore their profile tables — seed-identical).
inline constexpr Id kPvfsRoundsInflightMax{"pvfs.rounds_inflight_max"};
inline constexpr Id kPvfsPipelineStalls{"pvfs.pipeline_stalls"};
// Fault plane and recovery (reported only when FaultConfig is non-trivial,
// so zero-fault runs keep counter sets — and profile tables — identical).
inline constexpr Id kFaultRetransmit{"fault.injected.retransmit"};
inline constexpr Id kFaultLatencySpike{"fault.injected.latency_spike"};
inline constexpr Id kFaultCompletionError{"fault.injected.completion_error"};
inline constexpr Id kFaultRequestDrop{"fault.injected.request_drop"};
inline constexpr Id kFaultReplyDrop{"fault.injected.reply_drop"};
inline constexpr Id kFaultIodCrash{"fault.injected.iod_crash"};
inline constexpr Id kFaultIodDownDrop{"fault.injected.iod_down_drop"};
inline constexpr Id kFaultMetaRequestDrop{"fault.injected.meta_request_drop"};
inline constexpr Id kFaultManagerCrash{"fault.injected.manager_crash"};
inline constexpr Id kFaultManagerDownDrop{"fault.injected.manager_down_drop"};
inline constexpr Id kPvfsRetries{"pvfs.retries"};
inline constexpr Id kPvfsTimeouts{"pvfs.timeouts"};
inline constexpr Id kPvfsReplaysDeduped{"pvfs.replays_deduped"};
inline constexpr Id kPvfsMetaRetries{"pvfs.meta_retries"};
// Manager takeover plane (reported only when a standby manager is placed
// and a manager crash actually fires, so runs without manager faults keep
// counter sets identical). meta_failovers counts a client re-targeting a
// metadata request at the other manager; epoch_rejections counts fenced
// stale-epoch version mints / staleness notes (zombie-primary protection).
inline constexpr Id kPvfsMetaFailovers{"pvfs.meta_failovers"};
inline constexpr Id kPvfsEpochRejections{"pvfs.epoch_rejections"};
inline constexpr Id kPvfsManagerTakeovers{"pvfs.manager_takeovers"};
// Sharded metadata plane (reported only when a request actually hits a
// wrong-shard manager or a takeover bumps the shard map — never in
// fault-free runs, whose maps are seeded correct at mount and stay so).
// shard_redirects counts kWrongShard replies; shard_map_refreshes counts
// the map refreshes those redirects (and takeovers) deliver to clients.
inline constexpr Id kPvfsShardRedirects{"pvfs.shard_redirects"};
inline constexpr Id kPvfsShardMapRefreshes{"pvfs.shard_map_refreshes"};
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
inline constexpr Id kPvfsShardMigrations{"pvfs.shard_migrations"};
inline constexpr Id kPvfsShardSplits{"pvfs.shard_splits"};
inline constexpr Id kPvfsMigrationRounds{"pvfs.migration_rounds"};
inline constexpr Id kPvfsMigrationAborts{"pvfs.migration_aborts"};
inline constexpr Id kPvfsWrongShardDuringMigration{
    "pvfs.wrong_shard_during_migration"};
inline constexpr Id kFaultMigrationTargetCrash{
    "fault.injected.migration_target_crash"};
// Client re-minted a write round's version/epoch after an iod fenced the
// old-epoch mint (closes the sub-quorum old-epoch divergence window).
inline constexpr Id kPvfsVersionRemints{"pvfs.version_remints"};
// Partial-round restart: replays whose payload already landed in the
// target's staging buffer skip the wire phase entirely.
inline constexpr Id kPvfsPartialRestarts{"pvfs.partial_restarts"};
// Replication and failover (reported only when replication_factor > 1, so
// classic single-copy runs keep counter sets — and baselines — identical).
inline constexpr Id kPvfsReplicaWrites{"pvfs.replica_writes"};
inline constexpr Id kPvfsQuorumWaits{"pvfs.quorum_waits"};
inline constexpr Id kPvfsFailovers{"pvfs.failovers"};
// Version plane (stripe versioning, read-repair, background resync). All
// four only ever appear at replication_factor > 1, keeping factor-1 counter
// sets baseline-identical; resync_* additionally require
// ReplicationParams::resync. None of them count toward pvfs.request/reply
// (repair and resync traffic is out-of-band of the round protocol).
inline constexpr Id kPvfsReadRepairs{"pvfs.read_repairs"};
inline constexpr Id kPvfsStaleReadsAvoided{"pvfs.stale_reads_avoided"};
inline constexpr Id kPvfsResyncStripes{"pvfs.resync_stripes"};
inline constexpr Id kPvfsResyncRounds{"pvfs.resync_rounds"};
// Data-integrity plane (stripe block checksums, corruption injection,
// verify-on-read, scrubber). The fault.injected.* corruption counters move
// only when a corruption fault actually fires; the pvfs.* ones only when a
// checksum/version mismatch is detected, failed over, or repaired — so
// fault-free runs (and fault runs without corruption) keep counter sets
// byte-identical. scrub_* additionally require the scrubber to be enabled.
inline constexpr Id kFaultBitFlip{"fault.injected.bit_flip"};
inline constexpr Id kFaultTornWrite{"fault.injected.torn_write"};
inline constexpr Id kFaultLostWrite{"fault.injected.lost_write"};
inline constexpr Id kPvfsCorruptionsDetected{"pvfs.corruptions_detected"};
inline constexpr Id kPvfsCorruptReadsFailedOver{
    "pvfs.corrupt_reads_failed_over"};
inline constexpr Id kPvfsCorruptionsRepaired{"pvfs.corruptions_repaired"};
inline constexpr Id kPvfsScrubChunks{"pvfs.scrub_chunks"};
inline constexpr Id kPvfsScrubBytes{"pvfs.scrub_bytes"};
inline constexpr Id kPvfsScrubCorruptions{"pvfs.scrub_corruptions_found"};
inline constexpr Id kPvfsScrubStaleHeaders{"pvfs.scrub_stale_headers_found"};
// Client caching tier (src/cache/). All four move only when
// CacheParams::enabled is set, so cache-off runs keep counter sets — and
// every figure baseline — byte-identical. cache_hits/misses count attr and
// data lookups together; invalidations counts entries dropped by write
// notices, version-tag conflicts and name invalidation; lease_revokes
// counts entries dropped by lease revocation (create/remove on the name,
// epoch bumps on the owning shard).
inline constexpr Id kPvfsCacheHits{"pvfs.cache_hits"};
inline constexpr Id kPvfsCacheMisses{"pvfs.cache_misses"};
inline constexpr Id kPvfsCacheInvalidations{"pvfs.cache_invalidations"};
inline constexpr Id kPvfsCacheLeaseRevokes{"pvfs.cache_lease_revokes"};
inline constexpr Id kAdsSieved{"ads.sieved"};
inline constexpr Id kAdsSeparate{"ads.separate"};
inline constexpr Id kAdsExtraBytes{"ads.extra_bytes"};
inline constexpr Id kOgrGroups{"ogr.groups"};
inline constexpr Id kOgrFallbacks{"ogr.fallbacks"};
inline constexpr Id kOgrOsQueries{"ogr.os_queries"};
// Registration cost (ns) the client charged its operations up front.
inline constexpr Id kOgrPreregNs{"ogr.prereg_ns"};
}  // namespace stat

}  // namespace pvfsib
