// Wires a whole simulated cluster together: event engine, fabric, the
// sharded metadata plane (N active managers, optional per-shard standbys),
// M compute (client) nodes and K I/O nodes — the in-process equivalent of
// the paper's 8-node InfiniBand testbed.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "fault/injector.h"
#include "ib/fabric.h"
#include "pvfs/client.h"
#include "pvfs/iod.h"
#include "pvfs/manager.h"
#include "pvfs/meta_client.h"
#include "sim/engine.h"

namespace pvfsib::pvfs {

class Cluster {
 public:
  // Fluent topology builder:
  //   Cluster c(cfg, Cluster::Topology{}.clients(4).iods(8)
  //                                     .metadata_shards(4).standbys());
  // Unset knobs defer to the config (PvfsParams::metadata_shards,
  // FaultConfig::standby_takeover), so Topology{}.clients(n).iods(m) is
  // exactly the classic two-int constructor.
  struct Topology {
    u32 client_count = 1;
    u32 iod_count = 1;
    u32 shard_count = 0;  // 0: take ModelConfig's pvfs.metadata_shards
    std::optional<bool> with_standbys;  // unset: fault.standby_takeover

    Topology& clients(u32 n) {
      client_count = n;
      return *this;
    }
    Topology& iods(u32 n) {
      iod_count = n;
      return *this;
    }
    Topology& metadata_shards(u32 k) {
      shard_count = k;
      return *this;
    }
    Topology& standbys(bool v = true) {
      with_standbys = v;
      return *this;
    }
  };

  Cluster(const ModelConfig& cfg, const Topology& topo);
  // Classic shape: n clients, m iods, topology knobs from the config.
  Cluster(const ModelConfig& cfg, u32 client_count, u32 iod_count)
      : Cluster(cfg, Topology{}.clients(client_count).iods(iod_count)) {}

  Client& client(u32 i) { return *clients_.at(i); }
  Iod& iod(u32 i) { return *iods_.at(i); }
  // The primary manager of `shard` (historic accessor; most callers want
  // the shard's current authority, active_manager()).
  Manager& manager(u32 shard = 0) { return *managers_.at(shard); }
  // The manager currently holding `shard`'s epoch: the primary until a
  // standby takeover, the standby after.
  Manager& active_manager(u32 shard = 0) { return *active_.at(shard); }
  // The shard's standby manager, or null when the plane runs without one.
  Manager* standby(u32 shard = 0) { return standbys_.at(shard).get(); }
  const ManagerEpoch& manager_epoch(u32 shard = 0) const {
    return epochs_.at(shard);
  }
  // Authoritative shard map the clients' MetaClients seed from.
  const MetaRegistry& registry() const { return registry_; }
  u32 metadata_shards() const { return static_cast<u32>(managers_.size()); }
  sim::Engine& engine() { return engine_; }
  ib::Fabric& fabric() { return *fabric_; }
  fault::Injector& faults() { return faults_; }
  Stats& stats() { return stats_; }
  const ModelConfig& config() const { return cfg_; }
  u32 client_count() const { return static_cast<u32>(clients_.size()); }
  u32 iod_count() const { return static_cast<u32>(iods_.size()); }

  // Drop every iod's page cache (benchmark "without cache" setup) and
  // every client's caching tier.
  void drop_all_caches() {
    for (auto& iod : iods_) iod->drop_caches();
    for (auto& c : clients_) c->data_cache().drop_all();
  }

  // Run the engine until every scheduled event has fired; returns the
  // latest event time (the makespan of whatever was launched).
  TimePoint run() { return engine_.run(); }

  // --- Rolling interval counters (measurement plane) ----------------------
  // Start (or restart) rolling interval sampling of the cluster-wide Stats:
  // a window closes every `window` of virtual time from now until `until`
  // (the final window may be partial), so per-window throughput and
  // server-side rates are visible mid-run instead of only as one end-of-run
  // aggregate. Purely observational — runs that never call this schedule
  // nothing and stay byte-identical.
  IntervalSeries& sample_intervals(Duration window, TimePoint until);
  const IntervalSeries* intervals() const { return intervals_.get(); }

  // Standby takeover of one metadata shard at `at` (normally fired by the
  // injector's takeover hooks, `manager_takeover_delay` after the shard's
  // kManagerCrash window opens; tests may call it directly). Bumps the
  // shard's epoch, scans every iod's stripe headers *belonging to the
  // shard* to rebuild the staleness map conservatively, sweeps the new
  // epoch to the shard's cell on all iods (the zombie-primary fence),
  // promotes the standby in the registry (stale client maps converge via
  // their own rotation), re-points the shard's resync authority and kicks
  // a staleness sweep on every iod so rebuilt resync targets actually
  // heal. Idempotent: a second call while the standby already holds the
  // epoch is a no-op.
  void manager_takeover(u32 shard, TimePoint at);
  void manager_takeover(TimePoint at) { manager_takeover(0, at); }

  // --- Live shard migration / resharding ---------------------------------
  // Online ownership movement in the metadata plane (ARCHITECTURE.md "Live
  // resharding"): the source manager keeps serving while its shard's
  // namespace + version/staleness/corrupt maps and mint floor stream to the
  // target in rate-limited rounds (MigrationParams::stream_bandwidth /
  // round_bytes, pvfs.migration_rounds); after the last round plus
  // cutover_delay a single fenced cutover — one engine instant, so racing
  // clients see either the old owner or the new one, never a half-moved
  // shard — copies the final delta, bumps the shard's epoch (fencing every
  // in-flight mint the source stamped, exactly like a takeover), flips the
  // MetaRegistry and sweeps the epoch to every iod. Crash-safe at every
  // step: a source crash or takeover mid-stream and a target crash
  // (FaultKind::kMigrationTargetCrash) abort cleanly back to the source
  // (pvfs.migration_aborts); a post-cutover zombie source is a pure
  // kWrongShard redirector (pvfs.wrong_shard_during_migration) that stale
  // clients converge through. Runs that never call these schedule nothing
  // and stay byte-identical.

  // Move `shard` onto a freshly provisioned manager ("mgr<s>m"), online.
  // Returns false — and starts nothing — when the shard is invalid or a
  // migration/split already has it in flight. On success the target
  // becomes manager(shard)/active_manager(shard) at cutover
  // (pvfs.shard_migrations) and the retired source lives on as a
  // redirector for stale clients.
  bool migrate_shard(u32 shard, TimePoint at);

  // Grow the plane K -> 2K online: every shard s streams its sibling half
  // (protocol.h split_sibling) to a new manager concurrently, and when the
  // last stream drains, one atomic cutover installs all K new shards —
  // epoch cells, managers, standbys (when the cluster has them), registry
  // entries, iod routing — at a single engine instant
  // (pvfs.shard_splits). Per-pair flips would split-brain names between
  // two managers routing with different shard counts; all-at-once cannot.
  // Any child abort aborts the whole split. Returns false when a
  // migration or split is already in flight.
  bool split_shards(TimePoint at);

  // Any migration stream or split currently in flight?
  bool migration_inflight() const;

  // Start the background scrubber on every iod: a rate-limited periodic
  // sweep (ReplicationParams::scrub_interval / scrub_chunk_bytes) that
  // reads local stripe data back, verifies block checksums, cross-checks
  // headers against the shard authority's staleness map, and kicks resync
  // for anything found rotten. Ticks stop after `until` so engine.run()
  // still terminates. No-op unless replication.factor > 1 and resync are
  // on (the iods' resync wiring); a run that never calls it schedules
  // nothing and stays byte-identical.
  void start_scrub(TimePoint until);

 private:
  // One in-flight shard migration stream (a split runs one per old shard).
  struct MigrationState;
  // Coordination for a K -> 2K split's K concurrent streams.
  struct SplitGroup;

  // Provision a fresh manager for `shard` of a `shard_count`-wide plane.
  std::unique_ptr<Manager> provision_manager(const std::string& name,
                                             u32 shard, u32 shard_count);
  // One rate-limited stream round (self-rescheduling); checks the abort
  // conditions first.
  void migration_round(std::shared_ptr<MigrationState> st);
  // Has this migration hit an abort condition (source crash window,
  // takeover raced the stream, scheduled target crash) at `at`?
  bool migration_aborted(MigrationState& st, TimePoint at);
  void abort_migration(std::shared_ptr<MigrationState> st, TimePoint at);
  // A stream finished draining: cut over (single move) or join the split
  // group barrier.
  void migration_streamed(std::shared_ptr<MigrationState> st);
  void migrate_cutover(std::shared_ptr<MigrationState> st);
  void split_cutover(std::shared_ptr<SplitGroup> group);
  // Last child of an aborted split wound down: clear the flags, count one
  // abort, leave the plane at the old count.
  void wind_down_split(std::shared_ptr<SplitGroup> group, TimePoint at);
  // Post-cutover plumbing shared by move and split: sweep the shard's
  // epoch to every iod and re-point its resync authority.
  void repoint_shard(u32 shard, Manager* owner);
  // Kick a staleness sweep on every iod (adopted staleness maps should
  // heal without waiting for the next crash-restart hook).
  void kick_resync(TimePoint at);

  ModelConfig cfg_;
  Stats stats_;
  sim::Engine engine_;
  // Declared before the fabric, managers, iods and clients that hold
  // references to it.
  fault::Injector faults_;
  std::unique_ptr<ib::Fabric> fabric_;
  // Per-shard epoch cells. Managers hold pointers into it, so growth must
  // not relocate: a deque's push_back (split_shards installing the new
  // shards' cells) leaves existing cells in place, which a vector's would
  // not.
  std::deque<ManagerEpoch> epochs_;
  std::vector<std::unique_ptr<Manager>> managers_;   // per-shard primary
  std::vector<std::unique_ptr<Manager>> standbys_;   // per-shard, may be null
  std::vector<Manager*> active_;                     // per-shard authority
  // Sources retired by a completed migration: kept alive as kWrongShard
  // redirectors because stale client maps still hold raw pointers to them.
  std::vector<std::unique_ptr<Manager>> retired_;
  // Per-shard "a migration stream has this shard" flags, and whether a
  // split owns all of them.
  std::vector<char> migrating_;
  bool split_inflight_ = false;
  u32 cluster_iod_count_ = 0;  // provisioning migration targets
  bool with_standbys_ = false;  // split-born shards get standbys too
  // Declared before clients_ (each Client's MetaClient seeds from it and
  // keeps the pointer for redirect-driven refreshes).
  MetaRegistry registry_;
  // The cluster-wide lease revocation bus for the client caching tier:
  // managers publish create/remove revokes on it, the cluster publishes
  // epoch-bump revokes at takeover/migration/split cutovers, and
  // cache-enabled clients subscribe through their MetaClients. Declared
  // before managers_/clients_ users attach to it; owns nothing but
  // subscription closures.
  LeaseBus lease_bus_;
  std::vector<std::unique_ptr<Iod>> iods_;
  std::vector<std::unique_ptr<Client>> clients_;
  // Rolling interval sampler (sample_intervals); null until requested.
  std::unique_ptr<IntervalSeries> intervals_;
};

}  // namespace pvfsib::pvfs
