// The PVFS metadata manager: cluster-wide namespace, striping parameters.
// It never participates in data transfers (Section 2.1); its cost is the
// control round-trip on create/open/stat.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "common/config.h"
#include "common/status.h"
#include "ib/fabric.h"
#include "pvfs/protocol.h"
#include "sim/resource.h"
#include "vmem/address_space.h"

namespace pvfsib::fault {
class Injector;
}

namespace pvfsib::pvfs {

// Construction parameters for a Manager (designated-initializer friendly).
struct ManagerOptions {
  // Physical I/O servers behind the metadata plane; bounds replica
  // placement (a file may stripe over fewer). 0 (unknown) only forbids
  // replicated creates.
  u32 cluster_iod_count = 0;
  // Labels the manager's HCA ("mgr" for a lone primary, "mgr2" for its
  // standby, "mgr<k>"/"mgr<k>b" per shard when the plane is sharded).
  std::string name = "mgr";
  // Which hash shard of the namespace/version plane this manager owns, out
  // of `shard_count` active managers. The defaults are the classic
  // unsharded plane: one manager owning everything.
  u32 shard_id = 0;
  u32 shard_count = 1;
};

class Manager {
 public:
  // `faults` routes metadata requests through the fault plane.
  Manager(const ModelConfig& cfg, ib::Fabric& fabric, Stats& stats,
          fault::Injector& faults, ManagerOptions opts = {});

  // Metadata operations; `from` is the requesting client's HCA and `ready`
  // its request time. Each returns the completion time of the round-trip
  // alongside the result. When the fault plane swallows the request the
  // result is kUnavailable ("metadata request lost") and the namespace is
  // untouched; the client's retry path resends after a timeout. A request
  // for a name outside this manager's shard is answered kWrongShard (fast
  // redirect; MetaClient refreshes its map and re-routes).
  // `base_iod` = kAutoBase lets the manager rotate bases across files so
  // small files spread over the I/O servers (PVFS's default placement).
  static constexpr u32 kAutoBase = kAutoBaseIod;

  // Typed dispatcher over create/open/stat/remove — the wire entry point
  // MetaClient routes through. stat is open-shaped (same round-trip, no
  // client-side state).
  Timed<MetaReply> serve(ib::Hca& from, TimePoint ready,
                         const MetaRequest& rq);
  Timed<Result<FileMeta>> create(ib::Hca& from, TimePoint ready,
                                 const std::string& name, u64 stripe_size,
                                 u32 iod_count, u32 base_iod = kAutoBase,
                                 u32 replication_factor = 1);
  Timed<Result<FileMeta>> open(ib::Hca& from, TimePoint ready,
                               const std::string& name);
  Timed<Status> remove(ib::Hca& from, TimePoint ready,
                       const std::string& name);

  // Rotated primary/backup placement: logical stripe server k's replica j
  // lands on physical iod (base + k + j) mod physical_count (chained
  // declustering, so each iod backs up its predecessor's primaries).
  // Fails when factor < 1, factor > physical_count, or physical_count == 0
  // with factor > 1.
  static Result<std::vector<std::vector<u32>>> place_replicas(
      u32 base, u32 stripe_width, u32 factor, u32 physical_count);

  // Size bookkeeping (piggybacked on I/O completion in real PVFS; free).
  void note_written(Handle h, u64 end_offset);
  Result<FileMeta> stat(const std::string& name) const;

  // --- Version plane ----------------------------------------------------
  // Per-(handle, logical stripe) version sequence plus the staleness map:
  // which version each replica of the chain is recorded to hold. Like
  // note_written these are free piggyback calls (version allocation rides
  // the write round, ack notes ride the reply) — they add no wire traffic,
  // so factor-1 and fault-free timelines are untouched.

  // Mint the next version for a replicated write round on (h, stripe).
  u64 allocate_stripe_version(Handle h, u32 stripe);
  // Record that physical iod `iod_id` acked/served (h, stripe) at `version`
  // (max semantics; versions only move forward). No-op for unknown files
  // (handle-liveness fence: a post-settle late ack arriving after remove()
  // dropped the range must not resurrect the entry) or iods outside the
  // stripe's replica set. `note_epoch` is the manager epoch the version was
  // minted under (0 = trusted, e.g. read observations of applied headers);
  // notes minted under a stale epoch are rejected (pvfs.epoch_rejections)
  // so a zombie primary's in-flight writes cannot mark replicas current.
  void note_replica_version(Handle h, u32 stripe, u32 iod_id, u64 version,
                            u64 note_epoch = 0);

  struct StripeVersionView {
    bool known = false;  // false: no versioned write ever touched the stripe
    u64 latest = 0;
    // Recorded version per replica position (parallel to
    // FileMeta.replicas[stripe]); a replica trailing `latest` is stale. A
    // replica flagged corrupt reports 0 here — whatever version its header
    // claims, its bytes are untrustworthy, so placement and read-repair
    // must treat it as holding nothing.
    std::vector<u64> replica_versions;
  };
  StripeVersionView stripe_versions(Handle h, u32 stripe) const;

  // --- Cache write-notice plane -----------------------------------------
  // Per-(handle, logical stripe) write sequence for the client caching
  // tier (src/cache/). Cache-enabled clients bump it at write submission
  // and validate cached extents against it at hit time — a free host-side
  // piggyback exactly like the version plane, covering replication factor
  // 1 where no stripe versions are minted. Cache-off clients never call
  // either, so the plane stays empty and timelines untouched. The state is
  // deliberately manager-resident soft state: a takeover or migration
  // restarts sequences at zero, and the epoch-bump lease revoke drops the
  // affected shard's cached entries so the restart cannot re-validate
  // anything stale.
  u64 bump_data_seq(Handle h, u32 stripe) { return ++data_seq_[{h, stripe}]; }
  u64 data_seq(Handle h, u32 stripe) const {
    const auto it = data_seq_.find({h, stripe});
    return it == data_seq_.end() ? 0 : it->second;
  }

  // --- Cache lease plane -------------------------------------------------
  // Revocation bus membership (see protocol.h LeaseBus). Attached by the
  // Cluster; a detached manager (standalone tests, pre-PR builds) simply
  // never revokes. create()/remove() publish on their success paths.
  void attach_lease_bus(LeaseBus* bus) { lease_bus_ = bus; }

  // --- Integrity plane --------------------------------------------------
  // A reader's checksum verification (or the scrubber) caught physical iod
  // `iod_id` serving corrupt bytes for (h, stripe): flag the copy. Fenced
  // exactly like note_replica_version — unknown handles (a late report
  // racing remove()) and iods outside the replica set must not materialize
  // stripe state, which is what keeps the scrubber from resurrecting a
  // removed file's stripes.
  void note_replica_corrupt(Handle h, u32 stripe, u32 iod_id);

  // Direct header observation disproving the map: iod `iod_id`'s stripe
  // header for (h, stripe) reads `version`, *lower* than what the map
  // recorded (a lost write — the iod acked a round it never applied).
  // Unlike note_replica_version this downgrades: the header is physical
  // evidence, the old note was a lie. Same liveness/membership fencing.
  void note_replica_observed(Handle h, u32 stripe, u32 iod_id, u64 version);

  // A completed resync pull rebuilt (h, stripe) on `iod_id` at `version`
  // from an intact peer: record the version (max semantics) and clear the
  // corrupt flag — the one event that does (pvfs.corruptions_repaired).
  // Partial heals (read-repair rounds) deliberately clear nothing.
  void note_replica_resynced(Handle h, u32 stripe, u32 iod_id, u64 version);

  // Every (handle, stripe) whose copy on physical iod `iod_id` lives under
  // local-file key `local` (one stripe for a shadow-handle backup;
  // every stripe primaried on the iod for a primary file), with the map's
  // view of it — the scrubber's cross-check input. Empty for unknown or
  // unreplicated handles (same liveness fence as the notes).
  struct LocalStripeView {
    Handle handle = 0;
    u32 stripe = 0;
    bool known = false;  // stripe has recorded version state
    u64 latest = 0;
    u64 recorded = 0;  // this copy's recorded version (0 when corrupt)
  };
  std::vector<LocalStripeView> local_stripes(Handle local, u32 iod_id) const;

  // Resync targeting: every stripe whose copy on physical iod `iod` is
  // recorded stale, with the chain peers recorded current (candidate pull
  // sources, chain order) and everyone's local-file keys. Deterministic
  // order (map iteration).
  struct ResyncTarget {
    Handle handle = 0;
    u32 stripe = 0;
    u64 latest = 0;          // the version the stripe must reach
    Handle local_handle = 0;  // the stale iod's local-file key
    std::vector<u32> peers;
    std::vector<Handle> peer_handles;
  };
  std::vector<ResyncTarget> resync_targets(u32 iod) const;

  ib::Hca& hca() { return hca_; }

  // --- Shard identity ---------------------------------------------------
  u32 shard_id() const { return shard_id_; }
  u32 shard_count() const { return shard_count_; }
  // Does this manager's shard own `name`?
  bool owns(std::string_view name) const {
    return shard_of(name, shard_count_) == shard_id_;
  }

  // --- Live shard migration (Cluster::migrate_shard / split_shards) ------
  // Ownership of a shard's namespace + version plane moves between managers
  // while clients race: the source keeps serving while its state streams,
  // then a single fenced cutover copies the final delta, bumps the shard
  // epoch and demotes the source into a redirector. The snapshot/adopt pair
  // below is that final copy; the rate-limited stream rounds model its
  // bandwidth on the fabric (Cluster drives them), so no mid-stream
  // mutation can be lost — whatever the source served up to the cutover
  // instant is in the cutover copy by construction.

  struct StripeState {
    u64 latest = 0;
    std::vector<u64> replica;  // recorded version per replica position
    // Copies caught serving bytes that fail checksum verification. A
    // corrupt copy is always a resync target and never a pull source,
    // whatever version it claims; only note_replica_resynced clears it.
    std::vector<bool> corrupt;
  };

  // Everything a shard authority owns: the namespace entries, the
  // version/staleness/corrupt maps, the handle-mint cursor and the mint
  // floor. The unit the migration stream and the cutover copy move.
  struct ShardSnapshot {
    std::map<std::string, FileMeta> by_name;
    std::map<Handle, std::string> by_handle;
    std::map<std::pair<Handle, u32>, StripeState> stripe_state;
    Handle next_handle = 1;
    u64 mint_floor = 0;
  };

  // The slice of this manager's state owned by shard `shard_id` out of
  // `shard_count`: a plain migration exports (shard_id(), shard_count())
  // — everything — while a K->2K split exports the sibling half
  // (split_sibling(s, K), 2K). Names filter by shard_of, handles (and
  // their stripe state) by shard_of_handle; next_handle/mint_floor are
  // copied verbatim and re-aligned by adopt_shard.
  ShardSnapshot export_shard(u32 shard_id, u32 shard_count) const;

  // Wire-size estimate of export_shard's result, the denominator of the
  // migration stream's rate limit.
  u64 shard_state_bytes(u32 shard_id, u32 shard_count) const;

  // Cutover (target side): install `snap`, take identity (shard_id,
  // shard_count), attach to the shard's epoch cell as the active primary —
  // the cell was bumped just before, so every in-flight mint the source
  // stamped is already fenced — and re-align the handle-mint cursor into
  // this shard's residue class (a split sibling inherits a cursor minting
  // in the source's class; stepping it by the old count restores
  // collision-freedom, see protocol.h split_sibling).
  void adopt_shard(ShardSnapshot snap, u32 shard_id, u32 shard_count,
                   ManagerEpoch* cell);

  // Cutover (source side of a plain migration): stop serving and become a
  // redirector. Every request for a name this manager nominally owns is
  // answered kWrongShard (pvfs.wrong_shard_during_migration) — the one
  // reply that makes a racing client refresh its shard map and converge on
  // the target; kFailedPrecondition would only rotate it between equally
  // stale candidates.
  void retire_migrated();
  bool migrated_out() const { return migrated_out_; }

  // Cutover (source side of a split): drop the sibling half that moved —
  // names, handles, stripe state — retag to the doubled shard count and
  // re-align the mint cursor. Requests for moved names now take the normal
  // !owns() kWrongShard path, counted as migration redirects
  // (pvfs.wrong_shard_during_migration) since the staleness is
  // reshard-induced.
  void drop_shard_complement(u32 new_shard_count);

  // A split retags the old shards' standbys to the doubled count without
  // touching their (empty-until-takeover) state.
  void retag_shard(u32 shard_count) { shard_count_ = shard_count; }

  // Does this manager's shard own `h`'s slice of the version plane? False
  // once the shard migrated away — the authority() cache check that sends
  // stale clients back to the registry before they mint from a retired
  // manager (whose dropped namespace would silently mint version 0).
  bool owns_handle(Handle h) const {
    return !migrated_out_ && shard_of_handle(h, shard_count_) == shard_id_;
  }

  // --- Manager epoch / standby takeover ----------------------------------
  // Attach this manager to the cluster-wide epoch cell (a stand-in for a
  // durable epoch register). `active` marks the current authority; the
  // active-at-attach manager is the *primary* — only it is subject to
  // kManagerCrash windows — and the standby stays inactive until
  // take_over(). Without a cell the manager behaves exactly as before
  // (epoch 1, always active: single-manager runs are untouched).
  void attach_epoch(ManagerEpoch* cell, bool active);
  u64 epoch() const { return epoch_; }
  bool active() const { return active_; }
  // True when the cluster epoch moved past this manager's: it was demoted
  // by a takeover it never saw (zombie primary). Checked against the shared
  // cell on every metadata request, the way a lease check would be.
  bool epoch_stale() const {
    return epoch_cell_ != nullptr && epoch_ < epoch_cell_->value;
  }

  // One iod stripe header observed during a takeover scan: the physical iod,
  // the local-file key it was found under (primary copies live under the
  // file handle, backups under backup_handle) and the recorded version.
  struct HeaderObservation {
    u32 iod_id = 0;
    Handle local_handle = 0;
    u64 version = 0;
  };
  // Standby takeover. Bumps the cluster epoch (fencing every in-flight mint
  // and note stamped by the old primary), adopts the namespace from the
  // demoted manager (file metadata proper is durable in PVFS — only the
  // staleness map is manager-resident soft state), rebuilds the staleness
  // map conservatively from the scanned iod headers (a replica is current
  // only if its header provably carries the highest version observed for
  // the stripe; everything else becomes a resync target), and resumes
  // minting above the highest version observed in any header (the mint
  // floor, applied to stripes with no surviving header evidence — rebuilt
  // stripes mint above their own observed maximum already).
  void take_over(const Manager& durable,
                 const std::vector<HeaderObservation>& headers, TimePoint at);

 private:
  // The admission steps create, open and remove share: the control round
  // trip, then the rejections (lost request, migrated-out redirect,
  // inactive or epoch-stale manager, name outside this shard). A non-ok
  // status is the op's reply. `cost` is the client-visible time either
  // way; a lost request is charged only its request leg.
  Timed<Status> admit(ib::Hca& from, TimePoint ready, const std::string& name);

  const FileMeta* meta_of(Handle h) const;

  // kWrongShard reply for `name`, counted as a migration redirect when the
  // name was lost to a completed migration or split (stale clients
  // converging through the refresh path).
  Status wrong_shard_redirect(const std::string& name) const;

  // Step the mint cursor into this shard's residue class after a split
  // (no-op when already aligned, as after a plain migration).
  void align_next_handle();

  // The replica-set position of `iod_id` in (h, stripe)'s chain, with the
  // membership + liveness fencing every staleness note shares; npos when
  // the handle is dead, unreplicated, or the iod is outside the set.
  size_t replica_pos(Handle h, u32 stripe, u32 iod_id) const;

  ModelConfig cfg_;
  ib::Fabric& fabric_;
  Stats& stats_;
  u32 cluster_iod_count_;
  fault::Injector& faults_;
  u32 shard_id_;
  u32 shard_count_;
  vmem::AddressSpace as_;
  ib::Hca hca_;
  // Metadata service CPU (only queues when PvfsParams::meta_cpu_queue).
  sim::Resource cpu_;
  ManagerEpoch* epoch_cell_ = nullptr;
  u64 epoch_ = 1;
  bool active_ = true;
  bool primary_ = true;  // subject to kManagerCrash windows
  u64 mint_floor_ = 0;   // takeover: fresh stripes mint above this
  // Post-cutover redirector state: the shard moved to another manager
  // (retire_migrated), or a split halved this shard's name space
  // (drop_shard_complement records the pre-split count so reshard-induced
  // redirects are distinguishable from plain stale-mount ones).
  bool migrated_out_ = false;
  u32 pre_split_count_ = 0;
  std::map<std::string, FileMeta> by_name_;
  std::map<Handle, std::string> by_handle_;
  std::map<std::pair<Handle, u32>, StripeState> stripe_state_;
  // Shard s mints handles s+1, s+1+N, s+1+2N, ... (N = shard_count), so
  // shard_of_handle recovers the owner without a lookup. N=1 counts 1,2,3…
  // exactly as before.
  Handle next_handle_;
  // Cache write-notice plane: per-(handle, stripe) write sequence numbers.
  // Soft state — intentionally not part of ShardSnapshot (see bump_data_seq
  // comment: epoch-bump revokes make the post-migration reset safe).
  std::map<std::pair<Handle, u32>, u64> data_seq_;
  // Lease revocation bus (owned by the Cluster); null when caching is off
  // or the manager runs standalone in a unit test.
  LeaseBus* lease_bus_ = nullptr;
};

}  // namespace pvfsib::pvfs
