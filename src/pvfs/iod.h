// The PVFS I/O daemon. One per I/O node: owns the node's local file system,
// its HCA, a per-client staging buffer pool, a sieve buffer, and the disk
// service queue. This is where Active Data Sieving runs: every incoming
// round is either serviced access-by-access or sieved, according to the
// cost model (Section 5).
//
// The iod is passive with respect to the event engine — the client-side
// state machine invokes write_round()/read_round() at the simulated arrival
// times and the iod returns completion times, queueing its disk work on the
// node's disk resource. Like the transfer layer it books every hop and
// lands no round's bytes: the client copies a write's stream into the
// staging slot once its push succeeded, and a read's stream from the file
// views read_round hands back.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/config.h"
#include "core/ads.h"
#include "core/transfer.h"
#include "disk/local_fs.h"
#include "ib/fabric.h"
#include "pvfs/protocol.h"
#include "sim/resource.h"
#include "vmem/address_space.h"

namespace pvfsib::fault {
class Injector;
}

namespace pvfsib::sim {
class Engine;
}

namespace pvfsib::pvfs {

class Manager;

class Iod {
 public:
  // `faults` contributes degraded-disk slowdown windows and the
  // silent-corruption draws; crash windows are enforced at the client
  // (requests to a down iod are lost).
  Iod(u32 id, u32 client_count, const ModelConfig& cfg, ib::Fabric& fabric,
      Stats& stats, fault::Injector& faults);

  // Local stripe file for a handle, created on first use.
  disk::LocalFile& file(Handle h);

  // Drop the local stripe file for a removed handle; returns the cost.
  Duration remove_file(Handle h);

  // One staging buffer of `client`'s connection pool. The pool holds
  // `staging_slots()` buffers per client (pipeline_depth * replication
  // factor) so pipelined rounds in flight — and concurrent primary/backup
  // chains under replication — each own a distinct slot. Only write rounds
  // put bytes in a slot; a read round's slot is registered and named in
  // its work requests but holds none of its bytes.
  core::StagingBuffer& staging(u32 client, u32 slot);
  // Slot-0 convenience (the only slot when pipelining is off).
  core::StagingBuffer& staging(u32 client) { return staging(client, 0); }
  u32 staging_slots() const { return slots_per_client_; }

  // --- Write round -----------------------------------------------------
  struct WriteService {
    // When the round is durably done (post-fsync when sync).
    TimePoint done = TimePoint::origin();
    // Pure disk service time, excluding disk-queue wait.
    Duration disk_cost = Duration::zero();
    // Stripe-header version the ack carries back (after merging
    // r.version; 0 for unversioned files).
    u64 ack_version = 0;
    // The round's version was epoch-fenced out of the header: the ack
    // tells the client to re-mint and replay under the current epoch.
    bool epoch_rejected = false;
  };
  // The packed data stream for `r` is in staging(r.client, r.slot) at
  // `data_ready`. Performs the disk phase (separate accesses or sieved
  // read-modify-write).
  WriteService write_round(const RoundRequest& r, TimePoint data_ready);

  // --- Read round -------------------------------------------------------
  struct ReadService {
    Status status;
    // kClientPull: when the packed staging buffer is ready for pulling.
    // kFastBounce/kDirectGather: when the last byte landed at the client,
    // or when the work request that failed the round completed.
    TimePoint ready = TimePoint::origin();
    u64 bytes = 0;
    // Server-side service time spent on the disk phase (reads, sieve
    // copies), excluding queueing and the return-path network time.
    Duration disk_cost = Duration::zero();
    // Stripe-header version of the serving local file (0 when unversioned):
    // a trailing version tells the client this replica is stale.
    u64 version = 0;
    // The round's stream in stream order, whatever the return path: views
    // of the file's own bytes, each piece's tail past EOF reading as zeros.
    // They are valid until this iod's next read_round or the file's next
    // change, so the client copies them into its user buffers in the event
    // that read_round returns to. Empty when the round failed.
    std::span<const core::StreamPiece> stream;

    bool ok() const { return status.is_ok(); }
  };
  // Service a read round starting (at the earliest) at `start`. For
  // kFastBounce/kDirectGather the iod pushes data to the client itself;
  // `client_hca`/`client_dest`/`client_rkey` describe the destination (the
  // bounce buffer or the contiguous user buffer). Books the disk phase and
  // the return path's work requests and copies no byte: every path hands
  // the round's bytes back in ReadService::stream.
  ReadService read_round(const RoundRequest& r, TimePoint start,
                         ReadReturn path, ib::Hca* client_hca,
                         u64 client_dest, u32 client_rkey);

  // --- Version plane ----------------------------------------------------
  // Stripe-header version of the local file keyed `h` (0 = unversioned).
  // Under replication each local file (a primary handle or a per-stripe
  // shadow handle) belongs to exactly one chain, so one header per local
  // handle is unambiguous. Kept as if durable, like applied_seq_.
  u64 stripe_version(Handle h) const;

  // All stripe headers of this iod (local-file key -> version), the
  // takeover scan's raw material. Deterministic map order.
  const std::map<Handle, u64>& stripe_headers() const {
    return stripe_version_;
  }

  // Manager-epoch fence, one cell per metadata shard. A takeover sweeps
  // the shard's new epoch to every iod; write rounds whose version was
  // minted under an older epoch of their handle's shard still land their
  // bytes but are refused the header merge (pvfs.epoch_rejections), so a
  // zombie primary's mints can never mark this replica current. Shard
  // defaults to 0, the only shard of an unsharded plane.
  void note_manager_epoch(u64 epoch, u32 shard = 0) {
    if (shard >= manager_epoch_.size()) manager_epoch_.resize(shard + 1, 0);
    manager_epoch_[shard] = std::max(manager_epoch_[shard], epoch);
  }
  u64 manager_epoch(u32 shard = 0) const {
    return shard < manager_epoch_.size() ? manager_epoch_[shard] : 0;
  }

  // A split cutover doubled the metadata plane: retag this iod's private
  // config copy so handle->shard routing (epoch fences, resync notes) uses
  // the grown count. Swept together with the new shards' epoch cells in
  // the same engine instant, so no request ever routes by a half-updated
  // plane.
  void set_metadata_shards(u32 n) { cfg_.pvfs.metadata_shards = n; }

  // Apply a repair/resync write directly: scatter `stream` into the local
  // file at `accesses` and merge `version` into the stripe header. Bypasses
  // the staging-slot pool (repairs are out-of-band of the round protocol
  // and must not collide with in-flight rounds' slots); the disk work still
  // serializes through the disk queue. Returns the completion time.
  TimePoint apply_repair(Handle h, const ExtentList& accesses,
                         std::span<const std::byte> stream, u64 version,
                         TimePoint at);

  // Serve one resync pull: pread `rq.max_bytes` (capped by EOF) at
  // `rq.offset` from the local file keyed rq.peer_handle into `dst`.
  Timed<u64> serve_resync(const ResyncRequest& rq, std::span<std::byte> dst);

  // --- Data integrity (stripe block checksums) --------------------------
  // Every applied write (rounds, repairs, resync pulls) stamps a 64-bit
  // checksum per fixed-size block (ReplicationParams::integrity_block_bytes)
  // of the touched byte ranges into the local stripe header (format v2,
  // kept beside the bytes in disk::LocalFile; the version map above is
  // format v1 and untouched, so takeover header scans are unchanged).
  // Stamps are lazy — only a corruption forces a hash — and stamping and
  // verify-on-read are charged zero simulated time (the hash overlaps the
  // disk phase on real hardware), which keeps fault-free timelines
  // byte-identical to the pre-checksum model.

  // Scheduled kBitFlip hook (Cluster wires it via install_corruption_hooks):
  // flip one stored bit of one nonempty local file, both chosen by the
  // injector's seeded draws. Silent: no header, no cost, no ack.
  void inject_bit_flip(TimePoint at);

  // Start the background scrubber (Cluster::start_scrub): a rate-limited
  // tick chain (scrub_interval apart, bounded by `until` so engine.run()
  // still terminates) that walks the local stripe files scrub_chunk_bytes
  // per tick, re-reads them through the disk queue, verifies block
  // checksums, cross-checks the stripe header against the shard manager's
  // staleness map (catching acked-but-never-applied lost writes), reports
  // corrupt/stale copies to the manager and kicks the resync puller to
  // heal them. Requires configure_resync wiring; no-op without it.
  void start_scrub(TimePoint until);

  // --- Background re-replication ---------------------------------------
  // Wire the resync scanner (Cluster does this when factor > 1 and
  // ReplicationParams::resync): the engine to schedule pull rounds on, the
  // per-shard staleness-map authorities to target with (index = metadata
  // shard; a single-entry vector on an unsharded plane), and the peer iods
  // (indexed by physical id) to pull from.
  void configure_resync(sim::Engine* engine,
                        std::vector<Manager*> authorities,
                        std::vector<Iod*> peers);
  // A takeover re-points one shard's staleness-map authority at the
  // promoted standby; a migration cutover at the adopted target (split-born
  // shards grow the vector on demand). No-op unless configure_resync ran.
  void set_resync_authority(u32 shard, Manager* manager);
  // Restart hook (fault::Injector::install_restart_hooks): scan the
  // staleness map and pull every stale stripe from a current peer in
  // rate-limited rounds. No-op unless configure_resync ran.
  void on_restart(TimePoint t);

  ib::Hca& hca() { return hca_; }
  disk::LocalFs& fs() { return fs_; }
  sim::Resource& disk_queue() { return disk_queue_; }
  core::ActiveDataSieving& ads() { return ads_; }
  u32 id() const { return id_; }

  // Flush + drop the node's page cache (benchmark "without cache" setup);
  // time is not charged to anyone (setup step).
  void drop_caches() { fs_.drop_caches(); }

 private:
  struct DiskPhase {
    Duration cost = Duration::zero();
    Status status;
  };

  // Execute the disk work for a write round on `f`, the local file of
  // r.handle, against the packed stream in `stream` (real bytes), charging
  // LocalFile costs.
  DiskPhase write_disk_phase(disk::LocalFile& f, const RoundRequest& r,
                             std::span<const std::byte> stream,
                             TimePoint when);

  // `cost` stretched by the fault plane's degraded-disk factor at `at`.
  Duration disk_scaled(Duration cost, TimePoint at) const;

  // Has the write round carrying `seq` already been applied on `slot` of
  // `client`'s connection? Updates the high-water mark when new.
  bool already_applied(u32 client, u32 slot, u64 seq);

  // One in-progress restart resync: the target list and the cursor within
  // it. Shared with the engine events driving the chunk pulls.
  struct ResyncState;
  // Pull the next chunk (or finish the current stripe / the whole scan).
  void resync_step(std::shared_ptr<ResyncState> st);

  // --- Integrity internals ----------------------------------------------
  // Corruption appliers (write_round, after stamping the intended bytes)
  // on `f`, the local file of round `r`: garble a suffix of the round's
  // stored byte ranges / flip one stored bit inside them. The injector's
  // draws pick the split point and the bit.
  void corrupt_torn(disk::LocalFile& f, const RoundRequest& r, TimePoint at);
  void corrupt_flip(disk::LocalFile& f, const RoundRequest& r, TimePoint at);
  // One running scrub: the byte cursor over files_ and the tick bound.
  struct ScrubState;
  void scrub_tick(std::shared_ptr<ScrubState> st);

  u32 id_;
  ModelConfig cfg_;
  ib::Fabric& fabric_;
  Stats& stats_;
  fault::Injector& faults_;
  vmem::AddressSpace as_;
  ib::Hca hca_;
  disk::LocalFs fs_;
  sim::Resource disk_queue_;
  core::ActiveDataSieving ads_;

  // client_count * slots_per_client_ buffers, grouped by client:
  // staging_[client * slots_per_client_ + slot].
  std::vector<core::StagingBuffer> staging_;
  u32 slots_per_client_ = 1;
  // The sieve buffer for sieved reads, registered. Direct gathers name it
  // in their SGEs, but its bytes are read from the file's own.
  u64 sieve_addr_ = 0;
  u32 sieve_key_ = 0;
  // read_round's stream pieces (handed back in ReadService::stream) and a
  // sieved round's pieces keyed by stream offset; reused across rounds.
  std::vector<core::StreamPiece> stream_;
  std::vector<std::pair<u64, core::StreamPiece>> placed_;
  // A sieved write round's windows and patches, reused across rounds.
  std::vector<Extent> rmw_windows_;
  std::vector<disk::LocalFile::Patch> rmw_patches_;
  std::map<Handle, u32> files_;  // handle -> local fd
  // Highest applied round_seq per (client, slot): the replay-dedupe log.
  // Kept as if durable (a crash-restarted iod still recognises replays).
  std::map<std::pair<u32, u32>, u64> applied_seq_;
  // Stripe-header versions per local file (see stripe_version()). Only ever
  // populated by versioned (replicated) writes; empty at factor 1.
  std::map<Handle, u64> stripe_version_;
  // Highest manager epoch this iod has been told about, per metadata shard
  // (empty/0 until a takeover sweep; the fence in write_round only engages
  // for versioned rounds that carry an older, non-zero epoch of their
  // handle's shard). Grown on demand.
  std::vector<u64> manager_epoch_;
  // Resync wiring (empty unless Cluster enabled background re-replication).
  // One staleness-map authority per metadata shard.
  sim::Engine* engine_ = nullptr;
  std::vector<Manager*> managers_;
  std::vector<Iod*> peers_;
};

}  // namespace pvfsib::pvfs
