// Wire-level protocol descriptors shared by the PVFS client and I/O daemon.
// Messages are not serialized byte-for-byte (the cluster is in-process);
// what matters for fidelity is their *size* on the wire (charged through the
// fabric), their *count* (Table 6 profiles), and the file-access lists they
// carry.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/extent.h"
#include "common/status.h"
#include "common/types.h"
#include "core/listio.h"

namespace pvfsib::pvfs {

// PVFS file handle, cluster-wide.
using Handle = u64;

// Sentinel for "let the manager pick the base iod" (PVFS's rotated default
// placement). Manager::kAutoBase aliases this.
inline constexpr u32 kAutoBaseIod = ~0u;

struct FileMeta {
  Handle handle = 0;
  std::string name;
  u64 stripe_size = 0;
  u32 iod_count = 0;  // pcount: how many iods stripe this file
  u32 base_iod = 0;   // first physical iod of the stripe set
  u64 logical_size = 0;  // high-water mark of written bytes
  // Stripe replication (primary/backup). replicas[k] is the ordered set of
  // physical iods holding logical stripe server k: replicas[k][0] is the
  // primary, the rest backups, all distinct (manager-computed rotation
  // (base_iod + k + j) mod physical-iod-count, chained declustering).
  // Empty when replication_factor == 1: the client derives the single
  // target from base_iod exactly as classic PVFS does.
  u32 replication_factor = 1;
  std::vector<std::vector<u32>> replicas;
};

// Per-shard manager epoch cell, shared by the shard's primary and standby
// manager (stand-in for a durable epoch register / lease service). Takeover
// bumps it; every version mint and staleness note is stamped with the
// minter's epoch so iods and the active manager can fence a zombie primary
// (pvfs.epoch_rejections). Starts at 1 = the primary's epoch. Unsharded
// clusters have exactly one cell, as before.
struct ManagerEpoch {
  u64 value = 1;
};

// Local-file key for a backup copy of logical stripe server `stripe`. With
// chained declustering one physical iod holds both its own primary stripe
// and a neighbour stripe's backup of the same file, and the two cover the
// same stripe-local offsets — so backups live under a per-stripe shadow
// handle rather than the file handle. The top bit marks the shadow
// namespace (real handles count up from 1); every backup of stripe k uses
// the same key, so any replica can serve it after a failover. This header is
// the only place that knows the bit layout.
inline Handle backup_handle(Handle h, u32 stripe) {
  return (Handle{1} << 63) | (static_cast<Handle>(stripe) << 48) | h;
}

// The local-file key replica position `replica` of stripe `stripe` uses:
// the file handle on the primary, the stripe's shadow handle on a backup.
inline Handle local_handle(Handle h, u32 stripe, u32 replica) {
  return replica == 0 ? h : backup_handle(h, stripe);
}

// The file handle behind a local-file key (a shadow handle decodes to the
// file it shadows; a file handle is its own key).
inline Handle file_handle(Handle local) {
  return (local >> 63) != 0 ? (local & ((Handle{1} << 48) - 1)) : local;
}

// --- Metadata sharding ------------------------------------------------------
// The namespace and the version plane are hash-partitioned over
// `metadata_shards` active managers. Names route by FNV-1a; handles route
// by their minting shard (shard s mints s+1, s+1+N, s+1+2N, ... so the
// shard is recoverable from the handle alone — no map lookup on the data
// path). Both collapse to shard 0 when the plane is unsharded, keeping
// single-manager runs untouched.

inline u32 shard_of(std::string_view name, u32 shard_count) {
  if (shard_count <= 1) return 0;
  u64 h = 1469598103934665603ull;  // FNV-1a 64-bit
  for (const char c : name) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ull;
  }
  return static_cast<u32>(h % shard_count);
}

inline u32 shard_of_handle(Handle h, u32 shard_count) {
  if (shard_count <= 1) return 0;
  // A backup's shadow handle routes with its file: the version plane
  // belongs to the file handle's shard.
  return static_cast<u32>((file_handle(h) - 1) % shard_count);
}

// Live resharding grows the plane K -> 2K (Cluster::split_shards) because
// doubling is the one growth step both route functions split cleanly under:
// hash % 2K of anything in old shard s is either s or s + K, and a handle in
// residue class s (mod K) is in residue s or s + K (mod 2K). Old shard s
// therefore partitions exactly into new shards {s, split_sibling(s, K)} with
// no cross-shard leakage, which is what lets the split move only the
// sibling half and leave everything else byte-for-byte in place.
inline u32 split_sibling(u32 shard, u32 old_count) {
  return shard + old_count;
}

// --- Typed metadata messages ------------------------------------------------
// One request/reply pair covers every manager metadata operation. The
// MetaClient facade routes a MetaRequest to the shard that owns its name;
// replies from a manager that does not own the name carry kWrongShard (a
// fast redirect + shard-map refresh), from an inactive manager
// kFailedPrecondition (re-aim at the shard's other candidate).
enum class MetaOp : u8 {
  kCreate,
  kOpen,
  kStat,    // open-shaped lookup; no client-side open state
  kRemove,
};

struct MetaRequest {
  MetaOp op = MetaOp::kOpen;
  std::string name;
  // kCreate parameters (ignored by the other ops).
  u64 stripe_size = 0;
  u32 iod_count = 0;
  u32 base_iod = kAutoBaseIod;
  u32 replication_factor = 1;
};

struct MetaReply {
  Status status;
  FileMeta meta;  // valid when status.is_ok() and op != kRemove
};

// --- Cache leases -----------------------------------------------------------
// The client caching tier (src/cache/) holds attribute and data entries
// under manager-granted leases. A lease here is not a timed token: it is
// membership on the cluster's revocation bus. Managers publish a
// LeaseRevoke when the cached fact changes out from under its holders —
// the name was created or removed, or the owning shard's epoch was bumped
// by a takeover / migration cutover / split — and every subscribed client
// drops the affected entries (routed through its MetaClient, which is the
// component that already owns shard-map staleness). Publication is a free
// host-side call: real PVFS would piggyback revokes on the manager's reply
// stream, and charging it no simulated time keeps cache-off timelines
// byte-identical.

enum class LeaseRevokeReason : u8 {
  kCreated,    // the name was (re)created: any cached attr for it is stale
  kRemoved,    // the name/handle was removed: attrs and data are both stale
  kEpochBump,  // takeover/migration/split on `shard`: drop that shard only
};

struct LeaseRevoke {
  LeaseRevokeReason reason = LeaseRevokeReason::kRemoved;
  // The shard the revoke is scoped to, under `shard_count` total shards.
  // kEpochBump holders re-route their entries with *this* count (a split
  // doubles it), so only entries that now route to `shard` drop — the
  // "affected shard only" contract that keeps an unrelated shard's cache
  // warm across someone else's reshard.
  u32 shard = 0;
  u32 shard_count = 1;
  // kCreated/kRemoved: the name (and, for kRemoved, the dead handle so
  // data-cache extents drop with the attrs).
  std::string name;
  Handle handle = 0;
};

// Cluster-wide lease revocation bus. Owned by the Cluster; managers publish,
// MetaClients subscribe on behalf of their client's cache. Clients whose
// cache is disabled never subscribe, so publication with no cache enabled
// is a no-op and costs nothing.
class LeaseBus {
 public:
  using Sink = std::function<void(const LeaseRevoke&)>;
  void subscribe(Sink sink) { sinks_.push_back(std::move(sink)); }
  void publish(const LeaseRevoke& rv) {
    for (auto& s : sinks_) s(rv);
  }

 private:
  std::vector<Sink> sinks_;
};

// One round of a list I/O operation directed at one iod: at most
// `max_list_pairs` file accesses and at most one staging buffer of data.
struct RoundRequest {
  Handle handle = 0;
  u32 client = 0;
  // Which of the client connection's staging buffers this round uses.
  // With pipelining (pipeline_depth W > 1) up to W rounds are in flight
  // per iod and each must land in its own buffer; round k uses slot
  // k mod W, so a slot is only reused after its previous round replied.
  // Under replication the pool grows to factor * W per client and replica
  // j of a chain uses slots [j*W, (j+1)*W): a physical iod serves its own
  // primary chain and neighbour stripes' backup chains for the same
  // client concurrently, and they must not share buffers (or the
  // (client, slot) replay-dedupe log).
  u32 slot = 0;
  // Per-slot round sequence number (client-assigned, strictly increasing
  // per (client, slot) chain; 0 = unsequenced). Makes write rounds
  // idempotently replayable: when a reply is lost and the client replays
  // the round, the iod recognises an already-applied sequence number and
  // acks without re-running the disk phase.
  u64 round_seq = 0;
  // Partial-round restart: this replay's payload already landed in the
  // target's staging buffer (and, because data arrival and the disk phase
  // are atomic at the iod, was already applied), so the request carries no
  // data phase and the iod will dedupe it by round_seq.
  bool data_staged = false;
  bool is_write = false;
  bool sync = false;       // fsync before replying (write) / O_DIRECT-ish
  bool use_ads = true;     // server may data-sieve if its model agrees
  // Per-stripe version carried by replicated write rounds (client-assigned
  // from the manager's per-(handle, stripe) sequence; 0 = unversioned, the
  // only value at factor 1). The iod persists max(header, version) in the
  // local file's stripe header and returns the header in its ack, and read
  // services return it too — that is how the client (and via its notes the
  // manager's staleness map) learns which replicas are current vs stale.
  u64 version = 0;
  // Manager epoch under which `version` was minted (0 = unversioned round).
  // An iod that has seen a newer epoch refuses to merge the version into
  // its stripe header (the bytes still land — data is not epoch-gated, only
  // the version plane is), so mints from a zombie primary cannot mark a
  // replica current (pvfs.epoch_rejections).
  u64 epoch = 0;
  ExtentList accesses;     // iod-local file extents, stream order
  u64 bytes() const { return total_length(accesses); }
};

// RESYNC request: a crash-restarted iod pulling one chunk of a stale stripe
// from a current peer in the chain. The puller learned (handle, stripe, the
// target version, and the peer's local-file key) from the manager's
// staleness map; the peer answers with the chunk's bytes out of that local
// file. Rate-limited by ReplicationParams::resync_bandwidth, chunked by
// resync_round_bytes.
struct ResyncRequest {
  Handle handle = 0;       // cluster-wide file handle (for tracing)
  u32 stripe = 0;          // logical stripe server index
  Handle peer_handle = 0;  // the peer's local-file key for this stripe
  u64 offset = 0;          // chunk start within the stripe-local file
  u64 max_bytes = 0;       // chunk size cap (resync_round_bytes)
};

// How read data returns to the client.
enum class ReadReturn {
  kFastBounce,    // server RDMA-writes packed data into the client's
                  // pre-registered Fast-RDMA buffer (small transfers)
  kDirectGather,  // server RDMA-writes with gather straight into the
                  // client's single contiguous destination buffer
  kClientPull,    // server packs staging; client pulls (scatter/pack/multi
                  // per its transfer policy)
};

}  // namespace pvfsib::pvfs
