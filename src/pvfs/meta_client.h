// Client-side routing facade over the sharded metadata plane.
//
// The namespace and the version plane are hash-partitioned over N active
// managers (protocol.h shard_of/shard_of_handle). MetaRegistry is the
// cluster-side authoritative shard map: per shard, the ordered candidate
// managers (primary first, standby after) and which candidate is currently
// active; takeovers bump its version. Every client owns a MetaClient — a
// cached copy of that map seeded at mount time — and routes all metadata
// traffic through it:
//
//   * call(rq, issue): run one typed MetaRequest against the shard that
//     owns rq.name, with the data-round retry policy (timeout on a lost
//     request, capped exponential backoff, in-shard candidate rotation on
//     kFailedPrecondition redirects). A kWrongShard reply — the manager
//     reached through a stale map does not own the name — is a fast
//     redirect carrying a map refresh (pvfs.shard_redirects /
//     pvfs.shard_map_refreshes): the client re-routes by the fresh map,
//     mirroring the kFailedPrecondition re-aim path but across shards.
//     Refreshes are bounded, not at-most-once: up to
//     MigrationParams::map_refresh_attempts per call with capped backoff,
//     so a live migration/split racing the call (two map generations in
//     flight) redirects the client again instead of stranding it.
//   * authority(handle): the manager trusted for the handle's shard of the
//     version plane (mints, staleness notes, size bookkeeping). Refuses an
//     epoch-stale cached choice (pvfs.epoch_rejections) and re-targets the
//     epoch-current candidate, exactly as the single-plane
//     version_authority() did.
//
// With one shard and one manager every path collapses to the pre-sharding
// behaviour: route to shard 0, no redirects, no rotation.
#pragma once

#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "ib/fabric.h"
#include "pvfs/protocol.h"

namespace pvfsib::fault {
class Injector;
}
namespace pvfsib::sim {
class Engine;
}

namespace pvfsib::pvfs {

class Manager;

// Authoritative shard map, owned by the cluster. Stand-in for the durable
// config table real PVFS2 clients fetch at mount time.
class MetaRegistry {
 public:
  struct Shard {
    // Rotation order: the primary first, its standby (if any) after.
    std::vector<Manager*> candidates;
    size_t active = 0;  // index into candidates
  };

  void add_shard(std::vector<Manager*> candidates) {
    shards_.push_back(Shard{std::move(candidates), 0});
  }
  u32 shard_count() const { return static_cast<u32>(shards_.size()); }
  const Shard& shard(u32 s) const { return shards_[s]; }
  u64 version() const { return version_; }

  // A takeover promoted candidate `active` of shard `s`; cached client maps
  // older than the new version are stale (they still converge via their own
  // timeout/redirect rotation — the bump is what redirect refreshes carry).
  void set_active(u32 s, size_t active) {
    shards_[s].active = active;
    ++version_;
  }

  // A migration cutover replaced shard `s`'s candidate list wholesale (the
  // fresh target first, the surviving standby after).
  void set_candidates(u32 s, std::vector<Manager*> candidates, size_t active) {
    shards_[s] = Shard{std::move(candidates), active};
    ++version_;
  }

  // A split grew the plane (add_shard per new shard, then one bump): cached
  // maps older than this route with the pre-split shard count and converge
  // through the wrong-shard refresh path.
  void note_resharded() { ++version_; }

 private:
  std::vector<Shard> shards_;
  u64 version_ = 1;
};

class MetaClient {
 public:
  // Seeds the cached shard map from `registry` (the free mount-time config
  // fetch). `hca` is the owning client's HCA (request source and trace
  // label); `faults` routes the retry policy. `mig` bounds the wrong-shard
  // re-refresh loop (MigrationParams defaults reproduce the classic
  // behaviour on the first redirect: immediate refresh, no backoff).
  MetaClient(ib::Hca& hca, sim::Engine& engine, Stats& stats,
             fault::Injector& faults, const MetaRegistry* registry,
             MigrationParams mig = {});

  struct Outcome {
    MetaReply reply;
    // When the caller's clock should stand afterwards: reply arrival, or
    // the final timeout wait when every retry failed.
    TimePoint done = TimePoint::origin();
  };
  // Run one metadata request issued at `issue` (see file comment).
  Outcome call(const MetaRequest& rq, TimePoint issue);

  // The manager currently believed active for `name`'s shard (e.g. the one
  // whose HCA a post-remove unlink broadcast fans out from).
  Manager& route(std::string_view name);

  // Version-plane authority for `h`'s shard (see file comment).
  Manager& authority(Handle h);

  u32 shard_count() const { return static_cast<u32>(shards_.size()); }
  u64 map_version() const { return version_; }

  // Test hook: collapse the cached map to a stale single-shard view (as if
  // this client mounted before the plane was resharded). The next call for
  // a name shard 0 does not own takes the kWrongShard redirect + refresh.
  void invalidate_map();

  // Test hook: make the next `n` refresh_map() calls land the stale
  // single-shard view again instead of the registry's — two map
  // generations in flight, the race the bounded re-refresh loop exists
  // for. The n+1-th refresh sees the real registry.
  void force_stale_refreshes(u32 n) { stale_refreshes_ = n; }

  // --- Cache lease routing ----------------------------------------------
  // The client caching tier's lease revocations are routed through the
  // MetaClient: the owning Client registers its cache as the sink, the
  // Cluster attaches its LeaseBus, and every published LeaseRevoke is
  // forwarded sink-ward. Routing here (rather than bus -> cache directly)
  // keeps the revocation path on the same object that owns shard routing,
  // so epoch-bump revokes use the same shard_of/shard_of_handle planes the
  // reads they fence do. A client with caching off never sets a sink, so
  // attach subscribes nothing and the bus stays unobserved.
  void set_lease_sink(std::function<void(const LeaseRevoke&)> sink) {
    lease_sink_ = std::move(sink);
  }
  void attach_lease_bus(LeaseBus* bus) {
    if (bus == nullptr || !lease_sink_) return;
    bus->subscribe([this](const LeaseRevoke& rv) { lease_sink_(rv); });
  }

 private:
  struct CachedShard {
    std::vector<Manager*> candidates;
    size_t active = 0;
  };

  Manager& active_of(u32 shard) {
    CachedShard& cs = shards_[shard];
    return *cs.candidates[cs.active];
  }
  // Copy the registry's current shard map into the cache (free: redirect
  // replies carry the map, and the mount-time fetch happened before the
  // timeline starts).
  void load_map();
  // A redirect-driven load_map (pvfs.shard_map_refreshes).
  void refresh_map();

  ib::Hca& hca_;
  sim::Engine& engine_;
  Stats& stats_;
  fault::Injector& faults_;
  const MetaRegistry* registry_;
  MigrationParams mig_;
  std::vector<CachedShard> shards_;
  u64 version_ = 0;
  u32 stale_refreshes_ = 0;  // test hook (force_stale_refreshes)
  std::function<void(const LeaseRevoke&)> lease_sink_;  // cache revocations
};

}  // namespace pvfsib::pvfs
