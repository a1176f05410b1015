// Per-client caching tier: an attribute/name cache (open/stat
// short-circuit) and an extent-granular data cache, both host-side
// structures that cost no simulated time to consult. Coherence rests on
// three planes, checked at hit time rather than trusted at insert time:
//
//   * Write notices: the version-plane authority keeps a per-(handle,
//     logical stripe) write sequence (Manager::bump_data_seq), bumped by
//     every cache-enabled client at write submission. A clean entry is
//     only servable while its recorded sequence still equals the
//     authority's — any write *started* since the entry's bytes were
//     established makes it a miss. This covers replication factor 1,
//     where the stripe-version plane is inert.
//   * Version tags: entries carry the stripe version learned from write
//     acks and read replies. A hit additionally requires the tag to be no
//     older than the authority's latest known version, and
//     Client::note_version drops tags that a note_replica_version
//     conflict proves stale — the ISSUE's hard invariant that a hit never
//     returns bytes older than version-aware placement plus read-repair
//     would serve.
//   * Leases: entries are held under membership on the cluster's
//     LeaseBus (protocol.h). Managers revoke on create/remove of the
//     name; the cluster revokes on epoch bumps (takeover, migration
//     cutover, split), scoped to the affected shard only. The epoch-bump
//     revoke is load-bearing, not hygiene: a fresh authority restarts
//     write sequences at zero, so surviving entries tagged seq 0 would
//     re-validate against it (an ABA) — dropping the shard's entries at
//     the bump closes that window.
//
// Write-back mode stages dirty extents that are exempt from all tag
// checks (they are the newest bytes by construction, and the only copy of
// the user's data until flushed) and are never silently evicted.
//
// With CacheParams::enabled false every method returns without touching
// state or counters (the maps stay empty, so drop_file finds nothing), so
// the client calls them unguarded and cache-off runs stay byte-identical.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/extent.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "pvfs/protocol.h"

namespace pvfsib::cache {

class ClientCache {
 public:
  ClientCache(const CacheParams& params, Stats& stats)
      : p_(params), stats_(stats) {}

  bool enabled() const { return p_.enabled; }
  bool write_back() const { return p_.enabled && p_.write_back; }
  const CacheParams& params() const { return p_; }

  // --- Attribute/name cache ----------------------------------------------
  // Valid-at-`now` lookup (lease mode: valid until revoked; TTL mode: not
  // past attr_ttl). Counts one cache hit or miss. Returns null on miss.
  const pvfs::FileMeta* lookup_attr(std::string_view name, TimePoint now);
  void put_attr(const pvfs::FileMeta& meta, TimePoint now);
  // Local invalidation (the client's own remove path); counts dropped
  // entries as pvfs.cache_invalidations.
  void invalidate_name(std::string_view name);

  // --- Data cache ----------------------------------------------------------
  // Entries are split at stripe-unit boundaries so each belongs to exactly
  // one logical stripe chain and carries one (seq, version) tag pair.

  // Hit-time tag validation, supplied by the client (it owns the authority
  // routing). Returns true when a clean entry's tags are still current.
  using TagCheck = std::function<bool(u32 stripe, u64 seq, u64 version)>;
  // Fresh tags for an insert, by logical stripe.
  using TagOf = std::function<void(u32 stripe, u64* seq, u64* version)>;

  // True when `file` is fully covered by servable entries (dirty, or clean
  // with `valid` tags); fills `out` with the bytes in file-extent order.
  // Counts one hit or one miss; drops clean entries whose tags fail.
  bool read_lookup(pvfs::Handle h, const ExtentList& file,
                   const TagCheck& valid, std::vector<std::byte>* out);

  // Insert clean bytes (completed read, or write-through/flush write).
  // Ranges overlapped by dirty entries are skipped — dirty bytes are newer.
  void insert_clean(pvfs::Handle h, u64 stripe_size, u32 server_count,
                    const ExtentList& file, std::span<const std::byte> bytes,
                    const TagOf& tags);

  // A write is about to touch these ranges: drop overlapping clean entries
  // (counts pvfs.cache_invalidations). Dirty entries are left alone.
  void invalidate_extents(pvfs::Handle h, const ExtentList& file);
  void note_version(pvfs::Handle h, u32 stripe, u64 version);

  // --- Write-back plane ----------------------------------------------------
  void stage_dirty(pvfs::Handle h, u64 stripe_size, u32 server_count,
                   const ExtentList& file, std::span<const std::byte> bytes,
                   TimePoint now);
  bool has_dirty(pvfs::Handle h) const;
  struct DirtyRun {
    u64 offset = 0;
    std::vector<std::byte> bytes;
    u64 gen = 0;  // staging generation; flush_applied matches on it
  };
  // Snapshot the handle's dirty extents (ascending offset) for a flush.
  std::vector<DirtyRun> dirty_runs(pvfs::Handle h) const;
  // The flush write completed: entries still at their snapshot generation
  // become clean with fresh tags; re-dirtied entries stay dirty.
  void flush_applied(pvfs::Handle h, const std::vector<DirtyRun>& runs,
                     const TagOf& tags);
  // Overlay dirty bytes over a freshly wire-read range (read-your-writes
  // while a flush is pending or not yet due): `apply` gets each dirty piece
  // of `file` with its position in the request's byte stream, in stream
  // order. A range that `file` names twice is reported twice.
  void overlay_dirty(
      pvfs::Handle h, const ExtentList& file,
      const std::function<void(u64 stream_pos, std::span<const std::byte>)>&
          apply) const;

  // --- Lease plane ---------------------------------------------------------
  // Revocation delivered off the LeaseBus (via MetaClient). kEpochBump
  // re-routes every entry under the revoke's shard count and drops only
  // those now owned by the bumped shard; dirty entries survive (they are
  // the only copy of the user's bytes and flush through the new
  // authority). Dropped entries count as pvfs.cache_lease_revokes.
  void on_revoke(const pvfs::LeaseRevoke& rv);

  // Voluntarily drop every cached extent of `h` (the client's close()).
  // Not an invalidation: nothing was proven stale, so no counter moves.
  void drop_file(pvfs::Handle h);

  void drop_all();

  // Introspection (tests/bench).
  u64 data_bytes() const { return data_bytes_; }
  size_t attr_entries() const { return attrs_.size(); }
  size_t data_entries(pvfs::Handle h) const;

 private:
  struct AttrEntry {
    pvfs::FileMeta meta;
    TimePoint expires = TimePoint::origin();  // TTL mode only
    u64 lru = 0;
  };
  struct Entry {
    u64 start = 0;
    std::vector<std::byte> bytes;
    u32 stripe = 0;
    u64 seq = 0;
    u64 version = 0;
    bool dirty = false;
    u64 gen = 0;  // dirty staging generation
    u64 lru = 0;
    u64 len() const { return bytes.size(); }
    u64 end() const { return start + bytes.size(); }
  };
  using FileEntries = std::map<u64, Entry>;  // keyed by start offset

  enum class DropWhy { kInvalidation, kLeaseRevoke, kSilent };
  void count_drop(DropWhy why, u64 n);
  void erase_entry(FileEntries& fm, FileEntries::iterator it);
  // Remove [start, end) from the handle's entries: clean overlaps are
  // dropped whole, dirty overlaps are trimmed (their non-overlapping
  // prefix/suffix survive) unless `drop_dirty`.
  void clear_range(FileEntries& fm, u64 start, u64 end, bool drop_dirty,
                   DropWhy why);
  bool range_has_dirty(const FileEntries& fm, u64 start, u64 end) const;
  void insert_pieces(pvfs::Handle h, u64 stripe_size, u32 server_count,
                     u64 start, std::span<const std::byte> bytes, bool dirty,
                     TimePoint now, const TagOf* tags);
  void evict_to_budget();
  u64 erase_attr(std::string_view name);

  CacheParams p_;
  Stats& stats_;
  std::map<std::string, AttrEntry, std::less<>> attrs_;
  std::map<pvfs::Handle, FileEntries> data_;
  u64 data_bytes_ = 0;
  u64 tick_ = 0;      // LRU clock
  u64 dirty_gen_ = 0;
};

}  // namespace pvfsib::cache
