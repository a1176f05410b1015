// Pin-down cache (Tezuka et al.) over Hca registration.
//
// acquire() returns a key whose MR covers the requested range: a cache hit
// costs nothing, a miss registers a new MR. Entries are reference counted;
// release() only unpins logically — deregistration happens on LRU eviction
// when the pinned footprint exceeds the configured capacity (registration
// thrashing) or on flush().
#pragma once

#include <list>
#include <map>

#include "common/config.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "ib/verbs.h"

namespace pvfsib::ib {

class MrCache {
 public:
  explicit MrCache(Hca& hca);

  struct Lookup {
    Status status;
    u32 key = 0;
    Duration cost = Duration::zero();
    bool hit = false;

    bool ok() const { return status.is_ok(); }
  };

  // Find or create an MR covering [addr, addr+len). The range is
  // page-rounded before caching so different buffers in the same pages hit.
  Lookup acquire(u64 addr, u64 len);

  // Drop one reference taken by acquire().
  void release(u32 key);

  // Insert an externally registered MR into the cache (used when OGR has
  // already chosen and registered group regions).
  void adopt(u32 key);

  // Deregister every zero-ref entry; returns total cost.
  Duration flush();

  u64 entries() const { return by_key_.size(); }
  u64 pinned_bytes() const { return pinned_bytes_; }
  Hca& hca() { return hca_; }

 private:
  struct Entry {
    u32 key = 0;
    Extent range;
    u32 refs = 0;
  };
  using LruList = std::list<u32>;  // front = most recent

  Lookup hit_lookup(Entry& e);
  void touch(u32 key);
  Duration evict_to_capacity();

  Hca& hca_;
  RegParams params_;
  Stats& stats_;
  std::multimap<u64, u32> by_start_;  // MR start addr -> key
  std::map<u32, Entry> by_key_;
  std::map<u32, LruList::iterator> lru_pos_;
  LruList lru_;
  u64 pinned_bytes_ = 0;
  u64 max_range_len_ = 0;  // bound for the backward covering-scan
};

}  // namespace pvfsib::ib
