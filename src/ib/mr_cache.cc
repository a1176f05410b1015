#include "ib/mr_cache.h"

#include <cassert>

namespace pvfsib::ib {

MrCache::MrCache(Hca& hca)
    : hca_(hca), params_(hca.reg_params()), stats_(hca.stats()) {}

MrCache::Lookup MrCache::acquire(u64 addr, u64 len) {
  Lookup out;
  if (len == 0) {
    out.status = invalid_argument("zero-length acquire");
    return out;
  }
  const u64 lo = page_floor(addr);
  const u64 hi = page_ceil(addr + len);

  // Backward scan over MRs starting at or before `lo`; the max-length bound
  // keeps the scan from walking the whole table.
  if (!by_start_.empty()) {
    auto it = by_start_.upper_bound(lo);
    while (it != by_start_.begin()) {
      --it;
      if (lo - it->first > max_range_len_) break;
      Entry& e = by_key_.at(it->second);
      if (e.range.offset <= lo && e.range.end() >= hi) {
        return hit_lookup(e);
      }
    }
  }

  // Miss: register the page-rounded range.
  stats_.add(stat::kMrCacheMiss);
  RegAttempt reg = hca_.register_memory(lo, hi - lo);
  out.cost = reg.cost;
  if (!reg.ok()) {
    out.status = reg.status;
    return out;
  }
  Entry e;
  e.key = reg.key;
  e.range = {lo, hi - lo};
  e.refs = 1;
  by_key_[e.key] = e;
  by_start_.insert({lo, e.key});
  lru_.push_front(e.key);
  lru_pos_[e.key] = lru_.begin();
  pinned_bytes_ += hi - lo;
  max_range_len_ = std::max(max_range_len_, hi - lo);

  out.cost += evict_to_capacity();
  out.status = Status::ok();
  out.key = e.key;
  return out;
}

MrCache::Lookup MrCache::hit_lookup(Entry& e) {
  stats_.add(stat::kMrCacheHit);
  ++e.refs;
  touch(e.key);
  Lookup out;
  out.status = Status::ok();
  out.key = e.key;
  out.hit = true;
  return out;
}

void MrCache::release(u32 key) {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return;
  assert(it->second.refs > 0);
  --it->second.refs;
}

void MrCache::adopt(u32 key) {
  const MemoryRegion* mr = hca_.find_region(key);
  assert(mr != nullptr);
  if (by_key_.count(key) != 0) return;
  Entry e;
  e.key = key;
  e.range = mr->range;
  e.refs = 0;
  by_key_[key] = e;
  by_start_.insert({e.range.offset, key});
  lru_.push_front(key);
  lru_pos_[key] = lru_.begin();
  pinned_bytes_ += e.range.length;
  max_range_len_ = std::max(max_range_len_, e.range.length);
}

Duration MrCache::flush() {
  Duration cost = Duration::zero();
  for (auto it = by_key_.begin(); it != by_key_.end();) {
    if (it->second.refs == 0) {
      const Entry e = it->second;
      cost += hca_.deregister(e.key);
      pinned_bytes_ -= e.range.length;
      lru_.erase(lru_pos_.at(e.key));
      lru_pos_.erase(e.key);
      // Erase the matching by_start_ entry.
      auto [b, e2] = by_start_.equal_range(e.range.offset);
      for (auto s = b; s != e2; ++s) {
        if (s->second == e.key) {
          by_start_.erase(s);
          break;
        }
      }
      it = by_key_.erase(it);
    } else {
      ++it;
    }
  }
  return cost;
}

void MrCache::touch(u32 key) {
  auto pos = lru_pos_.find(key);
  assert(pos != lru_pos_.end());
  lru_.erase(pos->second);
  lru_.push_front(key);
  pos->second = lru_.begin();
}

Duration MrCache::evict_to_capacity() {
  Duration cost = Duration::zero();
  while (by_key_.size() > params_.cache_max_entries ||
         pinned_bytes_ > params_.cache_max_bytes) {
    // Evict the least recently used zero-ref entry.
    auto victim = lru_.end();
    for (auto it = std::prev(lru_.end());; --it) {
      if (by_key_.at(*it).refs == 0) {
        victim = it;
        break;
      }
      if (it == lru_.begin()) break;
    }
    if (victim == lru_.end()) break;  // everything is in use: soft limit
    const Entry e = by_key_.at(*victim);
    cost += hca_.deregister(e.key);
    pinned_bytes_ -= e.range.length;
    by_key_.erase(e.key);
    lru_pos_.erase(e.key);
    lru_.erase(victim);
    auto [b, e2] = by_start_.equal_range(e.range.offset);
    for (auto s = b; s != e2; ++s) {
      if (s->second == e.key) {
        by_start_.erase(s);
        break;
      }
    }
    stats_.add(stat::kMrCacheEvict);
  }
  return cost;
}

}  // namespace pvfsib::ib
