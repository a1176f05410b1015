#include "cache/client_cache.h"

#include <algorithm>
#include <cassert>

namespace pvfsib::cache {

// --- Attribute/name cache --------------------------------------------------

const pvfs::FileMeta* ClientCache::lookup_attr(std::string_view name,
                                               TimePoint now) {
  if (!enabled()) return nullptr;
  auto it = attrs_.find(name);
  if (it != attrs_.end() && !p_.leases && now >= it->second.expires) {
    // TTL mode: the entry aged out. (Lease mode keeps entries until a
    // revoke drops them.)
    attrs_.erase(it);
    it = attrs_.end();
  }
  if (it == attrs_.end()) {
    stats_.add(stat::kPvfsCacheMisses);
    return nullptr;
  }
  it->second.lru = ++tick_;
  stats_.add(stat::kPvfsCacheHits);
  return &it->second.meta;
}

void ClientCache::put_attr(const pvfs::FileMeta& meta, TimePoint now) {
  if (!enabled() || p_.attr_capacity == 0) return;
  if (attrs_.find(meta.name) == attrs_.end() &&
      attrs_.size() >= p_.attr_capacity) {
    auto victim = attrs_.begin();
    for (auto it = attrs_.begin(); it != attrs_.end(); ++it) {
      if (it->second.lru < victim->second.lru) victim = it;
    }
    attrs_.erase(victim);
  }
  AttrEntry& e = attrs_[meta.name];
  e.meta = meta;
  e.expires = now + p_.attr_ttl;
  e.lru = ++tick_;
}

u64 ClientCache::erase_attr(std::string_view name) {
  auto it = attrs_.find(name);
  if (it == attrs_.end()) return 0;
  attrs_.erase(it);
  return 1;
}

void ClientCache::invalidate_name(std::string_view name) {
  if (!enabled()) return;
  count_drop(DropWhy::kInvalidation, erase_attr(name));
}

// --- Data cache: shared plumbing -------------------------------------------

void ClientCache::count_drop(DropWhy why, u64 n) {
  if (n == 0) return;
  switch (why) {
    case DropWhy::kInvalidation:
      stats_.add(stat::kPvfsCacheInvalidations, static_cast<i64>(n));
      break;
    case DropWhy::kLeaseRevoke:
      stats_.add(stat::kPvfsCacheLeaseRevokes, static_cast<i64>(n));
      break;
    case DropWhy::kSilent:
      break;
  }
}

void ClientCache::erase_entry(FileEntries& fm, FileEntries::iterator it) {
  assert(data_bytes_ >= it->second.len());
  data_bytes_ -= it->second.len();
  fm.erase(it);
}

bool ClientCache::range_has_dirty(const FileEntries& fm, u64 start,
                                  u64 end) const {
  auto it = fm.lower_bound(start);
  if (it != fm.begin()) --it;
  for (; it != fm.end() && it->second.start < end; ++it) {
    if (it->second.end() > start && it->second.dirty) return true;
  }
  return false;
}

void ClientCache::clear_range(FileEntries& fm, u64 start, u64 end,
                              bool drop_dirty, DropWhy why) {
  auto it = fm.lower_bound(start);
  if (it != fm.begin()) --it;
  u64 dropped = 0;
  std::vector<Entry> trimmed;
  while (it != fm.end() && it->second.start < end) {
    Entry& e = it->second;
    if (e.end() <= start) {
      ++it;
      continue;
    }
    if (e.dirty && !drop_dirty) {
      // Dirty overlaps are trimmed, never dropped: the non-overlapping
      // prefix/suffix are still the only copy of the user's bytes.
      if (e.start < start) {
        Entry pre = e;
        pre.bytes.assign(e.bytes.begin(), e.bytes.begin() + (start - e.start));
        trimmed.push_back(std::move(pre));
      }
      if (e.end() > end) {
        Entry post = e;
        post.start = end;
        post.bytes.assign(e.bytes.begin() + (end - e.start), e.bytes.end());
        trimmed.push_back(std::move(post));
      }
      it = fm.erase(it);
      data_bytes_ -= e.len();
      continue;
    }
    ++dropped;
    data_bytes_ -= e.len();
    it = fm.erase(it);
  }
  for (Entry& t : trimmed) {
    data_bytes_ += t.len();
    const u64 key = t.start;
    fm.emplace(key, std::move(t));
  }
  count_drop(why, dropped);
}

void ClientCache::insert_pieces(pvfs::Handle h, u64 stripe_size,
                                u32 server_count, u64 start,
                                std::span<const std::byte> bytes, bool dirty,
                                TimePoint now, const TagOf* tags) {
  (void)now;
  FileEntries& fm = data_[h];
  u64 off = start;
  u64 cursor = 0;
  while (cursor < bytes.size()) {
    // Split at stripe-unit boundaries: one entry, one logical stripe.
    const u64 unit_end = (off / stripe_size + 1) * stripe_size;
    const u64 n = std::min<u64>(bytes.size() - cursor, unit_end - off);
    const u32 stripe =
        static_cast<u32>((off / stripe_size) % std::max<u32>(1, server_count));
    if (!dirty && range_has_dirty(fm, off, off + n)) {
      // Never let clean bytes shadow dirty ones: the dirty entry is newer.
      off += n;
      cursor += n;
      continue;
    }
    clear_range(fm, off, off + n, dirty, DropWhy::kSilent);
    Entry e;
    e.start = off;
    e.bytes.assign(bytes.begin() + cursor, bytes.begin() + cursor + n);
    e.stripe = stripe;
    e.dirty = dirty;
    e.lru = ++tick_;
    if (dirty) {
      e.gen = ++dirty_gen_;
    } else if (tags != nullptr) {
      (*tags)(stripe, &e.seq, &e.version);
    }
    data_bytes_ += n;
    fm.emplace(e.start, std::move(e));
    off += n;
    cursor += n;
  }
  evict_to_budget();
}

void ClientCache::evict_to_budget() {
  // LRU over clean entries only; dirty entries may transiently push the
  // footprint over budget (they cannot be discarded).
  while (data_bytes_ > p_.data_capacity) {
    pvfs::Handle victim_h = 0;
    FileEntries::iterator victim;
    u64 best = ~0ull;
    for (auto& [h, fm] : data_) {
      for (auto it = fm.begin(); it != fm.end(); ++it) {
        if (!it->second.dirty && it->second.lru < best) {
          best = it->second.lru;
          victim_h = h;
          victim = it;
        }
      }
    }
    if (best == ~0ull) return;  // only dirty entries remain
    erase_entry(data_[victim_h], victim);
  }
}

// --- Data cache: read/write paths ------------------------------------------

bool ClientCache::read_lookup(pvfs::Handle h, const ExtentList& file,
                              const TagCheck& valid,
                              std::vector<std::byte>* out) {
  if (!enabled()) return false;
  auto miss = [&] {
    stats_.add(stat::kPvfsCacheMisses);
    return false;
  };
  auto dit = data_.find(h);
  if (dit == data_.end()) return miss();
  FileEntries& fm = dit->second;
  out->clear();
  std::vector<Entry*> used;
  for (const Extent& ex : file) {
    u64 pos = ex.offset;
    while (pos < ex.end()) {
      auto it = fm.upper_bound(pos);
      if (it == fm.begin()) return miss();
      --it;
      Entry& e = it->second;
      if (e.start > pos || e.end() <= pos) return miss();
      if (!e.dirty && !valid(e.stripe, e.seq, e.version)) {
        // Stale tags: the entry can never serve again — drop it now so the
        // budget frees up, and miss.
        erase_entry(fm, it);
        count_drop(DropWhy::kInvalidation, 1);
        return miss();
      }
      const u64 n = std::min(ex.end(), e.end()) - pos;
      const u64 at = pos - e.start;
      out->insert(out->end(), e.bytes.begin() + at, e.bytes.begin() + at + n);
      used.push_back(&e);
      pos += n;
    }
  }
  for (Entry* e : used) e->lru = ++tick_;
  stats_.add(stat::kPvfsCacheHits);
  return true;
}

void ClientCache::insert_clean(pvfs::Handle h, u64 stripe_size,
                               u32 server_count, const ExtentList& file,
                               std::span<const std::byte> bytes,
                               const TagOf& tags) {
  if (!enabled() || p_.data_capacity == 0) return;
  u64 cursor = 0;
  for (const Extent& ex : file) {
    insert_pieces(h, stripe_size, server_count, ex.offset,
                  bytes.subspan(cursor, ex.length), /*dirty=*/false,
                  TimePoint::origin(), &tags);
    cursor += ex.length;
  }
}

void ClientCache::invalidate_extents(pvfs::Handle h, const ExtentList& file) {
  if (!enabled()) return;
  auto dit = data_.find(h);
  if (dit == data_.end()) return;
  for (const Extent& ex : file) {
    clear_range(dit->second, ex.offset, ex.end(), /*drop_dirty=*/false,
                DropWhy::kInvalidation);
  }
  if (dit->second.empty()) data_.erase(dit);
}

void ClientCache::note_version(pvfs::Handle h, u32 stripe, u64 version) {
  if (!enabled() || version == 0) return;
  auto dit = data_.find(h);
  if (dit == data_.end()) return;
  FileEntries& fm = dit->second;
  u64 dropped = 0;
  for (auto it = fm.begin(); it != fm.end();) {
    const Entry& e = it->second;
    if (!e.dirty && e.stripe == stripe && e.version < version) {
      // A replica demonstrably holds `version`; this entry's tag is older.
      // Version-aware placement would no longer serve these bytes, so the
      // cache must not either.
      data_bytes_ -= e.len();
      it = fm.erase(it);
      ++dropped;
      continue;
    }
    ++it;
  }
  count_drop(DropWhy::kInvalidation, dropped);
  if (fm.empty()) data_.erase(dit);
}

// --- Write-back plane -------------------------------------------------------

void ClientCache::stage_dirty(pvfs::Handle h, u64 stripe_size,
                              u32 server_count, const ExtentList& file,
                              std::span<const std::byte> bytes, TimePoint now) {
  if (!write_back()) return;
  u64 cursor = 0;
  for (const Extent& ex : file) {
    insert_pieces(h, stripe_size, server_count, ex.offset,
                  bytes.subspan(cursor, ex.length), /*dirty=*/true, now,
                  nullptr);
    cursor += ex.length;
  }
}

bool ClientCache::has_dirty(pvfs::Handle h) const {
  auto dit = data_.find(h);
  if (dit == data_.end()) return false;
  for (const auto& [off, e] : dit->second) {
    if (e.dirty) return true;
  }
  return false;
}

std::vector<ClientCache::DirtyRun> ClientCache::dirty_runs(
    pvfs::Handle h) const {
  std::vector<DirtyRun> out;
  auto dit = data_.find(h);
  if (dit == data_.end()) return out;
  for (const auto& [off, e] : dit->second) {
    if (!e.dirty) continue;
    out.push_back(DirtyRun{e.start, e.bytes, e.gen});
  }
  return out;
}

void ClientCache::flush_applied(pvfs::Handle h,
                                const std::vector<DirtyRun>& runs,
                                const TagOf& tags) {
  auto dit = data_.find(h);
  if (dit == data_.end()) return;
  FileEntries& fm = dit->second;
  for (const DirtyRun& run : runs) {
    auto it = fm.find(run.offset);
    if (it == fm.end()) continue;
    Entry& e = it->second;
    // Only the exact staging generation converts: a write that re-dirtied
    // the range mid-flush owns newer bytes and stays dirty for the next
    // flush.
    if (!e.dirty || e.gen != run.gen || e.len() != run.bytes.size()) continue;
    e.dirty = false;
    e.gen = 0;
    tags(e.stripe, &e.seq, &e.version);
  }
  evict_to_budget();
}

void ClientCache::overlay_dirty(
    pvfs::Handle h, const ExtentList& file,
    const std::function<void(u64, std::span<const std::byte>)>& apply) const {
  if (!write_back()) return;
  auto dit = data_.find(h);
  if (dit == data_.end()) return;
  const FileEntries& fm = dit->second;
  u64 stream = 0;  // stream position of ex.offset
  for (const Extent& ex : file) {
    auto it = fm.lower_bound(ex.offset);
    if (it != fm.begin()) --it;
    for (; it != fm.end() && it->second.start < ex.end(); ++it) {
      const Entry& e = it->second;
      if (!e.dirty || e.end() <= ex.offset) continue;
      const u64 lo = std::max(e.start, ex.offset);
      const u64 hi = std::min(e.end(), ex.end());
      apply(stream + (lo - ex.offset),
            std::span<const std::byte>(e.bytes).subspan(lo - e.start,
                                                         hi - lo));
    }
    stream += ex.length;
  }
}

// --- Lease plane ------------------------------------------------------------

void ClientCache::on_revoke(const pvfs::LeaseRevoke& rv) {
  if (!enabled()) return;
  u64 dropped = 0;
  switch (rv.reason) {
    case pvfs::LeaseRevokeReason::kCreated:
      // A (re)created name: whatever attr a holder cached predates it.
      dropped += erase_attr(rv.name);
      break;
    case pvfs::LeaseRevokeReason::kRemoved: {
      dropped += erase_attr(rv.name);
      auto dit = data_.find(rv.handle);
      if (dit != data_.end()) {
        // The file is gone: dirty extents are dead too, there is nothing
        // left to flush them into.
        for (const auto& [off, e] : dit->second) {
          data_bytes_ -= e.len();
          ++dropped;
        }
        data_.erase(dit);
      }
      break;
    }
    case pvfs::LeaseRevokeReason::kEpochBump: {
      // Re-route under the revoke's shard count (a split doubles it) and
      // drop only what the bumped shard now owns. This is what keeps a
      // takeover/migration/split from chilling unrelated shards' caches —
      // and what closes the seq-restart ABA for the affected one.
      for (auto it = attrs_.begin(); it != attrs_.end();) {
        if (pvfs::shard_of(it->first, rv.shard_count) == rv.shard) {
          it = attrs_.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
      for (auto dit = data_.begin(); dit != data_.end();) {
        if (pvfs::shard_of_handle(dit->first, rv.shard_count) != rv.shard) {
          ++dit;
          continue;
        }
        FileEntries& fm = dit->second;
        for (auto it = fm.begin(); it != fm.end();) {
          if (it->second.dirty) {
            // Dirty bytes survive the bump: they flush through whatever
            // authority the fresh map routes to.
            ++it;
            continue;
          }
          data_bytes_ -= it->second.len();
          it = fm.erase(it);
          ++dropped;
        }
        dit = fm.empty() ? data_.erase(dit) : std::next(dit);
      }
      break;
    }
  }
  count_drop(DropWhy::kLeaseRevoke, dropped);
}

void ClientCache::drop_file(pvfs::Handle h) {
  auto dit = data_.find(h);
  if (dit == data_.end()) return;
  for (const auto& [off, e] : dit->second) data_bytes_ -= e.len();
  data_.erase(dit);
}

void ClientCache::drop_all() {
  attrs_.clear();
  data_.clear();
  data_bytes_ = 0;
}

size_t ClientCache::data_entries(pvfs::Handle h) const {
  auto dit = data_.find(h);
  return dit == data_.end() ? 0 : dit->second.size();
}

}  // namespace pvfsib::cache
