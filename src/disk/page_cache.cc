#include "disk/page_cache.h"

namespace pvfsib::disk {

ExtentList PageCache::cached_ranges(u32 file, const Extent& window) const {
  ExtentList out;
  if (window.empty()) return out;
  const u64 first = window.offset / kPageSize;
  const u64 last = (window.end() - 1) / kPageSize;
  auto it = entries_.lower_bound(PageKey{file, first});
  for (; it != entries_.end() && it->first.file == file &&
         it->first.page <= last;
       ++it) {
    const u64 lo = std::max(window.offset, it->first.page * kPageSize);
    const u64 hi = std::min(window.end(), (it->first.page + 1) * kPageSize);
    if (lo < hi) out.push_back({lo, hi - lo});
  }
  return coalesce(out);
}

std::vector<PageKey> PageCache::insert(u32 file, u64 first_page, u64 n,
                                       bool dirty) {
  std::vector<PageKey> evicted_dirty;
  std::set<u64>* file_dirty = dirty ? &dirty_[file] : nullptr;
  for (u64 p = first_page; p < first_page + n; ++p) {
    const PageKey key{file, p};
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      touch(it);
    } else {
      while (entries_.size() >= capacity_pages_ && !lru_.empty()) {
        const PageKey victim = lru_.back();
        const auto d = dirty_.find(victim.file);
        if (d != dirty_.end() && d->second.erase(victim.page) != 0) {
          evicted_dirty.push_back(victim);
        }
        entries_.erase(victim);
        lru_.pop_back();
      }
      lru_.push_front(key);
      entries_[key] = Entry{lru_.begin()};
    }
    if (file_dirty != nullptr) file_dirty->insert(p);
  }
  return evicted_dirty;
}

ExtentList PageCache::flush_dirty(u32 file) {
  ExtentList dirty;
  const auto it = dirty_.find(file);
  if (it == dirty_.end()) return dirty;
  for (const u64 page : it->second) {
    dirty.push_back({page * kPageSize, kPageSize});
  }
  dirty_.erase(it);
  return coalesce(dirty);
}

std::vector<PageKey> PageCache::drop(u32 file) {
  std::vector<PageKey> dirty;
  if (const auto d = dirty_.find(file); d != dirty_.end()) {
    for (const u64 page : d->second) dirty.push_back({file, page});
    dirty_.erase(d);
  }
  auto it = entries_.lower_bound(PageKey{file, 0});
  while (it != entries_.end() && it->first.file == file) {
    lru_.erase(it->second.lru_it);
    it = entries_.erase(it);
  }
  return dirty;
}

std::vector<PageKey> PageCache::drop_all() {
  std::vector<PageKey> dirty;
  for (const auto& [file, pages] : dirty_) {
    for (const u64 page : pages) dirty.push_back({file, page});
  }
  dirty_.clear();
  entries_.clear();
  lru_.clear();
  return dirty;
}

void PageCache::touch(std::map<PageKey, Entry>::iterator it) {
  lru_.erase(it->second.lru_it);
  lru_.push_front(it->first);
  it->second.lru_it = lru_.begin();
}

}  // namespace pvfsib::disk
