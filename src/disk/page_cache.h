// Unified LRU page cache shared by all files on one I/O node, with dirty
// tracking for write-back. Cache-hit service bandwidths come straight from
// Table 3's "with cache" bonnie rows.
#pragma once

#include <list>
#include <map>
#include <set>
#include <vector>

#include "common/config.h"
#include "common/extent.h"
#include "common/stats.h"

namespace pvfsib::disk {

struct PageKey {
  u32 file = 0;
  u64 page = 0;
  auto operator<=>(const PageKey&) const = default;
};

class PageCache {
 public:
  explicit PageCache(const DiskParams& params) : params_(params) {
    capacity_pages_ = params.cache_capacity / kPageSize;
  }

  bool cached(PageKey k) const { return entries_.count(k) != 0; }

  // Byte ranges of `window` (file byte space) currently cached for `file`.
  ExtentList cached_ranges(u32 file, const Extent& window) const;

  // Insert pages [first_page, first_page + n) for `file`. Dirty pages
  // evicted to make room are returned so the caller can charge write-back.
  std::vector<PageKey> insert(u32 file, u64 first_page, u64 n, bool dirty);

  // Dirty byte ranges of `file`, coalesced, and mark them clean (fsync).
  ExtentList flush_dirty(u32 file);

  // Drop every page of `file` (or all files); dirty pages are returned so
  // the caller can charge write-back before discarding.
  std::vector<PageKey> drop(u32 file);
  std::vector<PageKey> drop_all();

  u64 pages_cached() const { return entries_.size(); }
  u64 capacity_pages() const { return capacity_pages_; }

 private:
  struct Entry {
    std::list<PageKey>::iterator lru_it;
  };

  void touch(std::map<PageKey, Entry>::iterator it);

  DiskParams params_;
  u64 capacity_pages_ = 0;
  std::map<PageKey, Entry> entries_;
  std::list<PageKey> lru_;  // front = most recent
  // The dirty-page index: file -> its cached dirty pages, ascending. An
  // fsync visits only these instead of every cached page of the file.
  std::map<u32, std::set<u64>> dirty_;
};

}  // namespace pvfsib::disk
