// Unified LRU page cache shared by all files on one I/O node, with dirty
// tracking for write-back. Cache-hit service bandwidths come straight from
// Table 3's "with cache" bonnie rows.
//
// Layout: cached pages live in a slot array whose entries form the LRU as
// an intrusive doubly linked list of slot indices; each file has a page
// table (page -> slot) and a dirty bitmap. A lookup is an index, a touch
// relinks two slots, and the bookkeeping allocates nothing per page.
#pragma once

#include <vector>

#include "common/config.h"
#include "common/extent.h"

namespace pvfsib::disk {

struct PageKey {
  u32 file = 0;
  u64 page = 0;
  auto operator<=>(const PageKey&) const = default;
};

class PageCache {
 public:
  explicit PageCache(const DiskParams& params);

  bool cached(PageKey k) const {
    return k.file < files_.size() && k.page < files_[k.file].slot.size() &&
           files_[k.file].slot[k.page] != kNone;
  }

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

  u64 pages_cached() const { return pages_cached_; }
  u64 capacity_pages() const { return capacity_pages_; }

 private:
  // Slot 0 is the LRU list's sentinel (next = most recent, prev = least
  // recent), so slot index 0 doubles as "not cached" in a page table.
  // Free slots chain through `next`.
  static constexpr u32 kNone = 0;
  struct Slot {
    u64 page = 0;
    u32 file = 0;
    u32 prev = kNone;
    u32 next = kNone;
  };
  // Per-file state, indexed by file id (LocalFs fds: small and dense).
  // `slot` grows only to the file's highest inserted page (4 bytes per
  // 4 KiB page); drop() releases it.
  struct FileTable {
    std::vector<u32> slot;  // page -> slot index
    std::vector<u64> dirty;  // one bit per page
    u64 dirty_lo = 0;  // every dirty page lies in [dirty_lo, dirty_hi)
    u64 dirty_hi = 0;
  };

  void link_front(u32 s);
  void unlink(u32 s);
  // Unlink slot `s` from the LRU and put it on the free list.
  void release(u32 s);
  void evict_lru(std::vector<PageKey>& evicted_dirty);
  // Calls emit(page) for each dirty page of `t` in ascending order and
  // marks it clean.
  template <typename Emit>
  static void take_dirty(FileTable& t, Emit emit);

  u64 capacity_pages_ = 0;
  u64 pages_cached_ = 0;
  std::vector<Slot> slots_;
  u32 free_ = kNone;
  std::vector<FileTable> files_;
};

}  // namespace pvfsib::disk
