#include "disk/page_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace pvfsib::disk {

PageCache::PageCache(const DiskParams& params)
    : capacity_pages_(params.cache_capacity / kPageSize), slots_(1) {
  assert(capacity_pages_ < std::numeric_limits<u32>::max());
}

ExtentList PageCache::cached_ranges(u32 file, const Extent& window) const {
  ExtentList out;
  if (window.empty() || file >= files_.size()) return out;
  const std::vector<u32>& slot = files_[file].slot;
  const u64 first = window.offset / kPageSize;
  const u64 last = std::min<u64>((window.end() - 1) / kPageSize + 1,
                                 slot.size());
  for (u64 p = first; p < last; ++p) {
    if (slot[p] == kNone) continue;
    const u64 lo = std::max(window.offset, p * kPageSize);
    const u64 hi = std::min(window.end(), (p + 1) * kPageSize);
    if (!out.empty() && out.back().end() == lo) {
      out.back().length = hi - out.back().offset;
    } else {
      out.push_back({lo, hi - lo});
    }
  }
  return out;
}

std::vector<PageKey> PageCache::insert(u32 file, u64 first_page, u64 n,
                                       bool dirty) {
  std::vector<PageKey> evicted_dirty;
  if (n == 0) return evicted_dirty;
  if (file >= files_.size()) files_.resize(file + 1);
  FileTable& t = files_[file];  // eviction never resizes files_
  const u64 end = first_page + n;
  if (t.slot.size() < end) t.slot.resize(end, kNone);
  if (dirty) {
    if (t.dirty.size() * 64 < end) t.dirty.resize((end + 63) / 64, 0);
    const bool had = t.dirty_lo < t.dirty_hi;
    t.dirty_lo = had ? std::min(t.dirty_lo, first_page) : first_page;
    t.dirty_hi = had ? std::max(t.dirty_hi, end) : end;
  }
  for (u64 p = first_page; p < end; ++p) {
    u32 s = t.slot[p];
    if (s != kNone) {
      unlink(s);
      link_front(s);
    } else {
      while (pages_cached_ >= capacity_pages_ &&
             slots_[kNone].prev != kNone) {
        evict_lru(evicted_dirty);
      }
      if (free_ != kNone) {
        s = free_;
        free_ = slots_[s].next;
      } else {
        s = static_cast<u32>(slots_.size());
        slots_.emplace_back();
      }
      slots_[s].page = p;
      slots_[s].file = file;
      link_front(s);
      t.slot[p] = s;
      ++pages_cached_;
    }
    if (dirty) t.dirty[p / 64] |= u64{1} << (p % 64);
  }
  return evicted_dirty;
}

ExtentList PageCache::flush_dirty(u32 file) {
  ExtentList out;
  if (file >= files_.size()) return out;
  take_dirty(files_[file], [&](u64 page) {
    if (!out.empty() && out.back().end() == page * kPageSize) {
      out.back().length += kPageSize;
    } else {
      out.push_back({page * kPageSize, kPageSize});
    }
  });
  return out;
}

std::vector<PageKey> PageCache::drop(u32 file) {
  std::vector<PageKey> dirty;
  if (file >= files_.size()) return dirty;
  FileTable& t = files_[file];
  take_dirty(t, [&](u64 page) { dirty.push_back({file, page}); });
  for (const u32 s : t.slot) {
    if (s != kNone) release(s);
  }
  t = FileTable{};
  return dirty;
}

std::vector<PageKey> PageCache::drop_all() {
  std::vector<PageKey> dirty;
  for (u32 file = 0; file < files_.size(); ++file) {
    take_dirty(files_[file], [&](u64 page) { dirty.push_back({file, page}); });
  }
  files_.clear();
  slots_.resize(1);
  slots_[kNone] = Slot{};
  free_ = kNone;
  pages_cached_ = 0;
  return dirty;
}

void PageCache::link_front(u32 s) {
  Slot& head = slots_[kNone];
  slots_[s].prev = kNone;
  slots_[s].next = head.next;
  slots_[head.next].prev = s;
  head.next = s;
}

void PageCache::unlink(u32 s) {
  const Slot& x = slots_[s];
  slots_[x.prev].next = x.next;
  slots_[x.next].prev = x.prev;
}

void PageCache::release(u32 s) {
  unlink(s);
  slots_[s].next = free_;
  free_ = s;
  --pages_cached_;
}

void PageCache::evict_lru(std::vector<PageKey>& evicted_dirty) {
  const u32 s = slots_[kNone].prev;
  const Slot& v = slots_[s];
  FileTable& t = files_[v.file];
  t.slot[v.page] = kNone;
  const u64 w = v.page / 64;
  const u64 bit = u64{1} << (v.page % 64);
  if (w < t.dirty.size() && (t.dirty[w] & bit) != 0) {
    t.dirty[w] &= ~bit;
    evicted_dirty.push_back({v.file, v.page});
  }
  release(s);
}

template <typename Emit>
void PageCache::take_dirty(FileTable& t, Emit emit) {
  const u64 end_word = (t.dirty_hi + 63) / 64;
  for (u64 w = t.dirty_lo / 64; w < end_word; ++w) {
    for (u64 bits = t.dirty[w]; bits != 0; bits &= bits - 1) {
      emit(w * 64 + static_cast<u64>(std::countr_zero(bits)));
    }
    t.dirty[w] = 0;
  }
  t.dirty_lo = t.dirty_hi = 0;
}

}  // namespace pvfsib::disk
