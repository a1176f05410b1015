#include "vmem/address_space.h"

#include <cassert>

namespace pvfsib::vmem {

u64 AddressSpace::alloc(u64 bytes) {
  assert(bytes > 0);
  const u64 start = page_ceil(cursor_);
  const u64 len = page_ceil(bytes);
  cursor_ = start + len;
  ensure_backing(cursor_);
  insert_extent(start, len);
  allocations_[start] = len;
  return start;
}

void AddressSpace::skip(u64 bytes) { cursor_ = page_ceil(cursor_ + bytes); }

Status AddressSpace::alloc_at(u64 vaddr, u64 bytes) {
  if (vaddr < kBaseVaddr) {
    return invalid_argument("alloc_at below base address");
  }
  if (vaddr != page_floor(vaddr)) {
    return invalid_argument("alloc_at requires page-aligned vaddr");
  }
  const u64 len = page_ceil(bytes);
  // Reject overlap with any mapped page.
  auto it = mapped_.upper_bound(vaddr);
  if (it != mapped_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second > vaddr) {
      return already_exists("range overlaps existing mapping");
    }
  }
  if (it != mapped_.end() && it->first < vaddr + len) {
    return already_exists("range overlaps existing mapping");
  }
  cursor_ = std::max(cursor_, vaddr + len);
  ensure_backing(vaddr + len);
  insert_extent(vaddr, len);
  allocations_[vaddr] = len;
  return Status::ok();
}

Status AddressSpace::free_at(u64 vaddr) {
  auto it = allocations_.find(vaddr);
  if (it == allocations_.end()) {
    return not_found("no allocation at this address");
  }
  const u64 len = it->second;
  allocations_.erase(it);
  backing_.zero(vaddr - kBaseVaddr, len);

  // Carve [vaddr, vaddr+len) out of the mapped extents.
  auto m = mapped_.upper_bound(vaddr);
  if (m != mapped_.begin()) --m;
  while (m != mapped_.end() && m->first < vaddr + len) {
    const u64 mstart = m->first;
    const u64 mlen = m->second;
    const u64 mend = mstart + mlen;
    if (mend <= vaddr) {
      ++m;
      continue;
    }
    m = mapped_.erase(m);
    if (mstart < vaddr) mapped_[mstart] = vaddr - mstart;
    if (mend > vaddr + len) {
      mapped_[vaddr + len] = mend - (vaddr + len);
      m = mapped_.find(vaddr + len);
    }
  }
  return Status::ok();
}

bool AddressSpace::range_allocated(u64 addr, u64 len) const {
  if (len == 0) return true;
  const u64 lo = page_floor(addr);
  const u64 hi = page_ceil(addr + len);
  auto it = mapped_.upper_bound(lo);
  if (it == mapped_.begin()) return false;
  --it;
  // Extents are merged, so a single extent must cover the whole page range.
  return it->first <= lo && it->first + it->second >= hi;
}

ExtentList AddressSpace::allocated_within(const Extent& span) const {
  ExtentList out;
  if (span.empty()) return out;
  auto it = mapped_.upper_bound(span.offset);
  if (it != mapped_.begin()) --it;
  for (; it != mapped_.end() && it->first < span.end(); ++it) {
    const u64 lo = std::max(span.offset, it->first);
    const u64 hi = std::min(span.end(), it->first + it->second);
    if (lo < hi) out.push_back({lo, hi - lo});
  }
  return out;
}

ExtentList AddressSpace::allocated_extents() const {
  ExtentList out;
  out.reserve(mapped_.size());
  for (const auto& [start, len] : mapped_) out.push_back({start, len});
  return out;
}

u64 AddressSpace::bytes_mapped() const {
  u64 sum = 0;
  for (const auto& [start, len] : mapped_) sum += len;
  return sum;
}

std::byte* AddressSpace::data(u64 addr) {
  assert(addr >= kBaseVaddr);
  ensure_backing(addr + 1);
  return backing_.data() + (addr - kBaseVaddr);
}

const std::byte* AddressSpace::data(u64 addr) const {
  assert(addr >= kBaseVaddr);
  assert(addr - kBaseVaddr < backing_.size());
  return backing_.data() + (addr - kBaseVaddr);
}

std::span<std::byte> AddressSpace::writable_span(u64 addr, u64 len) {
  ensure_backing(addr + len);
  return {data(addr), len};
}

std::span<const std::byte> AddressSpace::readable_span(u64 addr,
                                                       u64 len) const {
  assert(addr + len - kBaseVaddr <= backing_.size());
  return {data(addr), len};
}

void AddressSpace::ensure_backing(u64 end_addr) {
  backing_.grow_to(end_addr - kBaseVaddr);
}

void AddressSpace::insert_extent(u64 start, u64 len) {
  u64 lo = start;
  u64 hi = start + len;
  // Merge with predecessor if touching/overlapping.
  auto it = mapped_.upper_bound(lo);
  if (it != mapped_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second >= lo) {
      lo = prev->first;
      hi = std::max(hi, prev->first + prev->second);
      mapped_.erase(prev);
    }
  }
  // Merge with successors.
  it = mapped_.lower_bound(lo);
  while (it != mapped_.end() && it->first <= hi) {
    hi = std::max(hi, it->first + it->second);
    it = mapped_.erase(it);
  }
  mapped_[lo] = hi - lo;
}

}  // namespace pvfsib::vmem
