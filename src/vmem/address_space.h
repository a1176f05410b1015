// Per-process virtual address space model.
//
// InfiniBand memory registration pins *pages*; whether a page can be pinned
// depends on whether the process has actually mapped it. Optimistic Group
// Registration's whole point is handling unallocated "holes" between list
// I/O buffers, so the simulation needs a faithful page-granular allocation
// map plus the OS services the paper uses: failing registration on
// unallocated pages, and querying true allocation extents (the custom
// kernel syscall vs reading /proc/$pid/maps).
//
// Allocations carry real backing bytes (one flat arena indexed by virtual
// address) so that RDMA operations move actual data and end-to-end tests can
// verify byte-exact results. The arena is zero-on-touch memory: a mapped
// page costs host RAM only once something writes it, and a freed one gives
// its RAM back.
#pragma once

#include <cstring>
#include <map>
#include <span>

#include "common/extent.h"
#include "common/status.h"
#include "common/types.h"
#include "common/zero_pages.h"

namespace pvfsib::vmem {

class AddressSpace {
 public:
  // Virtual addresses start well above zero so that 0 can mean "null".
  static constexpr u64 kBaseVaddr = 0x10000;

  AddressSpace() = default;
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // mmap-like allocation: page-aligned, page-granular. Returns the vaddr.
  u64 alloc(u64 bytes);

  // Advance the allocation cursor without mapping — creates a permanent
  // unallocated hole (used to model distinct malloc arenas / guard gaps).
  void skip(u64 bytes);

  // Map a specific range (page-rounded). Fails if any page is already
  // mapped or the range precedes the base address.
  Status alloc_at(u64 vaddr, u64 bytes);

  // Unmap a previous allocation made at exactly `vaddr`. Its pages read as
  // zero afterwards.
  Status free_at(u64 vaddr);

  // True when every page of [addr, addr+len) is mapped.
  bool range_allocated(u64 addr, u64 len) const;

  // The OS hole-query service: mapped extents intersecting `span`, sorted.
  // The *cost* of the query is charged by the caller from OsParams using
  // the returned list's size (the syscall walks one vm_area per extent).
  ExtentList allocated_within(const Extent& span) const;

  // All mapped extents (for diagnostics/tests).
  ExtentList allocated_extents() const;

  u64 bytes_mapped() const;

  // --- Backing data access -------------------------------------------------
  // Unchecked raw access; `addr` need not be mapped (holes are readable
  // garbage, as on a real machine they'd fault — asserts in debug builds
  // guard the mapped paths that matter).
  std::byte* data(u64 addr);
  const std::byte* data(u64 addr) const;

  std::span<std::byte> writable_span(u64 addr, u64 len);
  std::span<const std::byte> readable_span(u64 addr, u64 len) const;

  // Convenience typed accessors for tests/workloads.
  template <typename T>
  T read_pod(u64 addr) const {
    T v;
    std::memcpy(&v, data(addr), sizeof(T));
    return v;
  }
  template <typename T>
  void write_pod(u64 addr, const T& v) {
    std::memcpy(data(addr), &v, sizeof(T));
  }

 private:
  void ensure_backing(u64 end_addr);
  // Insert [start,len) into the allocation map, merging neighbours.
  void insert_extent(u64 start, u64 len);

  // Mapped extents: start -> length, page-granular, disjoint, merged.
  std::map<u64, u64> mapped_;
  // Original allocations (for free_at): start -> page-rounded length.
  std::map<u64, u64> allocations_;
  u64 cursor_ = kBaseVaddr;
  ZeroPages backing_;  // index = vaddr - kBaseVaddr
};

}  // namespace pvfsib::vmem
