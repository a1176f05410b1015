#include "common/zero_pages.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

namespace pvfsib {

namespace {
u64 host_page() {
  static const u64 page = static_cast<u64>(sysconf(_SC_PAGESIZE));
  return page;
}
}  // namespace

ZeroPages::~ZeroPages() { clear(); }

void ZeroPages::grow_to(u64 n) {
  if (n <= size_) return;
  if (n > capacity_) {
    // Geometric growth of the mapping only reserves address space; the
    // pages stay unbacked until written.
    const u64 cap = align_up(std::max(n, 2 * capacity_), host_page());
    void* p = base_ == nullptr
                  ? mmap(nullptr, cap, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0)
                  : mremap(base_, capacity_, cap, MREMAP_MAYMOVE);
    if (p == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<std::byte*>(p);
    capacity_ = cap;
  }
  size_ = n;
}

void ZeroPages::zero(u64 off, u64 len) {
  assert(off + len <= size_);
  const u64 end = off + len;
  const u64 lo = std::min(align_up(off, host_page()), end);
  const u64 hi = std::max(align_down(end, host_page()), lo);
  std::memset(base_ + off, 0, lo - off);
  // A private anonymous page reads as zero again after MADV_DONTNEED.
  if (hi > lo) madvise(base_ + lo, hi - lo, MADV_DONTNEED);
  std::memset(base_ + hi, 0, end - hi);
}

void ZeroPages::clear() {
  if (base_ != nullptr) munmap(base_, capacity_);
  base_ = nullptr;
  size_ = 0;
  capacity_ = 0;
}

}  // namespace pvfsib
