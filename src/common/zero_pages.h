// A growable, contiguous byte region whose bytes read as zero until written.
//
// The region lives in an anonymous memory mapping, so the kernel supplies a
// zero page on first touch: capacity nobody writes costs neither host RSS
// nor a fill pass, and growth remaps the pages already touched instead of
// copying them. This is what lets an iod reserve a staging buffer for every
// client connection, or a file grow to gigabytes of mostly-untouched holes,
// while the simulator's memory follows only the bytes a run really moves.
//
// Like std::vector, growth may move the region: pointers from data() are
// valid until the next grow_to().
#pragma once

#include <cstddef>

#include "common/types.h"

namespace pvfsib {

class ZeroPages {
 public:
  ZeroPages() = default;
  ~ZeroPages();
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  std::byte* data() { return base_; }
  const std::byte* data() const { return base_; }
  u64 size() const { return size_; }

  // Grow to `n` bytes (no-op when already that large); the new bytes read
  // as zero.
  void grow_to(u64 n);

  // Make [off, off+len) (inside size()) read as zero again, handing whole
  // host pages back to the kernel.
  void zero(u64 off, u64 len);

  // Unmap everything; size() becomes 0.
  void clear();

 private:
  std::byte* base_ = nullptr;
  u64 size_ = 0;
  u64 capacity_ = 0;  // mapped bytes, a multiple of the host page size
};

}  // namespace pvfsib
