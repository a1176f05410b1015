// List I/O request representation (the pvfs_read_list / pvfs_write_list
// interface of Ching et al. that the paper builds on) and its partitioning
// across striped I/O servers.
//
// A list I/O request pairs a set of client memory segments with a set of
// file extents; the byte streams described by the two sides must have equal
// length. Partitioning walks both lists in stream order, splits at stripe
// boundaries, and emits one sub-request per I/O server whose file extents
// are in that server's local offsets, with the matching memory slices —
// merging local file extents that land adjacent (the only merge PVFS does).
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "common/extent.h"
#include "common/status.h"
#include "common/types.h"

namespace pvfsib::core {

// A contiguous region of client virtual memory.
struct MemSegment {
  u64 addr = 0;
  u64 length = 0;

  friend bool operator==(const MemSegment&, const MemSegment&) = default;
};

using MemSegmentList = std::vector<MemSegment>;

u64 total_bytes(const MemSegmentList& segs);

// Walks a memory segment list in stream order. take() appends the next
// `want` bytes to `dst` as slices, extending dst's last slice when the two
// are contiguous in memory; skip() passes over the next `n` bytes.
class MemCursor {
 public:
  explicit MemCursor(std::span<const MemSegment> mem)
      : seg_(mem.data()), end_(mem.data() + mem.size()) {}

  void take(u64 want, MemSegmentList& dst) { walk(want, &dst); }
  void skip(u64 n) { walk(n, nullptr); }

 private:
  void walk(u64 want, MemSegmentList* dst) {
    while (want > 0) {
      assert(seg_ != end_);
      const u64 n = std::min(seg_->length - used_, want);
      const u64 addr = seg_->addr + used_;
      if (dst != nullptr) {
        if (!dst->empty() && dst->back().addr + dst->back().length == addr) {
          dst->back().length += n;
        } else {
          dst->push_back({addr, n});
        }
      }
      used_ += n;
      want -= n;
      if (used_ == seg_->length) {
        ++seg_;
        used_ = 0;
      }
    }
  }

  const MemSegment* seg_;  // current segment
  const MemSegment* end_;
  u64 used_ = 0;  // bytes of *seg_ already taken
};

struct ListIoRequest {
  MemSegmentList mem;  // destinations (read) or sources (write)
  ExtentList file;     // logical file extents, in stream order

  u64 bytes() const { return total_length(file); }
};

// Both sides non-empty segments, equal totals.
Status validate(const ListIoRequest& req);

// Round-robin striping map: logical file offsets -> (server, local offset).
class StripeMap {
 public:
  StripeMap(u64 stripe_size, u32 server_count)
      : stripe_size_(stripe_size), server_count_(server_count) {}

  u32 server_of(u64 logical_offset) const {
    return static_cast<u32>((logical_offset / stripe_size_) % server_count_);
  }
  u64 local_offset(u64 logical_offset) const {
    const u64 stripe = logical_offset / stripe_size_;
    return (stripe / server_count_) * stripe_size_ + logical_offset % stripe_size_;
  }
  u64 logical_offset(u32 server, u64 local) const {
    const u64 local_stripe = local / stripe_size_;
    return (local_stripe * server_count_ + server) * stripe_size_ +
           local % stripe_size_;
  }

  u64 stripe_size() const { return stripe_size_; }
  u32 server_count() const { return server_count_; }

 private:
  u64 stripe_size_;
  u32 server_count_;
};

// The piece of a list I/O request that one I/O server processes.
struct ServerSubRequest {
  u32 server = 0;
  ExtentList file;     // extents in the server's *local* file, stream order
  MemSegmentList mem;  // matching client memory slices, stream order

  u64 bytes() const { return total_length(file); }
  bool empty() const { return file.empty(); }
};

// Split `req` across servers. Returns one entry per server that receives
// any data (ordered by server id). Adjacent local file extents are merged;
// memory slices are kept exactly aligned with the file stream.
std::vector<ServerSubRequest> partition(const ListIoRequest& req,
                                        const StripeMap& map);

}  // namespace pvfsib::core
