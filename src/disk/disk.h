// Rotating-media model: a disk head with positional state, distance-dependent
// seek cost, and size-dependent media bandwidth (small requests amortize
// firmware/DMA setup poorly). Calibrated so large sequential transfers hit
// Table 3's uncached 25 MB/s write / 20 MB/s read.
#pragma once

#include <cstdlib>

#include "common/config.h"
#include "common/sim_time.h"
#include "common/stats.h"

namespace pvfsib::disk {

class Disk {
 public:
  Disk(const DiskParams& params, Stats& stats)
      : params_(params), stats_(stats) {}

  // Service a media read/write of `len` bytes at absolute disk position
  // `pos`. Returns the service time (seek + transfer) and moves the head.
  Duration read(u64 pos, u64 len) { return access(pos, len, /*write=*/false); }
  Duration write(u64 pos, u64 len) { return access(pos, len, /*write=*/true); }

  u64 head() const { return head_; }
  const DiskParams& params() const { return params_; }

 private:
  Duration access(u64 pos, u64 len, bool write) {
    Duration cost = Duration::zero();
    if (pos != head_) {
      const u64 dist = pos > head_ ? pos - head_ : head_ - pos;
      cost += params_.seek_cost(dist);
      stats_.add(stat::kDiskSeek);
    }
    cost += transfer_time(len, params_.media_bw(len, write));
    head_ = pos + len;
    stats_.add(write ? stat::kDiskWriteBytes : stat::kDiskReadBytes,
               static_cast<i64>(len));
    return cost;
  }

  DiskParams params_;
  Stats& stats_;
  u64 head_ = 0;
};

}  // namespace pvfsib::disk
