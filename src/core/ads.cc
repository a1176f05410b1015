#include "core/ads.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace pvfsib::core {

namespace {

// Access indices sorted by file offset, with each access's packed-stream
// offset (request order) attached.
struct OrderedAccess {
  Extent extent;
  u32 index = 0;
  u64 stream_off = 0;
};

std::vector<OrderedAccess> order_accesses(const ExtentList& accesses) {
  std::vector<OrderedAccess> out;
  out.reserve(accesses.size());
  u64 stream = 0;
  for (u32 i = 0; i < accesses.size(); ++i) {
    out.push_back({accesses[i], i, stream});
    stream += accesses[i].length;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const OrderedAccess& a, const OrderedAccess& b) {
                     return a.extent.offset < b.extent.offset;
                   });
  return out;
}

}  // namespace

ActiveDataSieving::ActiveDataSieving(const DiskParams& disk,
                                     const FsParams& fs, const MemParams& mem,
                                     AdsConfig cfg, Stats& stats)
    : disk_(disk), fs_(fs), mem_(mem), cfg_(cfg), stats_(stats) {}

Duration ActiveDataSieving::t_read_separate(const ExtentList& accesses) const {
  Duration t = (fs_.read_overhead + fs_.seek_overhead) *
               static_cast<i64>(accesses.size());
  for (const Extent& e : accesses) {
    t += transfer_time(e.length, disk_.media_bw(e.length, /*write=*/false));
  }
  return t;
}

Duration ActiveDataSieving::t_write_separate(const ExtentList& accesses) const {
  Duration t = (fs_.write_overhead + fs_.seek_overhead) *
               static_cast<i64>(accesses.size());
  for (const Extent& e : accesses) {
    t += transfer_time(e.length, disk_.media_bw(e.length, /*write=*/true));
  }
  return t;
}

Duration ActiveDataSieving::t_read_sieved(u64 s_ds, u64 s_ds_read) const {
  // The seek/read syscall is issued regardless; only existing bytes touch
  // the media (the bandwidth curve is still evaluated at the full span, as
  // the head passes over it).
  return fs_.read_overhead + fs_.seek_overhead +
         transfer_time(s_ds_read, disk_.media_bw(s_ds, /*write=*/false));
}

Duration ActiveDataSieving::t_write_sieved(u64 s_req, u64 s_ds,
                                           u64 s_ds_read) const {
  return t_read_sieved(s_ds, s_ds_read) + mem_.copy_cost(s_req) +
         fs_.lock_overhead + fs_.write_overhead +
         transfer_time(s_ds, disk_.media_bw(s_ds, /*write=*/true)) +
         fs_.unlock_overhead;
}

u64 ActiveDataSieving::span_bytes(const std::vector<Window>& plan,
                                  u64 file_size) {
  u64 total = 0;
  for (const Window& w : plan) {
    if (w.span.offset >= file_size) continue;
    total += std::min(w.span.end(), file_size) - w.span.offset;
  }
  return total;
}

u64 ActiveDataSieving::sieved_bytes(const ExtentList& accesses) const {
  return span_bytes(plan_windows(accesses), ~0ULL);
}

u64 ActiveDataSieving::sieved_readable_bytes(const ExtentList& accesses,
                                             u64 file_size) const {
  return span_bytes(plan_windows(accesses), file_size);
}

AdsDecision ActiveDataSieving::decide(const ExtentList& accesses,
                                      bool is_write, u64 file_size) const {
  AdsDecision d;
  d.windows = plan_windows(accesses);
  d.s_req = total_length(accesses);
  d.s_ds = span_bytes(d.windows, ~0ULL);
  const u64 s_ds_read = span_bytes(d.windows, file_size);
  d.t_separate =
      is_write ? t_write_separate(accesses) : t_read_separate(accesses);
  d.t_sieve = is_write ? t_write_sieved(d.s_req, d.s_ds, s_ds_read)
                       : t_read_sieved(d.s_ds, s_ds_read);
  if (cfg_.force) {
    d.sieve = accesses.size() > 1;
  } else {
    // Sieving a single access is pure overhead; otherwise trust the model.
    d.sieve = accesses.size() > 1 && d.t_sieve < d.t_separate;
  }
  stats_.add(d.sieve ? stat::kAdsSieved : stat::kAdsSeparate);
  if (d.sieve) {
    stats_.add(stat::kAdsExtraBytes, static_cast<i64>(d.s_ds - d.s_req));
  }
  return d;
}

std::vector<ActiveDataSieving::Window> ActiveDataSieving::plan_windows(
    const ExtentList& accesses) const {
  std::vector<Window> out;
  const u64 buf = cfg_.sieve_buffer_size;
  assert(buf >= kPageSize);

  Window cur;
  bool open = false;
  auto flush = [&] {
    if (open) {
      out.push_back(std::move(cur));
      cur = Window{};
      open = false;
    }
  };

  for (const OrderedAccess& a : order_accesses(accesses)) {
    u64 off = a.extent.offset;
    u64 left = a.extent.length;
    u64 stream = a.stream_off;
    while (left > 0) {
      if (open && off + 1 > cur.span.offset + buf) flush();
      if (!open) {
        cur.span = {off, 0};
        open = true;
      }
      // How much of this access fits into the current window?
      const u64 room = cur.span.offset + buf - off;
      const u64 n = std::min(room, left);
      cur.span.length = std::max(cur.span.length, off + n - cur.span.offset);
      cur.pieces.push_back(Piece{a.index, off - cur.span.offset, stream, n});
      off += n;
      stream += n;
      left -= n;
      if (off == cur.span.offset + buf && left > 0) flush();
    }
  }
  flush();
  return out;
}

}  // namespace pvfsib::core
