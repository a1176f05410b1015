// Active Data Sieving (Section 5): server-side data sieving guarded by an
// explicit cost model.
//
// When a list I/O request reaches an I/O node, the node compares the
// modelled cost of servicing the N noncontiguous accesses separately
// against the cost of one large sieved access (paper Table 1 parameters):
//
//   T_read  = N*(O_r + O_seek) + sum_i S_i / B_r(S_i)
//   T_write = N*(O_w + O_seek) + sum_i S_i / B_w(S_i)
//   T_dsr   = O_r + O_seek + S_ds / B_r(S_ds)
//   T_dsw   = T_dsr + S_req/B_mem + O_lock + O_w + S_ds/B_w(S_ds) + O_unlock
//
// The model is deliberately conservative: bandwidths are the *uncached*
// media curves, so when it picks sieving, caching only widens the win.
//
// Execution plans: the sieve buffer is finite (the iod staging buffer), so
// sorted accesses are grouped into windows whose spans fit the buffer; each
// window is one (lseek, read) [plus one (lseek, write) for the RMW cycle],
// and every requested piece is located inside its window for gather-send or
// copy-in.
#pragma once

#include <vector>

#include "common/config.h"
#include "common/extent.h"
#include "common/sim_time.h"
#include "common/stats.h"

namespace pvfsib::core {

struct AdsConfig {
  u64 sieve_buffer_size = 4 * kMiB;
  bool force = false;  // ablation: sieve regardless of the model
};

struct AdsDecision;

class ActiveDataSieving {
 public:
  ActiveDataSieving(const DiskParams& disk, const FsParams& fs,
                    const MemParams& mem, AdsConfig cfg, Stats& stats);

  // Decide for a request's access list (any order; internally sorted).
  //
  // `file_size` is the iod-local stripe file's current size: sieve spans
  // beyond EOF cost no read in the RMW cycle (appending writes), one of the
  // server-side advantages the paper claims for ADS — the I/O node knows
  // the underlying file's state, a client-side implementation does not.
  // Defaults to "everything exists" (the fully conservative model).
  // The decision carries the window plan it priced, which is the plan a
  // sieved execution runs.
  AdsDecision decide(const ExtentList& accesses, bool is_write,
                     u64 file_size = ~0ULL) const;

  // One requested piece as located inside a sieve window. `stream_off` is
  // the piece's position in the packed request data stream (request order),
  // `window_off` its position inside the window's sieve buffer.
  struct Piece {
    u32 access_index = 0;
    u64 window_off = 0;
    u64 stream_off = 0;
    u64 length = 0;
  };
  struct Window {
    Extent span;                // file range one sieved access covers
    std::vector<Piece> pieces;  // wanted data inside the window
  };

  // Split (a sorted view of) the accesses into sieve windows. Accesses
  // larger than the buffer are cut across windows.
  std::vector<Window> plan_windows(const ExtentList& accesses) const;

  // The four model terms (exposed for tests and the model-ablation bench).
  // `s_ds_read` is the portion of S_ds that actually exists on media (the
  // rest reads as zeros from the block map, for free).
  Duration t_read_separate(const ExtentList& accesses) const;
  Duration t_write_separate(const ExtentList& accesses) const;
  Duration t_read_sieved(u64 s_ds, u64 s_ds_read) const;
  Duration t_write_sieved(u64 s_req, u64 s_ds, u64 s_ds_read) const;

  // S_ds for the given accesses under the buffer-bounded window plan, and
  // the part of it below `file_size`.
  u64 sieved_bytes(const ExtentList& accesses) const;
  u64 sieved_readable_bytes(const ExtentList& accesses, u64 file_size) const;

  const AdsConfig& config() const { return cfg_; }
  // Ablation knob (benches): bypass the decision model.
  void set_force(bool v) { cfg_.force = v; }

 private:
  // Bytes of the plan's window spans below `file_size`.
  static u64 span_bytes(const std::vector<Window>& plan, u64 file_size);

  DiskParams disk_;
  FsParams fs_;
  MemParams mem_;
  AdsConfig cfg_;
  Stats& stats_;
};

struct AdsDecision {
  bool sieve = false;
  Duration t_separate = Duration::zero();
  Duration t_sieve = Duration::zero();
  u64 s_req = 0;  // total bytes wanted
  u64 s_ds = 0;   // total bytes a sieved execution touches
  std::vector<ActiveDataSieving::Window> windows;  // plan_windows(accesses)
};

}  // namespace pvfsib::core
