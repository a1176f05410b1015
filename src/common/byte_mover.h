// Copies a batch of byte ranges, spreading large batches over a few helper
// threads.
//
// The simulator moves the real bytes of every piece a round transfers: a
// transfer's or a pack window's stream between the user's segments and
// the iod's staging slot, a read round's file views into the staging slot
// or the user's buffers, the client cache's copies, MPI-IO's collective
// and data-sieving pieces (all through core::copy_stream) and the sieved
// write-back patches. The fabric itself moves none. The layer that runs a round already holds the round's whole
// piece list, so it hands the list over as one batch, and a large batch is
// copied by the calling thread and up to kMaxWorkers process-wide workers
// together.
//
// A batch is parallel when it holds at least kParallelMinBytes and no
// destination overlaps another destination or any source. It is cut into
// equal byte parts that the caller and the workers claim from one atomic
// counter; the caller never waits on a part nobody has claimed, only on
// parts in flight, so a worker that gets no CPU costs the batch nothing.
// Every other batch is plain memmove on the caller, op by op. Either way
// copy() returns once memory equals copying the ops one by one in order.
//
// Workers copy bytes and nothing else: the caller resolves every pointer
// before the call, and nothing the workers touch outlives the call.
#pragma once

#include <atomic>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/types.h"

namespace pvfsib {

// One copy: `len` bytes from `src` to `dst`.
struct CopyOp {
  std::byte* dst = nullptr;
  const std::byte* src = nullptr;
  u64 len = 0;
};

class ByteMover {
 public:
  // The smallest batch the workers speed up even when they have to be
  // woken first; waking them costs about as much as copying 64 KiB (see
  // BM_ByteMover in bench/microkernels.cc).
  static constexpr u64 kParallelMinBytes = 128 * kKiB;
  static constexpr u32 kMaxWorkers = 3;

  // A mover with `workers` helper threads (at most kMaxWorkers), started by
  // the first parallel batch and joined by the destructor. ByteMover(0)
  // copies every batch inline. Tests and microkernels only: the simulator
  // uses shared().
  explicit ByteMover(u32 workers);
  ~ByteMover();
  ByteMover(const ByteMover&) = delete;
  ByteMover& operator=(const ByteMover&) = delete;

  // The process-wide mover: one worker per CPU of the process's affinity
  // mask beyond the caller's own, at most kMaxWorkers. With one CPU it
  // copies every batch inline.
  static ByteMover& shared();

  // Copy every op. Safe to call from several threads: a call that finds
  // another batch running copies inline.
  void copy(std::span<const CopyOp> ops);

  u32 workers() const { return workers_; }

 private:
  // Does no destination of the batch overlap another destination or any
  // source?
  bool disjoint(std::span<const CopyOp> ops);
  void run_parallel(std::span<const CopyOp> ops, u64 total);
  // Claim parts of the current batch and copy them until none is left.
  void claim_parts();
  void copy_part(u64 part);
  void worker_main();

  const u32 workers_;
  // Held by the caller whose batch owns the fields below it.
  std::mutex busy_;
  // The batch in flight. Written by its caller before it publishes the
  // batch in claim_; read by a worker only once it has claimed one of the
  // batch's parts, so only while that caller waits for the part.
  std::span<const CopyOp> ops_;
  std::vector<u64> starts_;  // starts_[i]: bytes of ops_ before op i
  u64 total_ = 0;
  u64 parts_ = 0;
  std::vector<std::pair<uintptr_t, uintptr_t>> dsts_;  // disjoint()'s scratch
  bool started_ = false;  // the first parallel batch starts the workers

  // generation (32 bits) | part count (16) | next unclaimed part (16).
  std::atomic<u64> claim_{0};
  std::atomic<u64> done_{0};  // parts of the current batch copied
  std::atomic<u32> gen_{0};   // bumped per batch; idle workers wait on it
  std::atomic<u32> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

}  // namespace pvfsib
