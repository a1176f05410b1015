#include "common/byte_mover.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <system_error>

namespace pvfsib {

namespace {

// A batch is cut into parts of at least kMinPartBytes, and into at most
// kPartsPerThread parts per thread, so a thread that falls behind leaves
// claimable work for the others.
constexpr u64 kMinPartBytes = 16 * kKiB;
constexpr u64 kPartsPerThread = 4;
// An idle worker polls for the next batch this long before it sleeps.
// Most batches of a simulation come less than 30 us after the previous
// one, and a batch that has to wake the workers takes 10-15 us longer
// (BM_ByteMover, gap_us 20 against 100); longer spins measured no faster.
constexpr auto kWorkerSpin = std::chrono::microseconds(30);
// The caller polls for parts in flight this many times, then yields.
constexpr int kCallerSpins = 64;

constexpr u64 kGenShift = 32;
constexpr u64 kPartsShift = 16;
constexpr u64 kFieldMask = 0xffff;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

u32 default_workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  const int cpus = CPU_COUNT(&set);
  return static_cast<u32>(
      std::clamp<int>(cpus - 1, 0, static_cast<int>(ByteMover::kMaxWorkers)));
}

uintptr_t addr(const std::byte* p) { return reinterpret_cast<uintptr_t>(p); }

void copy_inline(std::span<const CopyOp> ops) {
  for (const CopyOp& op : ops) {
    if (op.len > 0) std::memmove(op.dst, op.src, op.len);
  }
}

}  // namespace

ByteMover::ByteMover(u32 workers)
    : workers_(std::min(workers, kMaxWorkers)) {}

ByteMover::~ByteMover() {
  stop_.store(true);
  gen_.fetch_add(1);
  gen_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ByteMover& ByteMover::shared() {
  static ByteMover mover(default_workers());
  return mover;
}

void ByteMover::copy(std::span<const CopyOp> ops) {
  if (workers_ == 0) return copy_inline(ops);
  u64 total = 0;
  for (const CopyOp& op : ops) total += op.len;
  if (total < kParallelMinBytes) return copy_inline(ops);
  std::unique_lock lock(busy_, std::try_to_lock);
  if (!lock.owns_lock() || !disjoint(ops)) return copy_inline(ops);
  if (!started_) {
    started_ = true;
    // Fewer workers only means less help: the caller claims every part
    // nobody else does.
    try {
      for (u32 i = 0; i < workers_; ++i) {
        threads_.emplace_back([this] { worker_main(); });
      }
    } catch (const std::system_error&) {
    }
  }
  run_parallel(ops, total);
}

bool ByteMover::disjoint(std::span<const CopyOp> ops) {
  dsts_.clear();
  for (const CopyOp& op : ops) {
    if (op.len > 0) dsts_.emplace_back(addr(op.dst), addr(op.dst) + op.len);
  }
  if (!std::ranges::is_sorted(dsts_)) std::ranges::sort(dsts_);
  for (size_t i = 1; i < dsts_.size(); ++i) {
    if (dsts_[i - 1].second > dsts_[i].first) return false;
  }
  // The destinations are sorted and disjoint now: together they lie in
  // [front start, back end), and the last one starting below a source's
  // end reaches furthest among those that could overlap it.
  for (const CopyOp& op : ops) {
    const uintptr_t lo = addr(op.src);
    const uintptr_t hi = lo + op.len;
    if (op.len == 0 || hi <= dsts_.front().first ||
        lo >= dsts_.back().second) {
      continue;
    }
    auto it = std::ranges::lower_bound(
        dsts_, hi, {}, [](const auto& d) { return d.first; });
    if (it != dsts_.begin() && std::prev(it)->second > lo) return false;
  }
  return true;
}

void ByteMover::run_parallel(std::span<const CopyOp> ops, u64 total) {
  ops_ = ops;
  starts_.clear();
  u64 at = 0;
  for (const CopyOp& op : ops) {
    starts_.push_back(at);
    at += op.len;
  }
  total_ = total;
  parts_ = std::clamp<u64>(total / kMinPartBytes, 1,
                           kPartsPerThread * (workers_ + 1));
  done_.store(0, std::memory_order_relaxed);
  const u32 gen = gen_.load(std::memory_order_relaxed) + 1;
  claim_.store(u64{gen} << kGenShift | parts_ << kPartsShift,
               std::memory_order_release);
  gen_.store(gen);
  if (sleepers_.load() > 0) gen_.notify_all();

  claim_parts();
  for (int spin = 0; done_.load(std::memory_order_acquire) != parts_; ++spin) {
    if (spin < kCallerSpins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

void ByteMover::claim_parts() {
  while (true) {
    const u64 c = claim_.fetch_add(1, std::memory_order_acq_rel);
    const u64 part = c & kFieldMask;
    if (part >= (c >> kPartsShift & kFieldMask)) return;
    copy_part(part);
    done_.fetch_add(1, std::memory_order_release);
  }
}

void ByteMover::copy_part(u64 part) {
  u64 lo = total_ * part / parts_;
  const u64 hi = total_ * (part + 1) / parts_;
  // The last op starting at or before `lo` holds it (zero-length ops share
  // their successor's start and are skipped this way).
  size_t i = static_cast<size_t>(std::ranges::upper_bound(starts_, lo) -
                                 starts_.begin()) -
             1;
  while (lo < hi) {
    const CopyOp& op = ops_[i++];
    const u64 in = lo - starts_[i - 1];
    const u64 n = std::min(op.len - in, hi - lo);
    if (n == 0) continue;
    std::memcpy(op.dst + in, op.src + in, n);
    lo += n;
  }
}

void ByteMover::worker_main() {
  u32 seen = 0;
  while (true) {
    const auto deadline = std::chrono::steady_clock::now() + kWorkerSpin;
    u32 gen;
    while ((gen = gen_.load(std::memory_order_acquire)) == seen) {
      if (std::chrono::steady_clock::now() < deadline) {
        cpu_relax();
        continue;
      }
      sleepers_.fetch_add(1);
      gen_.wait(seen);
      sleepers_.fetch_sub(1);
    }
    if (stop_.load()) return;
    seen = gen;
    claim_parts();
  }
}

}  // namespace pvfsib
