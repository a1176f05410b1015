// Optimistic Group Registration (Section 4.2.2 / 4.3).
//
// Registering every list I/O buffer individually is ruinously expensive
// (T = a*pages + b per buffer, b dominating for small rows), while blindly
// registering the bounding span can fail on unallocated holes or pin far too
// much memory. OGR:
//
//   1. sorts the buffers and greedily groups neighbours whenever absorbing
//      the hole between them costs less than a second registration
//      ((a_reg + a_dereg) * hole_pages <= b_reg + b_dereg);
//   2. optimistically registers each candidate group in one verb call;
//   3. on failure (unmapped pages inside the group) either falls back to
//      per-buffer registration (few buffers) or queries the OS for the true
//      allocation extents (the paper's custom syscall, ~70 us per ~1000
//      holes; or /proc/$pid/maps at ~1100 us) and registers exactly those.
//
// The resulting SGE list is returned in the caller's original segment order
// — the gather/scatter data stream must not be reordered by registration.
#pragma once

#include <span>
#include <vector>

#include "common/config.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "core/listio.h"
#include "ib/mr_cache.h"
#include "ib/verbs.h"

namespace pvfsib::core {

// The "Ideal / no-reg" cases of the paper are any strategy with a warm
// pin-down cache; benches control cache warmth rather than a strategy.
enum class RegStrategy {
  kIndividual,  // one registration per buffer
  kWholeRange,  // naive single registration of the bounding span
  kOgr,         // the paper's scheme
};

// How OGR discovers true allocation boundaries after an optimistic failure
// (Section 4.3 lists all three).
enum class HoleQuery {
  kKernelSyscall,  // the paper's custom syscall (~70 us per ~1000 holes)
  kProcfs,         // reading /proc/$pid/maps (~1100 us)
  kMincore,        // portable residency probing, per-page cost
};

struct OgrConfig {
  HoleQuery query = HoleQuery::kKernelSyscall;
};

struct OgrOutcome {
  Status status;
  // One SGE per input segment, in input order, lkeys resolved.
  std::vector<ib::Sge> sges;
  // Keys this call pinned (acquired from the cache); release when done.
  std::vector<u32> keys;
  Duration cost = Duration::zero();
  u64 registrations = 0;  // successful register verbs issued
  u64 failed_attempts = 0;
  u64 os_queries = 0;
  u64 cache_hits = 0;

  bool ok() const { return status.is_ok(); }
};

class GroupRegistrar {
 public:
  // `cache` is the client's pin-down cache; `os` provides hole-query costs.
  GroupRegistrar(ib::MrCache& cache, const OsParams& os, OgrConfig cfg,
                 Stats& stats);

  // Pin all segments and produce the SGE list, by OGR unless `strategy`
  // names another scheme (the transfer engines pick per-policy).
  OgrOutcome acquire(std::span<const MemSegment> segments,
                     RegStrategy strategy = RegStrategy::kOgr);

  // Application-aware registration (Section 4.2.1, second variant): the
  // application declares the actual allocation its buffers came from (e.g.
  // the whole malloc'd array). One pin of that region covers every
  // segment — no grouping, no optimism, no OS queries. Fails cleanly if a
  // segment lies outside the declared allocation or the allocation itself
  // is not fully mapped.
  OgrOutcome acquire_declared(std::span<const MemSegment> segments,
                              const Extent& allocation);

  // Release the keys acquire() pinned.
  void release(const OgrOutcome& outcome);

  // The candidate grouping alone (exposed for tests/benches): bounding
  // extents of each group of the *sorted* segments.
  ExtentList plan_groups(std::span<const MemSegment> segments) const;

  const OgrConfig& config() const { return cfg_; }

 private:
  // Should the hole between two page-extents be absorbed into one group?
  bool absorb_hole(u64 hole_pages) const;

  // Pin one region through the cache, tracking stats into `out`.
  // Returns false (with status set) on hard failure.
  bool pin_region(const Extent& region, OgrOutcome& out);

  // Handle an optimistically-registered group that failed: individual
  // buffers or OS query + exact registration.
  bool recover_group(const Extent& group,
                     std::span<const Extent> members_sorted, OgrOutcome& out);

  ib::MrCache& cache_;
  ib::Hca& hca_;
  OsParams os_;
  OgrConfig cfg_;
  Stats& stats_;
};

}  // namespace pvfsib::core
