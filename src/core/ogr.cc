#include "core/ogr.h"

#include <algorithm>
#include <cassert>

namespace pvfsib::core {

namespace {

// On optimistic failure, groups with at most this many buffers are
// registered individually instead of paying an OS query.
constexpr u64 kIndividualFallbackMax = 8;

// Page-rounded extent of a memory segment.
Extent page_extent(const MemSegment& s) {
  const u64 lo = page_floor(s.addr);
  return {lo, page_ceil(s.addr + s.length) - lo};
}

// Resolver from registered cover extents to their keys.
class CoverIndex {
 public:
  void add(const Extent& e, u32 key) { covers_.push_back({e, key}); }

  void finalize() {
    std::sort(covers_.begin(), covers_.end(),
              [](const auto& a, const auto& b) {
                return a.first.offset < b.first.offset;
              });
  }

  // Key of a cover fully containing [addr, addr+len); 0 if none.
  u32 find(u64 addr, u64 len) const {
    // Last cover starting at or before addr; covers may abut but never
    // nest (they come from disjoint groups / disjoint mapped extents).
    auto it = std::upper_bound(
        covers_.begin(), covers_.end(), addr,
        [](u64 a, const auto& c) { return a < c.first.offset; });
    while (it != covers_.begin()) {
      --it;
      if (it->first.contains(Extent{addr, len})) return it->second;
      if (it->first.end() <= addr) break;
    }
    return 0;
  }

 private:
  std::vector<std::pair<Extent, u32>> covers_;
};

}  // namespace

GroupRegistrar::GroupRegistrar(ib::MrCache& cache, const OsParams& os,
                               OgrConfig cfg, Stats& stats)
    : cache_(cache), hca_(cache.hca()), os_(os), cfg_(cfg), stats_(stats) {}

bool GroupRegistrar::absorb_hole(u64 hole_pages) const {
  const RegParams& rp = hca_.reg_params();
  const Duration hole_cost =
      (rp.reg_per_page + rp.dereg_per_page) * static_cast<i64>(hole_pages);
  const Duration op_cost = rp.reg_base + rp.dereg_base;
  return hole_cost <= op_cost;
}

ExtentList GroupRegistrar::plan_groups(
    std::span<const MemSegment> segments) const {
  ExtentList exts;
  exts.reserve(segments.size());
  for (const MemSegment& s : segments) exts.push_back(page_extent(s));
  sort_by_offset(exts);
  // First merge touching/overlapping page ranges, then absorb holes the
  // cost model deems cheaper to pin than to pay another registration.
  ExtentList merged = coalesce(exts);
  ExtentList groups;
  for (const Extent& e : merged) {
    if (!groups.empty()) {
      const u64 hole = e.offset - groups.back().end();
      if (absorb_hole(hole / kPageSize)) {
        groups.back().length = e.end() - groups.back().offset;
        continue;
      }
    }
    groups.push_back(e);
  }
  return groups;
}

bool GroupRegistrar::pin_region(const Extent& region, OgrOutcome& out) {
  ib::MrCache::Lookup lk = cache_.acquire(region.offset, region.length);
  out.cost += lk.cost;
  if (!lk.ok()) {
    out.status = lk.status;
    return false;
  }
  if (lk.hit) {
    ++out.cache_hits;
  } else {
    ++out.registrations;
  }
  out.keys.push_back(lk.key);
  return true;
}

bool GroupRegistrar::recover_group(const Extent& group,
                                   std::span<const Extent> members_sorted,
                                   OgrOutcome& out) {
  stats_.add(stat::kOgrFallbacks);
  if (members_sorted.size() <= kIndividualFallbackMax) {
    // Cheap path: pin the few buffers as given.
    for (const Extent& m : members_sorted) {
      if (!pin_region(m, out)) return false;
    }
    return true;
  }
  // Ask the OS for the true allocation extents inside the group span.
  const vmem::AddressSpace& as = hca_.address_space();
  const ExtentList mapped = as.allocated_within(group);
  ++out.os_queries;
  stats_.add(stat::kOgrOsQueries);
  switch (cfg_.query) {
    case HoleQuery::kKernelSyscall:
      out.cost += os_.holequery_cost(mapped.size());
      break;
    case HoleQuery::kProcfs:
      out.cost += os_.procfs_query;
      break;
    case HoleQuery::kMincore:
      out.cost += os_.mincore_cost(pages_for(group.length));
      break;
  }
  for (const Extent& m : mapped) {
    if (!pin_region(m, out)) return false;
  }
  // Every member must now be covered; if one is not, the buffer itself was
  // unmapped — a caller error.
  for (const Extent& m : members_sorted) {
    if (!as.range_allocated(m.offset, m.length)) {
      out.status = permission_denied("list I/O buffer is not mapped memory");
      return false;
    }
  }
  return true;
}

OgrOutcome GroupRegistrar::acquire(std::span<const MemSegment> segments,
                                   RegStrategy strategy) {
  OgrOutcome out;
  if (segments.empty()) {
    out.status = invalid_argument("no segments to register");
    return out;
  }

  CoverIndex index;

  switch (strategy) {
    case RegStrategy::kIndividual: {
      for (const MemSegment& s : segments) {
        const Extent e = page_extent(s);
        if (!pin_region(e, out)) return out;
        index.add(e, out.keys.back());
      }
      break;
    }
    case RegStrategy::kWholeRange: {
      ExtentList exts;
      for (const MemSegment& s : segments) exts.push_back(page_extent(s));
      const Extent span = bounding_span(exts);
      if (!pin_region(span, out)) return out;  // the naive scheme's flaw
      index.add(span, out.keys.back());
      break;
    }
    case RegStrategy::kOgr: {
      // Sorted member page-extents, for recovery bookkeeping.
      ExtentList members;
      members.reserve(segments.size());
      for (const MemSegment& s : segments) members.push_back(page_extent(s));
      sort_by_offset(members);
      members = coalesce(members);

      const ExtentList groups = plan_groups(segments);
      stats_.add(stat::kOgrGroups, static_cast<i64>(groups.size()));
      for (const Extent& g : groups) {
        const size_t keys_before = out.keys.size();
        ib::MrCache::Lookup lk = cache_.acquire(g.offset, g.length);
        out.cost += lk.cost;
        if (lk.ok()) {
          if (lk.hit) {
            ++out.cache_hits;
          } else {
            ++out.registrations;
          }
          out.keys.push_back(lk.key);
        } else if (lk.status.code() == ErrorCode::kPermissionDenied) {
          // Optimism failed: holes inside the group are unmapped.
          ++out.failed_attempts;
          ExtentList in_group = intersect(g, members);
          if (!recover_group(g, in_group, out)) return out;
        } else {
          out.status = lk.status;
          return out;
        }
        for (size_t i = keys_before; i < out.keys.size(); ++i) {
          index.add(hca_.find_region(out.keys[i])->range, out.keys[i]);
        }
      }
      break;
    }
  }

  index.finalize();
  out.sges.reserve(segments.size());
  for (const MemSegment& s : segments) {
    const u32 key = index.find(s.addr, s.length);
    if (key == 0) {
      out.status = internal_error("segment not covered by any registration");
      return out;
    }
    out.sges.push_back(ib::Sge{s.addr, s.length, key});
  }
  out.status = Status::ok();
  return out;
}

OgrOutcome GroupRegistrar::acquire_declared(
    std::span<const MemSegment> segments, const Extent& allocation) {
  OgrOutcome out;
  if (segments.empty()) {
    out.status = invalid_argument("no segments to register");
    return out;
  }
  for (const MemSegment& s : segments) {
    if (!allocation.contains(Extent{s.addr, s.length})) {
      out.status = invalid_argument(
          "segment outside the declared allocation: " +
          to_string(Extent{s.addr, s.length}));
      return out;
    }
  }
  if (!pin_region(allocation, out)) return out;
  const u32 key = out.keys.back();
  out.sges.reserve(segments.size());
  for (const MemSegment& s : segments) {
    out.sges.push_back(ib::Sge{s.addr, s.length, key});
  }
  out.status = Status::ok();
  return out;
}

void GroupRegistrar::release(const OgrOutcome& outcome) {
  for (u32 key : outcome.keys) cache_.release(key);
}

}  // namespace pvfsib::core
