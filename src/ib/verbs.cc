#include "ib/verbs.h"

#include <cassert>

namespace pvfsib::ib {

Hca::Hca(std::string name, vmem::AddressSpace& as, const RegParams& params,
         Stats& stats)
    : name_(std::move(name)),
      as_(as),
      params_(params),
      stats_(stats),
      nic_(name_ + ".nic") {}

RegAttempt Hca::register_memory(u64 addr, u64 len) {
  RegAttempt out;
  if (len == 0) {
    out.status = invalid_argument("zero-length registration");
    return out;
  }
  if (regions_.size() >= kMaxRegions) {
    out.status = resource_exhausted("HCA MR table full");
    out.cost = params_.reg_base;  // the failed verb call still costs
    return out;
  }

  const u64 lo = page_floor(addr);
  const u64 hi = page_ceil(addr + len);
  if (!as_.range_allocated(addr, len)) {
    // The kernel's get_user_pages walks pages until the first unmapped one.
    // Charge base plus the pages it pinned before failing (then unpinned).
    const ExtentList mapped = as_.allocated_within({lo, hi - lo});
    u64 pinned = 0;
    if (!mapped.empty() && mapped.front().offset <= lo) {
      pinned = (std::min(mapped.front().end(), hi) - lo) / kPageSize;
    }
    out.status = permission_denied("registration covers unmapped pages");
    out.cost = params_.reg_base +
               params_.reg_per_page * static_cast<i64>(pinned);
    return out;
  }

  const u32 key = next_key_++;
  regions_[key] = MemoryRegion{key, Extent{lo, hi - lo}};
  bytes_registered_ += hi - lo;
  out.status = Status::ok();
  out.key = key;
  out.cost = params_.reg_cost(hi - lo);
  stats_.add(stat::kMrRegister);
  stats_.add(stat::kMrRegisteredBytes, static_cast<i64>(hi - lo));
  return out;
}

Duration Hca::deregister(u32 key) {
  auto it = regions_.find(key);
  if (it == regions_.end()) return Duration::zero();
  const u64 len = it->second.range.length;
  bytes_registered_ -= len;
  regions_.erase(it);
  stats_.add(stat::kMrDeregister);
  return params_.dereg_cost(len);
}

const MemoryRegion* Hca::find_region(u32 key) const {
  auto it = regions_.find(key);
  return it == regions_.end() ? nullptr : &it->second;
}

bool Hca::validate(u32 key, u64 addr, u64 len) const {
  const MemoryRegion* mr = find_region(key);
  return mr != nullptr && mr->range.contains(Extent{addr, len});
}

Status Hca::validate_sges(std::span<const Sge> sges) const {
  for (const Sge& s : sges) {
    if (s.length == 0) return invalid_argument("zero-length SGE");
    if (!validate(s.lkey, s.addr, s.length)) {
      return permission_denied("SGE not covered by its MR: " +
                               to_string(Extent{s.addr, s.length}));
    }
  }
  return Status::ok();
}

}  // namespace pvfsib::ib
