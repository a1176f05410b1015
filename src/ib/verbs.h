// Verbs-level model of an InfiniBand HCA: protection-domain-scoped memory
// regions with lkey/rkey, registration/deregistration with the paper's cost
// model (T = a*pages + b), and validation of scatter/gather elements against
// registered regions. Registration *fails* when any page of the range is not
// mapped in the owning process — the behaviour Optimistic Group Registration
// exploits and recovers from.
#pragma once

#include <map>
#include <span>
#include <string>

#include "common/config.h"
#include "common/extent.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/status.h"
#include "sim/resource.h"
#include "vmem/address_space.h"

namespace pvfsib::ib {

// Scatter/gather element of a work request. `lkey` names the MR the range
// must fall inside.
struct Sge {
  u64 addr = 0;
  u64 length = 0;
  u32 lkey = 0;
};

struct MemoryRegion {
  u32 key = 0;  // lkey == rkey in this model
  Extent range;
};

// Outcome of a registration attempt. `cost` is charged to the caller's
// clock whether or not the attempt succeeded: a failed optimistic
// registration still burns the syscall and the page walk up to the first
// unmapped page.
struct RegAttempt {
  Status status;
  u32 key = 0;
  Duration cost = Duration::zero();

  bool ok() const { return status.is_ok(); }
};

class Hca {
 public:
  Hca(std::string name, vmem::AddressSpace& as, const RegParams& params,
      Stats& stats);

  // Register [addr, addr+len). Fails with kPermissionDenied if any page in
  // the page-rounded range is unmapped; fails with kResourceExhausted past
  // the HCA's MR table limit.
  RegAttempt register_memory(u64 addr, u64 len);

  // Deregister a region; returns the (always-charged) cost.
  Duration deregister(u32 key);

  const MemoryRegion* find_region(u32 key) const;

  // True when [addr, addr+len) lies inside the MR named by `key`.
  bool validate(u32 key, u64 addr, u64 len) const;

  Status validate_sges(std::span<const Sge> sges) const;

  vmem::AddressSpace& address_space() { return as_; }
  const vmem::AddressSpace& address_space() const { return as_; }
  sim::Resource& nic() { return nic_; }
  const std::string& name() const { return name_; }
  const RegParams& reg_params() const { return params_; }
  Stats& stats() { return stats_; }

  u64 regions_live() const { return regions_.size(); }
  u64 bytes_registered() const { return bytes_registered_; }

  // HCA MR table capacity (InfiniHost-era firmware limit).
  static constexpr u64 kMaxRegions = 131072;

 private:
  std::string name_;
  vmem::AddressSpace& as_;
  RegParams params_;
  Stats& stats_;
  sim::Resource nic_;
  std::map<u32, MemoryRegion> regions_;
  u64 bytes_registered_ = 0;
  u32 next_key_ = 1;
};

}  // namespace pvfsib::ib
