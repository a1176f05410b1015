// Mini-MPI runtime: a communicator over the cluster's compute nodes.
//
// Ranks are PVFS clients; messages between ranks charge channel-semantics
// fabric time (the MVAPICH path of Table 2) and move no bytes: the caller
// lands a message's bytes itself, once, where they end up. The benches
// drive all ranks from one thread, so collectives are whole-communicator
// operations rather than per-rank SPMD calls.
#pragma once

#include <vector>

#include "pvfs/cluster.h"

namespace pvfsib::mpiio {

class Communicator {
 public:
  // Ranks 0..n-1 map to clients 0..n-1 of the cluster.
  explicit Communicator(pvfs::Cluster& cluster);

  int size() const { return static_cast<int>(ranks_.size()); }
  pvfs::Client& rank(int r) { return *ranks_.at(r); }
  pvfs::Cluster& cluster() { return cluster_; }

  // Synchronize all rank clocks (plus the latency of the barrier fan-in);
  // returns the common release time.
  TimePoint barrier();

  // Point-to-point bulk message of `bytes` from rank `src` to rank `dst`:
  // books channel-semantics time from `ready` and moves no bytes. Returns
  // the arrival time.
  TimePoint send(int src, int dst, u64 bytes, TimePoint ready);

  // All-to-all metadata exchange of `bytes` per rank pair (offset lists in
  // two-phase I/O); clocks advance past the exchange.
  TimePoint exchange_metadata(u64 bytes_per_pair);

 private:
  pvfs::Cluster& cluster_;
  std::vector<pvfs::Client*> ranks_;
};

}  // namespace pvfsib::mpiio
