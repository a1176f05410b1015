#include "mpiio/runtime.h"

namespace pvfsib::mpiio {

Communicator::Communicator(pvfs::Cluster& cluster) : cluster_(cluster) {
  for (u32 c = 0; c < cluster.client_count(); ++c) {
    ranks_.push_back(&cluster.client(c));
  }
}

TimePoint Communicator::barrier() {
  TimePoint t = TimePoint::origin();
  for (pvfs::Client* r : ranks_) t = max(t, r->now());
  // Dissemination barrier: ceil(log2(n)) rounds of small messages.
  int rounds = 0;
  for (int n = 1; n < size(); n *= 2) ++rounds;
  t += cluster_.config().net.send_latency * rounds;
  for (pvfs::Client* r : ranks_) r->advance_to(t);
  return t;
}

TimePoint Communicator::send(int src, int dst, u64 bytes, TimePoint ready) {
  return cluster_.fabric().send_control(rank(src).hca(), rank(dst).hca(),
                                        bytes, ready,
                                        ib::ControlKind::kInterClient);
}

TimePoint Communicator::exchange_metadata(u64 bytes_per_pair) {
  const TimePoint start = barrier();
  TimePoint done = start;
  for (int a = 0; a < size(); ++a) {
    for (int b = 0; b < size(); ++b) {
      if (a == b) continue;
      done = max(done, cluster_.fabric().send_control(
                           rank(a).hca(), rank(b).hca(), bytes_per_pair,
                           start, ib::ControlKind::kInterClient));
    }
  }
  for (pvfs::Client* r : ranks_) r->advance_to(done);
  return done;
}

}  // namespace pvfsib::mpiio
