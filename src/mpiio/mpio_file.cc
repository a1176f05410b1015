#include "mpiio/mpio_file.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>

namespace pvfsib::mpiio {

const char* to_string(IoMethod m) {
  switch (m) {
    case IoMethod::kMultiple:
      return "multiple-io";
    case IoMethod::kDataSieving:
      return "romio-data-sieving";
    case IoMethod::kCollective:
      return "collective-io";
    case IoMethod::kListIo:
      return "list-io";
    case IoMethod::kListIoAds:
      return "list-io+ads";
  }
  return "?";
}

namespace {

// ROMIO's default buffer sizes: the two-phase collective buffer
// (cb_buffer_size) and the data-sieving read buffer (ind_rd_buffer_size).
constexpr u64 kCbBufferSize = 4 * kMiB;
constexpr u64 kIndRdBufferSize = 4 * kMiB;

// Maps packed-stream offsets onto the (noncontiguous) user buffer.
class StreamMap {
 public:
  StreamMap(u64 base, const ExtentList& rel) {
    u64 stream = 0;
    for (const Extent& e : rel) {
      segs_.push_back({base + e.offset, e.length});
      cum_.push_back(stream);
      stream += e.length;
    }
    total_ = stream;
  }

  // Invoke fn(abs_addr, n) over the pieces of stream range [off, off+len).
  template <typename F>
  void for_range(u64 off, u64 len, F&& fn) const {
    assert(off + len <= total_);
    size_t i =
        std::upper_bound(cum_.begin(), cum_.end(), off) - cum_.begin() - 1;
    while (len > 0) {
      const u64 within = off - cum_[i];
      const u64 n = std::min(segs_[i].length - within, len);
      fn(segs_[i].offset + within, n);
      off += n;
      len -= n;
      ++i;
    }
  }

 private:
  std::vector<Extent> segs_;
  std::vector<u64> cum_;
  u64 total_ = 0;
};

// One rank's access: its file extents in stream order, the stream offset
// of each, and the map from stream offsets onto its memory.
struct Access {
  explicit Access(const RankIo& io)
      : file(io.view.map_range(io.view_offset, io.bytes)),
        mem(io.mem_addr, io.memtype.prefix(io.bytes)) {
    u64 s = 0;
    for (const Extent& e : file) {
      stream.push_back(s);
      s += e.length;
    }
  }

  ExtentList file;
  std::vector<u64> stream;
  StreamMap mem;
};

core::ListIoRequest build_request(const RankIo& io) {
  core::ListIoRequest req;
  for (const Extent& e : io.memtype.prefix(io.bytes)) {
    req.mem.push_back({io.mem_addr + e.offset, e.length});
  }
  req.file = io.view.map_range(io.view_offset, io.bytes);
  return req;
}

// A contiguous call: `len` bytes between memory `addr` and file `offset`.
core::ListIoRequest contiguous(u64 addr, u64 offset, u64 len) {
  core::ListIoRequest req;
  req.mem = {{addr, len}};
  req.file = {{offset, len}};
  return req;
}

// One rank's PVFS calls and the time the first may start.
struct Chain {
  std::vector<core::ListIoRequest> calls;
  TimePoint start;
};

// Sees call `call` of rank `rank` complete and returns when the rank's next
// call may start.
using CallDone =
    std::function<TimePoint(int rank, size_t call, const pvfs::IoResult&)>;

// The driver: runs each rank's calls back to back, all ranks at once, and
// returns one result per rank. `start` is the chain's start, `end` what the
// last `done` returned (by default the call's end), `status` the first
// failed call's; phases and retry counts add up.
std::vector<pvfs::IoResult> run_chains(
    Communicator& comm, const std::vector<pvfs::OpenFile>& handles,
    const std::vector<Chain>& chains, pvfs::IoDir dir,
    const pvfs::IoOptions& opts, const CallDone& done = nullptr) {
  std::vector<pvfs::IoResult> out(chains.size());
  int pending = 0;
  std::function<void(int, size_t)> start_call = [&](int r, size_t k) {
    const Chain& ch = chains[r];
    if (k == ch.calls.size()) {
      --pending;
      return;
    }
    const TimePoint at = max(out[r].end, ch.start);
    comm.rank(r)
        .submit({dir, handles[r], ch.calls[k], opts, at})
        .on_complete([&, r, k](pvfs::IoResult res) {
          pvfs::IoResult& o = out[r];
          if (!res.ok() && o.ok()) o.status = res.status;
          o.phases += res.phases;
          o.retries += res.retries;
          o.failovers += res.failovers;
          o.end = done ? done(r, k, res) : res.end;
          start_call(r, k + 1);
        });
  };
  for (size_t r = 0; r < chains.size(); ++r) {
    out[r].start = chains[r].start;
    out[r].end = chains[r].start;
    if (chains[r].calls.empty()) continue;
    ++pending;
    start_call(static_cast<int>(r), 0);
  }
  comm.cluster().engine().run_until([&] { return pending == 0; });
  assert(pending == 0);
  return out;
}

}  // namespace

Result<File> File::create(Communicator& comm, const std::string& name) {
  std::vector<pvfs::OpenFile> handles;
  Result<pvfs::OpenFile> first = comm.rank(0).create(name);
  if (!first.is_ok()) return first.status();
  handles.push_back(first.value());
  for (int r = 1; r < comm.size(); ++r) {
    Result<pvfs::OpenFile> h = comm.rank(r).open(name);
    if (!h.is_ok()) return h.status();
    handles.push_back(h.value());
  }
  return File(comm, std::move(handles));
}

u64 File::scratch(int rank, u64 bytes) {
  auto& [addr, size] = scratch_.at(rank);
  if (size < bytes) {
    if (addr != 0) {
      (void)comm_->rank(rank).memory().free_at(addr);
    }
    addr = comm_->rank(rank).memory().alloc(bytes);
    size = page_ceil(bytes);
  }
  return addr;
}

// --- dispatch ------------------------------------------------------------

std::vector<pvfs::IoResult> File::write_all(const std::vector<RankIo>& io,
                                            const Hints& hints) {
  return access(io, hints, pvfs::IoDir::kWrite);
}

std::vector<pvfs::IoResult> File::read_all(const std::vector<RankIo>& io,
                                           const Hints& hints) {
  return access(io, hints, pvfs::IoDir::kRead);
}

std::vector<pvfs::IoResult> File::access(const std::vector<RankIo>& io,
                                         const Hints& hints, pvfs::IoDir dir) {
  const int n = comm_->size();
  assert(io.size() == static_cast<size_t>(n));
  pvfs::IoOptions opts;
  opts.sync = hints.sync;
  // Only plain list I/O turns server-side ADS off.
  opts.use_ads = hints.method != IoMethod::kListIo;
  std::vector<pvfs::IoResult> out;
  if (hints.method == IoMethod::kCollective) {
    out = run_two_phase(io, dir, opts);
  } else if (hints.method == IoMethod::kDataSieving &&
             dir == pvfs::IoDir::kRead) {
    out = run_ds_read(io, opts);
  } else {
    // List I/O: one call per rank, the whole list request (the paper's
    // path). Multiple I/O: one contiguous call per piece. ROMIO data
    // sieving cannot write over lock-less PVFS: it degenerates to Multiple
    // I/O (Section 5.2 / Figure 6).
    const bool list = hints.method == IoMethod::kListIo ||
                      hints.method == IoMethod::kListIoAds;
    std::vector<Chain> chains(n, Chain{{}, comm_->barrier()});
    for (int r = 0; r < n; ++r) {
      if (io[r].bytes == 0) continue;
      if (list) {
        chains[r].calls.push_back(build_request(io[r]));
        continue;
      }
      const Access acc(io[r]);
      for (size_t i = 0; i < acc.file.size(); ++i) {
        u64 offset = acc.file[i].offset;
        acc.mem.for_range(acc.stream[i], acc.file[i].length,
                          [&](u64 addr, u64 len) {
                            chains[r].calls.push_back(
                                contiguous(addr, offset, len));
                            offset += len;
                          });
      }
    }
    out = run_chains(*comm_, handles_, chains, dir, opts);
  }
  for (int r = 0; r < n; ++r) {
    out[r].bytes = out[r].ok() ? io[r].bytes : 0;
    comm_->rank(r).advance_to(out[r].end);
  }
  return out;
}

// --- ROMIO client-side data sieving (read) --------------------------------

std::vector<pvfs::IoResult> File::run_ds_read(const std::vector<RankIo>& io,
                                              const pvfs::IoOptions& opts) {
  const int n = comm_->size();
  std::vector<Chain> chains(n, Chain{{}, comm_->barrier()});
  std::vector<Access> acc;
  for (int r = 0; r < n; ++r) {
    acc.emplace_back(io[r]);
    if (io[r].bytes == 0) continue;
    // One call per staging-buffer chunk of the rank's [first, last] span.
    const u64 buf = scratch(r, kIndRdBufferSize);
    const u64 hi = acc[r].file.back().end();
    for (u64 lo = acc[r].file.front().offset; lo < hi;
         lo += kIndRdBufferSize) {
      chains[r].calls.push_back(
          contiguous(buf, lo, std::min(kIndRdBufferSize, hi - lo)));
    }
  }
  const MemParams& mem = comm_->cluster().config().mem;
  return run_chains(
      *comm_, handles_, chains, pvfs::IoDir::kRead, opts,
      [&](int r, size_t k, const pvfs::IoResult& res) {
        // Sieve: copy the wanted pieces out of the staged chunk.
        const core::ListIoRequest& call = chains[r].calls[k];
        const Extent chunk = call.file.front();
        vmem::AddressSpace& m = comm_->rank(r).memory();
        u64 copied = 0;
        for (size_t i = 0; i < acc[r].file.size(); ++i) {
          const Extent& fe = acc[r].file[i];
          const u64 plo = std::max(fe.offset, chunk.offset);
          const u64 phi = std::min(fe.end(), chunk.end());
          if (plo >= phi) continue;
          u64 src = call.mem.front().addr + (plo - chunk.offset);
          acc[r].mem.for_range(acc[r].stream[i] + (plo - fe.offset),
                               phi - plo, [&](u64 dst, u64 nn) {
                                 std::memcpy(m.data(dst), m.data(src), nn);
                                 src += nn;
                               });
          copied += phi - plo;
        }
        return res.end + mem.copy_cost(copied);
      });
}

// --- Two-phase (collective) I/O -----------------------------------------

std::vector<pvfs::IoResult> File::run_two_phase(const std::vector<RankIo>& io,
                                                pvfs::IoDir dir,
                                                const pvfs::IoOptions& opts) {
  const bool is_write = dir == pvfs::IoDir::kWrite;
  const int n = comm_->size();
  std::vector<pvfs::IoResult> results(n);
  // Offset-list exchange (ROMIO's calc_my_req/calc_others_req).
  const TimePoint start = comm_->exchange_metadata(256);
  for (int r = 0; r < n; ++r) {
    results[r].start = start;
    results[r].end = start;
  }

  std::vector<Access> acc;
  u64 lo = ~0ULL, hi = 0;
  for (int r = 0; r < n; ++r) {
    acc.emplace_back(io[r]);
    if (!acc[r].file.empty()) {
      lo = std::min(lo, acc[r].file.front().offset);
      hi = std::max(hi, acc[r].file.back().end());
    }
  }
  if (hi <= lo) {  // nothing to do
    return results;
  }

  // Even file domains (ROMIO default).
  const u64 span = hi - lo;
  auto domain = [&](int a) {
    const u64 dlo = lo + span * static_cast<u64>(a) / n;
    const u64 dhi = lo + span * static_cast<u64>(a + 1) / n;
    return Extent{dlo, dhi - dlo};
  };

  // Pieces of rank s's access that fall in domain a.
  struct Piece {
    Extent phys;
    u64 stream;  // offset in rank s's data stream
  };
  std::vector<std::vector<std::vector<Piece>>> pieces(
      n, std::vector<std::vector<Piece>>(n));
  for (int s = 0; s < n; ++s) {
    for (size_t i = 0; i < acc[s].file.size(); ++i) {
      const Extent& fe = acc[s].file[i];
      for (int a = 0; a < n; ++a) {
        const Extent d = domain(a);
        const u64 plo = std::max(fe.offset, d.offset);
        const u64 phi = std::min(fe.end(), d.end());
        if (plo < phi) {
          pieces[s][a].push_back(
              {{plo, phi - plo}, acc[s].stream[i] + (plo - fe.offset)});
        }
      }
    }
  }

  // Aggregator-side assembly buffers sized to their domains, plus a pack/
  // receive block large enough for the biggest (sender, aggregator) pair.
  u64 inbound_max = kCbBufferSize;
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < n; ++a) {
      u64 bytes = 0;
      for (const Piece& p : pieces[s][a]) bytes += p.phys.length;
      inbound_max = std::max(inbound_max, bytes);
    }
  }
  std::vector<u64> assembly(n);
  std::vector<u64> inbound(n);
  const MemParams& mem = comm_->cluster().config().mem;
  for (int a = 0; a < n; ++a) {
    const Extent d = domain(a);
    // Scratch layout: [assembly | pack/receive block].
    const u64 base = scratch(a, d.length + inbound_max);
    assembly[a] = base;
    inbound[a] = base + d.length;
  }

  std::vector<TimePoint> agg_ready(n, start);  // assembly complete

  // ROMIO processes file domains in cb_buffer-sized cycles, with an
  // alltoallv synchronization per cycle; charge that structural cost.
  u64 max_domain = 0;
  for (int a = 0; a < n; ++a) max_domain = std::max(max_domain, domain(a).length);
  const u64 cycles = (max_domain + kCbBufferSize - 1) / kCbBufferSize;
  int sync_rounds = 0;
  for (int m = 1; m < n; m *= 2) ++sync_rounds;
  const Duration cycle_sync =
      comm_->cluster().config().net.send_latency * (2 * sync_rounds);
  const Duration total_sync = cycle_sync * static_cast<i64>(cycles);

  if (is_write) {
    // Phase 1: senders pack per-aggregator blocks, ship them, aggregators
    // unpack into assembly position.
    std::vector<TimePoint> sender_time(n, start);
    for (int s = 0; s < n; ++s) {
      for (int a = 0; a < n; ++a) {
        u64 bytes = 0;
        for (const Piece& p : pieces[s][a]) bytes += p.phys.length;
        if (bytes == 0) continue;
        const Extent d = domain(a);
        if (s == a) {
          // Local: copy straight into assembly.
          TimePoint t = max(sender_time[s], agg_ready[a]);
          for (const Piece& p : pieces[s][a]) {
            u64 dst = assembly[a] + (p.phys.offset - d.offset);
            acc[s].mem.for_range(p.stream, p.phys.length, [&](u64 src, u64 nn) {
              std::memcpy(comm_->rank(a).memory().data(dst),
                          comm_->rank(s).memory().data(src), nn);
              dst += nn;
            });
          }
          t += mem.copy_cost(bytes);
          sender_time[s] = t;
          agg_ready[a] = max(agg_ready[a], t);
          continue;
        }
        // Pack at the sender (into its inbound scratch block, reused).
        u64 pack_addr = inbound[s];
        u64 pos = pack_addr;
        for (const Piece& p : pieces[s][a]) {
          acc[s].mem.for_range(p.stream, p.phys.length, [&](u64 srca, u64 nn) {
            std::memcpy(comm_->rank(s).memory().data(pos),
                        comm_->rank(s).memory().data(srca), nn);
            pos += nn;
          });
        }
        sender_time[s] += mem.copy_cost(bytes);
        const TimePoint arrived = comm_->send(s, pack_addr, a, inbound[a],
                                              bytes, sender_time[s]);
        // Unpack at the aggregator.
        u64 src = inbound[a];
        for (const Piece& p : pieces[s][a]) {
          std::memcpy(
              comm_->rank(a).memory().data(assembly[a] +
                                           (p.phys.offset - domain(a).offset)),
              comm_->rank(a).memory().data(src), p.phys.length);
          src += p.phys.length;
        }
        agg_ready[a] = max(agg_ready[a], arrived) + mem.copy_cost(bytes);
      }
    }
    for (int s = 0; s < n; ++s) {
      results[s].end = max(results[s].end, sender_time[s]);
    }
  }

  // Phase 2: each aggregator makes one contiguous PVFS call per coalesced
  // run of its domain's coverage.
  std::vector<Chain> chains(n);
  for (int a = 0; a < n; ++a) {
    ExtentList cover;
    for (int s = 0; s < n; ++s) {
      for (const Piece& p : pieces[s][a]) cover.push_back(p.phys);
    }
    sort_by_offset(cover);
    const Extent d = domain(a);
    for (const Extent& run : coalesce(cover)) {
      chains[a].calls.push_back(contiguous(
          assembly[a] + (run.offset - d.offset), run.offset, run.length));
    }
    chains[a].start = agg_ready[a] + total_sync;
  }
  const std::vector<pvfs::IoResult> agg =
      run_chains(*comm_, handles_, chains, dir, opts);

  if (is_write) {
    for (int a = 0; a < n; ++a) {
      results[a].end = max(results[a].end, agg[a].end);
    }
  } else {
    // Phase 1 (read direction): aggregators scatter domain data back.
    std::vector<TimePoint> recv_time(n, start);
    for (int a = 0; a < n; ++a) {
      TimePoint t_a = agg[a].end;
      const Extent d = domain(a);
      for (int s = 0; s < n; ++s) {
        u64 bytes = 0;
        for (const Piece& p : pieces[s][a]) bytes += p.phys.length;
        if (bytes == 0) continue;
        if (s == a) {
          TimePoint t = t_a;
          for (const Piece& p : pieces[s][a]) {
            u64 src = assembly[a] + (p.phys.offset - d.offset);
            acc[s].mem.for_range(p.stream, p.phys.length, [&](u64 dst, u64 nn) {
              std::memcpy(comm_->rank(s).memory().data(dst),
                          comm_->rank(a).memory().data(src), nn);
              src += nn;
            });
          }
          t += mem.copy_cost(bytes);
          recv_time[s] = max(recv_time[s], t);
          continue;
        }
        // Pack pieces for rank s, send, unpack into user memory.
        u64 pos = inbound[a];
        for (const Piece& p : pieces[s][a]) {
          std::memcpy(comm_->rank(a).memory().data(pos),
                      comm_->rank(a).memory().data(
                          assembly[a] + (p.phys.offset - d.offset)),
                      p.phys.length);
          pos += p.phys.length;
        }
        t_a += mem.copy_cost(bytes);
        // Destination staging at the receiver: its inbound block.
        const u64 dst_tmp = inbound[s];
        const TimePoint arrived = comm_->send(a, inbound[a], s, dst_tmp,
                                              bytes, t_a);
        u64 src = dst_tmp;
        for (const Piece& p : pieces[s][a]) {
          acc[s].mem.for_range(p.stream, p.phys.length, [&](u64 dst, u64 nn) {
            std::memcpy(comm_->rank(s).memory().data(dst),
                        comm_->rank(s).memory().data(src), nn);
            src += nn;
          });
        }
        recv_time[s] =
            max(recv_time[s], arrived + mem.copy_cost(bytes));
      }
    }
    for (int s = 0; s < n; ++s) {
      results[s].end = max(max(recv_time[s], agg[s].end), results[s].end);
    }
  }

  // Every rank's data passes through some aggregator's domain, so the
  // lowest-ranked failing aggregator's status fails every rank.
  for (const pvfs::IoResult& a : agg) {
    if (a.ok()) continue;
    for (pvfs::IoResult& r : results) r.status = a.status;
    break;
  }
  return results;
}

}  // namespace pvfsib::mpiio
