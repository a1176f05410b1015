#include "mpiio/mpio_file.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "core/transfer.h"

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

core::ListIoRequest build_request(const RankIo& io) {
  core::ListIoRequest req;
  for (const Extent& e : io.memtype.prefix(io.bytes)) {
    req.mem.push_back({io.mem_addr + e.offset, e.length});
  }
  req.file = io.view.map_range(io.view_offset, io.bytes);
  return req;
}

// One rank's access: its list request and the stream offset of each of its
// file extents.
struct Access {
  explicit Access(const RankIo& io) : req(build_request(io)) {
    u64 s = 0;
    for (const Extent& e : req.file) {
      stream.push_back(s);
      s += e.length;
    }
  }

  core::ListIoRequest req;
  std::vector<u64> stream;
};

// A piece of a rank's access: its file extent and its offset in the rank's
// data stream.
struct Piece {
  Extent phys;
  u64 stream;
};

// The pieces of one rank's access that fall in a file window, in stream
// order, and their byte count.
struct Pieces {
  std::vector<Piece> list;
  u64 bytes = 0;
};

Pieces clip(const Access& acc, const Extent& window) {
  Pieces out;
  for (size_t i = 0; i < acc.req.file.size(); ++i) {
    const Extent& fe = acc.req.file[i];
    const u64 lo = std::max(fe.offset, window.offset);
    const u64 hi = std::min(fe.end(), window.end());
    if (lo >= hi) continue;
    out.list.push_back({{lo, hi - lo}, acc.stream[i] + (lo - fe.offset)});
    out.bytes += hi - lo;
  }
  return out;
}

// Copy `pieces` of `acc` once, between the rank's memory `rank_as` and the
// buffer at `buf` of `buf_as` that holds the file from offset `file_lo`
// on: into the buffer when `into_buf`, out of it otherwise.
void land(const Access& acc, vmem::AddressSpace& rank_as,
          const Pieces& pieces, vmem::AddressSpace& buf_as, u64 buf,
          u64 file_lo, bool into_buf) {
  core::MemCursor cursor(acc.req.mem);
  core::MemSegmentList at_rank, at_buf;
  u64 at = 0;  // stream bytes the cursor has passed
  for (const Piece& p : pieces.list) {
    assert(p.stream >= at);
    cursor.skip(p.stream - at);
    cursor.take(p.phys.length, at_rank);
    at_buf.push_back({buf + (p.phys.offset - file_lo), p.phys.length});
    at = p.stream + p.phys.length;
  }
  std::vector<core::StreamPiece> views;
  std::vector<CopyOp> batch;
  if (into_buf) {
    core::copy_segments(rank_as, at_rank, buf_as, at_buf, views, batch);
  } else {
    core::copy_segments(buf_as, at_buf, rank_as, at_rank, views, batch);
  }
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
    core::MemSegmentList slices;
    for (int r = 0; r < n; ++r) {
      if (io[r].bytes == 0) continue;
      core::ListIoRequest req = build_request(io[r]);
      if (list) {
        chains[r].calls.push_back(std::move(req));
        continue;
      }
      // One call per memory slice of each file extent.
      core::MemCursor mem(req.mem);
      for (const Extent& fe : req.file) {
        slices.clear();
        mem.take(fe.length, slices);
        u64 offset = fe.offset;
        for (const core::MemSegment& m : slices) {
          chains[r].calls.push_back(contiguous(m.addr, offset, m.length));
          offset += m.length;
        }
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
    const u64 hi = acc[r].req.file.back().end();
    for (u64 lo = acc[r].req.file.front().offset; lo < hi;
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
        const Pieces wanted = clip(acc[r], chunk);
        vmem::AddressSpace& m = comm_->rank(r).memory();
        land(acc[r], m, wanted, m, call.mem.front().addr, chunk.offset,
             /*into_buf=*/false);
        return res.end + mem.copy_cost(wanted.bytes);
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
    if (!acc[r].req.file.empty()) {
      lo = std::min(lo, acc[r].req.file.front().offset);
      hi = std::max(hi, acc[r].req.file.back().end());
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

  // pairs[s][a]: the pieces of rank s's access in aggregator a's domain.
  std::vector<std::vector<Pieces>> pairs(n);
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < n; ++a) pairs[s].push_back(clip(acc[s], domain(a)));
  }

  // Aggregator-side assembly buffers sized to their domains.
  std::vector<u64> assembly(n);
  for (int a = 0; a < n; ++a) assembly[a] = scratch(a, domain(a).length);
  // Land pair (s, a)'s pieces once, between rank s's memory and aggregator
  // a's assembly: into the assembly on a write, out of it on a read.
  const auto exchange = [&](int s, int a) {
    land(acc[s], comm_->rank(s).memory(), pairs[s][a],
         comm_->rank(a).memory(), assembly[a], domain(a).offset, is_write);
  };

  std::vector<TimePoint> agg_ready(n, start);  // assembly complete
  const MemParams& mem = comm_->cluster().config().mem;

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
    // Phase 1: every pair's pieces land in the aggregator's assembly. A
    // remote pair is charged a pack at the sender, the message and an
    // unpack at the aggregator; a local pair one copy.
    std::vector<TimePoint> sender_time(n, start);
    for (int s = 0; s < n; ++s) {
      for (int a = 0; a < n; ++a) {
        const u64 bytes = pairs[s][a].bytes;
        if (bytes == 0) continue;
        exchange(s, a);
        const Duration copy = mem.copy_cost(bytes);
        if (s == a) {
          sender_time[s] = agg_ready[a] =
              max(sender_time[s], agg_ready[a]) + copy;
          continue;
        }
        sender_time[s] += copy;
        const TimePoint arrived = comm_->send(s, a, bytes, sender_time[s]);
        agg_ready[a] = max(agg_ready[a], arrived) + copy;
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
      for (const Piece& p : pairs[s][a].list) cover.push_back(p.phys);
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
    // Phase 1 (read direction): every pair's pieces land out of the
    // aggregator's assembly, charged as the write's exchange in reverse.
    std::vector<TimePoint> recv_time(n, start);
    for (int a = 0; a < n; ++a) {
      TimePoint t_a = agg[a].end;
      for (int s = 0; s < n; ++s) {
        const u64 bytes = pairs[s][a].bytes;
        if (bytes == 0) continue;
        exchange(s, a);
        const Duration copy = mem.copy_cost(bytes);
        if (s == a) {
          recv_time[s] = max(recv_time[s], t_a + copy);
          continue;
        }
        t_a += copy;
        const TimePoint arrived = comm_->send(a, s, bytes, t_a);
        recv_time[s] = max(recv_time[s], arrived + copy);
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
