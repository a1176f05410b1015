// MPI-IO file operations over PVFS with ROMIO's four noncontiguous access
// methods (Section 2.3):
//
//   kMultiple      one PVFS contiguous call per contiguous piece
//   kDataSieving   ROMIO *client-side* data sieving: reads stage the whole
//                  [first,last] span through a client buffer; writes fall
//                  back to kMultiple because PVFS has no file locking
//                  (exactly the degradation the paper describes)
//   kCollective    two-phase I/O: ranks exchange data so each aggregator
//                  performs contiguous file I/O on its file domain
//   kListIo(+Ads)  PVFS list I/O, optionally with server-side Active Data
//                  Sieving — the paper's contribution
//
// Operations are whole-communicator: benches pass one RankIo per rank and
// every rank's access runs concurrently on the event engine, as in a real
// MPI program. Each method is a plan of PVFS calls per rank, a chain, and
// one driver runs every rank's chain at once, its calls back to back.
//
// A rank whose call fails reports that call's status and 0 bytes. Under
// kCollective every rank's data passes through the aggregators, so one
// failed aggregator call fails every rank.
#pragma once

#include <string>
#include <vector>

#include "mpiio/datatype.h"
#include "mpiio/file_view.h"
#include "mpiio/runtime.h"

namespace pvfsib::mpiio {

enum class IoMethod { kMultiple, kDataSieving, kCollective, kListIo, kListIoAds };

const char* to_string(IoMethod m);

struct Hints {
  IoMethod method = IoMethod::kListIoAds;
  bool sync = false;  // commit to disk before returning
};

// One rank's share of a collective-style access.
struct RankIo {
  FileView view;
  u64 mem_addr = 0;
  Datatype memtype = Datatype::contiguous(1);
  u64 view_offset = 0;  // position in view space, bytes
  u64 bytes = 0;        // data bytes to move
};

class File {
 public:
  static Result<File> create(Communicator& comm, const std::string& name);

  // Concurrent access by all ranks; entry r describes rank r (bytes == 0
  // means the rank does not participate). Returns one result per rank.
  std::vector<pvfs::IoResult> write_all(const std::vector<RankIo>& io,
                                        const Hints& hints);
  std::vector<pvfs::IoResult> read_all(const std::vector<RankIo>& io,
                                       const Hints& hints);

  pvfs::OpenFile& handle(int rank) { return handles_.at(rank); }

 private:
  File(Communicator& comm, std::vector<pvfs::OpenFile> handles)
      : comm_(&comm),
        handles_(std::move(handles)),
        scratch_(handles_.size(), {0, 0}) {}

  std::vector<pvfs::IoResult> access(const std::vector<RankIo>& io,
                                     const Hints& hints, pvfs::IoDir dir);
  std::vector<pvfs::IoResult> run_ds_read(const std::vector<RankIo>& io,
                                          const pvfs::IoOptions& opts);
  std::vector<pvfs::IoResult> run_two_phase(const std::vector<RankIo>& io,
                                            pvfs::IoDir dir,
                                            const pvfs::IoOptions& opts);

  // A rank's persistent scratch allocation, regrown on demand: the
  // data-sieving read's staging chunk or a collective's assembly buffer.
  u64 scratch(int rank, u64 bytes);

  Communicator* comm_;
  std::vector<pvfs::OpenFile> handles_;
  std::vector<std::pair<u64, u64>> scratch_;  // per rank: (addr, size)
};

}  // namespace pvfsib::mpiio
