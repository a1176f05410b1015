#include "core/listio.h"

#include <algorithm>
#include <cassert>

namespace pvfsib::core {

u64 total_bytes(const MemSegmentList& segs) {
  u64 sum = 0;
  for (const MemSegment& s : segs) sum += s.length;
  return sum;
}

Status validate(const ListIoRequest& req) {
  if (req.mem.empty() || req.file.empty()) {
    return invalid_argument("list I/O request with empty mem or file list");
  }
  for (const MemSegment& s : req.mem) {
    if (s.length == 0) return invalid_argument("zero-length memory segment");
    if (s.addr == 0) return invalid_argument("null memory segment");
  }
  for (const Extent& e : req.file) {
    if (e.length == 0) return invalid_argument("zero-length file extent");
  }
  if (total_bytes(req.mem) != total_length(req.file)) {
    return invalid_argument("memory and file byte totals differ");
  }
  return Status::ok();
}

std::vector<ServerSubRequest> partition(const ListIoRequest& req,
                                        const StripeMap& map) {
  assert(validate(req).is_ok());

  std::vector<ServerSubRequest> out(map.server_count());
  for (u32 s = 0; s < map.server_count(); ++s) out[s].server = s;

  // Walk the file stream, splitting pieces at stripe boundaries, while
  // consuming the memory stream in lockstep.
  MemCursor mem(req.mem);
  const u64 ss = map.stripe_size();

  for (const Extent& fe : req.file) {
    u64 pos = fe.offset;
    u64 left = fe.length;
    while (left > 0) {
      const u64 in_stripe = ss - pos % ss;
      const u64 n = std::min(left, in_stripe);
      ServerSubRequest& dst = out[map.server_of(pos)];
      const u64 local = map.local_offset(pos);
      // PVFS merges accesses only when they are contiguous in the local file.
      if (!dst.file.empty() && dst.file.back().end() == local) {
        dst.file.back().length += n;
      } else {
        dst.file.push_back({local, n});
      }
      mem.take(n, dst.mem);
      pos += n;
      left -= n;
    }
  }

  std::erase_if(out, [](const ServerSubRequest& r) { return r.empty(); });
  return out;
}

}  // namespace pvfsib::core
