// The I/O node's local file system (the role ext3 plays on a PVFS iod).
//
// Files hold real bytes; every call charges the virtual-time costs the ADS
// model reasons about: per-syscall overheads (O_r/O_w/O_seek/O_lock),
// page-cache service on hits, media seek + transfer on misses, write-back
// on fsync. One pread/pwrite models PVFS's (lseek, read/write) pair and is
// counted as one disk access in the Table 6 profile.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/byte_mover.h"
#include "common/config.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/zero_pages.h"
#include "disk/disk.h"
#include "disk/page_cache.h"

namespace pvfsib::disk {

struct IoOpts {
  bool direct = false;  // bypass the page cache entirely (O_DIRECT)
};

// 64-bit checksum of a block's stored bytes, hashed a word at a time.
u64 block_checksum(std::span<const std::byte> s);

class LocalFs;

class LocalFile {
 public:
  // Read up to dst.size() bytes at `off`; short count at EOF.
  Timed<u64> pread(u64 off, std::span<std::byte> dst, IoOpts opts = {});

  // Charge exactly what pread(off, len bytes) charges, and return the
  // file's own bytes at [off, off + len), short at EOF, instead of copying
  // them out. The view is valid until the file next changes (a write, a
  // corruption or a purge may move or drop its bytes).
  Timed<std::span<const std::byte>> read_view(u64 off, u64 len,
                                              IoOpts opts = {});

  // Write src at `off`, growing (and zero-filling) the file as needed.
  Timed<u64> pwrite(u64 off, std::span<const std::byte> src, IoOpts opts = {});

  // One piece of a sieved write-back: `bytes` land at file offset `offset`.
  struct Patch {
    u64 offset = 0;
    std::span<const std::byte> bytes;
  };
  // Sieved write-back in place for a round's windows: charges, window by
  // window, exactly what pread(window) then pwrite(window) charge (cost,
  // lseek, Stats, page-cache inserts and evictions, allocated-block map,
  // growth), then applies every patch, in order, to the file's own bytes
  // (zero past the old EOF) in one ByteMover batch, instead of copying
  // each window out to a buffer and back. Every patch lies in a window.
  Duration read_modify_write(std::span<const Extent> windows,
                             std::span<const Patch> patches, IoOpts opts = {});

  // Flush dirty pages to media.
  Duration fsync();

  // Byte-range advisory locks ("the portion of the file being accessed
  // must be locked"); an ADS read-modify-write holds one over the round's
  // bounding span. Conflicting requests fail rather than block — the
  // simulation is single-threaded, so a conflict is a protocol bug.
  struct RangeLock {
    u64 id = 0;
    Duration cost = Duration::zero();
  };
  Result<RangeLock> lock_range(const Extent& range);
  Duration unlock_range(u64 lock_id);
  bool range_locked(const Extent& range) const;

  u64 size() const { return content_.size(); }
  u32 id() const { return id_; }
  const std::string& path() const { return path_; }

  // Direct access to contents for test verification (no cost, no stats).
  std::span<const std::byte> contents() const {
    return {content_.data(), content_.size()};
  }

  // --- Block checksums (the iod's integrity table) ------------------------
  // One 64-bit sum per checksum block (LocalFs::checksum_block() bytes; the
  // last block ends at EOF), kept beside the bytes so purge() drops both.
  // Stamps are lazy: a stamped block's sum is "the hash of its current
  // bytes", so stamping and verifying fault-free data hash nothing. The
  // caller stamps every write it applies; corrupt() is the only way bytes
  // change behind a stamp, so it hashes the stamped blocks it touches
  // first, and verify() re-hashes only those.

  // Stamp every block overlapping `ranges` (clipped at EOF).
  void stamp(const ExtentList& ranges);
  // Does every stamped block overlapping `ranges` still hash to its sum?
  // Unstamped blocks are trusted. A block that verifies clean is pending
  // again, so the next verify skips it.
  bool verify(const ExtentList& ranges);
  // Silent corruption for the fault plane: XOR `mask` into every stored
  // byte of `range` (clipped at EOF), behind the stamps. No cost, no stats,
  // no cache interaction — exactly what "silent" means.
  void corrupt(const Extent& range, std::byte mask);

  // Release the file's blocks, checksums and cached pages, and its name
  // (unlink's data side): the path can be created afresh. Returns the
  // (small) cost of the metadata update.
  Duration purge();

 private:
  friend class LocalFs;
  LocalFile(LocalFs* fs, u32 id, std::string path, u64 disk_base)
      : fs_(fs), id_(id), path_(std::move(path)), disk_base_(disk_base) {}

  Duration seek_syscall_cost(u64 off);
  Duration writeback(const std::vector<PageKey>& pages);

  // Everything pread/pwrite charge and update except the byte copy: the
  // read returns the count it would copy; the write grows the file.
  Timed<u64> charge_read(u64 off, u64 len, IoOpts opts);
  Duration charge_write(u64 off, u64 len, IoOpts opts);

  // Mark [off, off+len) as having allocated blocks.
  void mark_written(u64 off, u64 len);
  // Portions of [off, off+len) backed by allocated blocks, sorted.
  ExtentList written_within(u64 off, u64 len) const;

  // The checksum blocks overlapping `ranges` (clipped at EOF), as sorted,
  // merged block-index runs.
  ExtentList touched_blocks(const ExtentList& ranges) const;
  bool stamped(u64 block) const;
  u64 hash_block(u64 block) const;

  LocalFs* fs_;
  u32 id_;
  std::string path_;
  u64 disk_base_;  // position of byte 0 on the platter
  u64 logical_pos_ = 0;
  // Zero-on-touch, so a file's holes cost no host memory.
  ZeroPages content_;
  // Allocated block ranges: reading a hole inside a sparse file returns
  // zeros straight from the block map, without any media access.
  std::map<u64, u64> written_;
  // Active byte-range locks: id -> extent.
  std::map<u64, Extent> range_locks_;
  u64 next_lock_id_ = 1;
  // Stamped checksum blocks as merged index runs: first block -> count.
  std::map<u64, u64> stamped_;
  // Stamped blocks a corruption touched since they last verified clean:
  // block -> the hash of its bytes just before the first such corruption.
  std::map<u64, u64> settled_;
};

class LocalFs {
 public:
  LocalFs(std::string name, const DiskParams& disk_params,
          const FsParams& fs_params, Stats& stats,
          u64 checksum_block = ReplicationParams{}.integrity_block_bytes);

  Result<u32> create(const std::string& path);
  Result<u32> open(const std::string& path);
  bool exists(const std::string& path) const;
  LocalFile& file(u32 fd);
  const LocalFile& file(u32 fd) const;

  // Flush all dirty pages and empty the cache (echo 3 > drop_caches after a
  // sync); returns the cost of the write-back.
  Duration drop_caches();

  Disk& media() { return disk_; }
  PageCache& cache() { return cache_; }
  const FsParams& fs_params() const { return fs_params_; }
  const DiskParams& disk_params() const { return disk_params_; }
  u64 checksum_block() const { return checksum_block_; }
  Stats& stats() { return stats_; }
  const std::string& name() const { return name_; }

 private:
  friend class LocalFile;

  std::string name_;
  DiskParams disk_params_;
  FsParams fs_params_;
  Stats& stats_;
  u64 checksum_block_;
  Disk disk_;
  PageCache cache_;
  // Every file ever created, by fd (purged ones stay, so fds and platter
  // positions never move); the live ones by path.
  std::vector<std::unique_ptr<LocalFile>> files_;
  std::unordered_map<std::string, u32> by_path_;
  // read_modify_write's copy batch, reused across calls.
  std::vector<CopyOp> batch_;

  // Files are laid out 4 GiB apart on the simulated platter so inter-file
  // seeks are long and intra-file seeks short.
  static constexpr u64 kFileSpacing = 4 * kGiB;
};

}  // namespace pvfsib::disk
