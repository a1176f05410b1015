#include "disk/local_fs.h"

#include <cassert>
#include <cstring>

namespace pvfsib::disk {

// --- LocalFile ---------------------------------------------------------

Duration LocalFile::seek_syscall_cost(u64 off) {
  if (off == logical_pos_) return Duration::zero();
  if (fs_->stats() != nullptr) fs_->stats()->add("fs.lseek");
  return fs_->fs_params().seek_overhead;
}

Duration LocalFile::writeback(const std::vector<PageKey>& pages) {
  Duration cost = Duration::zero();
  for (const PageKey& p : pages) {
    // Evicted dirty pages go back individually (scattered write-back).
    cost += fs_->disk_.write(disk_base_ + p.page * kPageSize, kPageSize);
  }
  return cost;
}

Timed<u64> LocalFile::pread(u64 off, std::span<std::byte> dst, IoOpts opts) {
  Duration cost = fs_->fs_params().read_overhead + seek_syscall_cost(off);
  if (fs_->stats() != nullptr) fs_->stats()->add(stat::kDiskRead);

  const u64 n = off >= content_.size()
                    ? 0
                    : std::min<u64>(dst.size(), content_.size() - off);
  if (n > 0) {
    const Extent window{off, n};
    if (opts.direct) {
      for (const Extent& blk : written_within(off, n)) {
        cost += fs_->disk_.read(disk_base_ + blk.offset, blk.length);
      }
    } else {
      const ExtentList hits = fs_->cache_.cached_ranges(id_, window);
      u64 hit_bytes = 0;
      for (const Extent& h : hits) hit_bytes += h.length;
      cost += transfer_time(hit_bytes, fs_->disk_params().cache_read_bw);

      for (const Extent& miss : holes_within(window, hits)) {
        // The kernel fills whole pages (clipped to EOF); only ranges with
        // allocated blocks touch the media — sparse holes materialize as
        // zero pages straight from the block map.
        const u64 lo = page_floor(miss.offset);
        const u64 hi = std::min<u64>(page_ceil(miss.end()),
                                     page_ceil(content_.size()));
        if (lo >= hi) continue;
        for (const Extent& blk : written_within(lo, hi - lo)) {
          cost += fs_->disk_.read(disk_base_ + page_floor(blk.offset),
                                  page_ceil(blk.end()) -
                                      page_floor(blk.offset));
        }
        cost += writeback(fs_->cache_.insert(id_, lo / kPageSize,
                                             (hi - lo) / kPageSize,
                                             /*dirty=*/false));
      }
      if (fs_->stats() != nullptr) {
        fs_->stats()->add(stat::kCacheHitBytes, static_cast<i64>(hit_bytes));
        fs_->stats()->add(stat::kCacheMissBytes,
                          static_cast<i64>(n - hit_bytes));
      }
    }
    std::memcpy(dst.data(), content_.data() + off, n);
  }
  logical_pos_ = off + n;
  return {n, cost};
}

Timed<u64> LocalFile::pwrite(u64 off, std::span<const std::byte> src,
                             IoOpts opts) {
  Duration cost = fs_->fs_params().write_overhead + seek_syscall_cost(off);
  if (fs_->stats() != nullptr) fs_->stats()->add(stat::kDiskWrite);

  const u64 n = src.size();
  if (n > 0) {
    content_.grow_to(off + n);
    std::memcpy(content_.data() + off, src.data(), n);
    mark_written(off, n);

    if (opts.direct) {
      cost += fs_->disk_.write(disk_base_ + off, n);
    } else {
      cost += transfer_time(n, fs_->disk_params().cache_write_bw);
      const u64 lo = page_floor(off);
      const u64 hi = page_ceil(off + n);
      cost += writeback(fs_->cache_.insert(id_, lo / kPageSize,
                                           (hi - lo) / kPageSize,
                                           /*dirty=*/true));
    }
  }
  logical_pos_ = off + n;
  return {n, cost};
}

Duration LocalFile::fsync() {
  Duration cost = fs_->fs_params().write_overhead;  // the fsync call itself
  // The elevator clusters dirty pages across small clean gaps into one
  // media pass (writing a clean gap rewrites identical content, which is
  // harmless and cheaper than a per-run head hop).
  const ExtentList runs =
      coalesce(fs_->cache_.flush_dirty(id_), /*merge_gap=*/64 * kKiB);
  for (const Extent& run : runs) {
    const u64 lo = run.offset;
    const u64 hi = std::min<u64>(run.end(), page_ceil(content_.size()));
    if (lo >= hi) continue;
    cost += fs_->disk_.write(disk_base_ + lo, hi - lo);
  }
  return cost;
}

void LocalFile::mark_written(u64 off, u64 len) {
  // Block (page) granular, merged — mirrors AddressSpace::insert_extent.
  u64 lo = page_floor(off);
  u64 hi = page_ceil(off + len);
  auto it = written_.upper_bound(lo);
  if (it != written_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second >= lo) {
      lo = prev->first;
      hi = std::max(hi, prev->first + prev->second);
      written_.erase(prev);
    }
  }
  it = written_.lower_bound(lo);
  while (it != written_.end() && it->first <= hi) {
    hi = std::max(hi, it->first + it->second);
    it = written_.erase(it);
  }
  written_[lo] = hi - lo;
}

ExtentList LocalFile::written_within(u64 off, u64 len) const {
  ExtentList out;
  if (len == 0) return out;
  auto it = written_.upper_bound(off);
  if (it != written_.begin()) --it;
  for (; it != written_.end() && it->first < off + len; ++it) {
    const u64 lo = std::max(off, it->first);
    const u64 hi = std::min(off + len, it->first + it->second);
    if (lo < hi) out.push_back({lo, hi - lo});
  }
  return out;
}

Duration LocalFile::purge() {
  content_.clear();
  written_.clear();
  fs_->cache_.drop(id_);  // dirty pages of a deleted file are discarded
  logical_pos_ = 0;
  return fs_->fs_params().write_overhead;  // the unlink metadata update
}

Duration LocalFile::lock() {
  assert(!locked_ && "file already locked (ADS must serialize RMW)");
  locked_ = true;
  if (fs_->stats() != nullptr) fs_->stats()->add("fs.lock");
  return fs_->fs_params().lock_overhead;
}

Duration LocalFile::unlock() {
  assert(locked_);
  locked_ = false;
  return fs_->fs_params().unlock_overhead;
}

Result<LocalFile::RangeLock> LocalFile::lock_range(const Extent& range) {
  if (range.empty()) return invalid_argument("empty lock range");
  if (range_locked(range)) {
    return failed_precondition("range already locked: " + to_string(range));
  }
  const u64 id = next_lock_id_++;
  range_locks_[id] = range;
  if (fs_->stats() != nullptr) fs_->stats()->add("fs.lock");
  return RangeLock{id, fs_->fs_params().lock_overhead};
}

Duration LocalFile::unlock_range(u64 lock_id) {
  const auto erased = range_locks_.erase(lock_id);
  assert(erased == 1 && "unlocking an unknown range lock");
  (void)erased;
  return fs_->fs_params().unlock_overhead;
}

bool LocalFile::range_locked(const Extent& range) const {
  for (const auto& [id, held] : range_locks_) {
    if (held.overlaps(range)) return true;
  }
  return false;
}

// --- LocalFs ---------------------------------------------------------------

LocalFs::LocalFs(std::string name, const DiskParams& disk_params,
                 const FsParams& fs_params, Stats* stats)
    : name_(std::move(name)),
      disk_params_(disk_params),
      fs_params_(fs_params),
      stats_(stats),
      disk_(disk_params, stats),
      cache_(disk_params) {}

Result<u32> LocalFs::create(const std::string& path) {
  if (exists(path)) return already_exists("file exists: " + path);
  const u32 fd = static_cast<u32>(files_.size());
  files_.emplace_back(new LocalFile(this, fd, path, fd * kFileSpacing));
  return fd;
}

Result<u32> LocalFs::open(const std::string& path) {
  for (const auto& f : files_) {
    if (f->path() == path) return f->id();
  }
  return not_found("no such file: " + path);
}

bool LocalFs::exists(const std::string& path) const {
  for (const auto& f : files_) {
    if (f->path() == path) return true;
  }
  return false;
}

LocalFile& LocalFs::file(u32 fd) {
  assert(fd < files_.size());
  return *files_[fd];
}

const LocalFile& LocalFs::file(u32 fd) const {
  assert(fd < files_.size());
  return *files_[fd];
}

Duration LocalFs::drop_caches() {
  Duration cost = Duration::zero();
  // Flush dirty pages first (sync), then discard everything.
  for (const auto& f : files_) cost += f->fsync();
  cache_.drop_all();
  return cost;
}

}  // namespace pvfsib::disk
