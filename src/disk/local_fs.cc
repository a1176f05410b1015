#include "disk/local_fs.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace pvfsib::disk {

// --- LocalFile ---------------------------------------------------------

Duration LocalFile::seek_syscall_cost(u64 off) {
  if (off == logical_pos_) return Duration::zero();
  fs_->stats().add(stat::kFsLseek);
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

Timed<u64> LocalFile::charge_read(u64 off, u64 len, IoOpts opts) {
  Duration cost = fs_->fs_params().read_overhead + seek_syscall_cost(off);
  fs_->stats().add(stat::kDiskRead);

  const u64 n =
      off >= content_.size() ? 0 : std::min<u64>(len, content_.size() - off);
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
      fs_->stats().add(stat::kCacheHitBytes, static_cast<i64>(hit_bytes));
      fs_->stats().add(stat::kCacheMissBytes, static_cast<i64>(n - hit_bytes));
    }
  }
  logical_pos_ = off + n;
  return {n, cost};
}

Duration LocalFile::charge_write(u64 off, u64 len, IoOpts opts) {
  Duration cost = fs_->fs_params().write_overhead + seek_syscall_cost(off);
  fs_->stats().add(stat::kDiskWrite);

  if (len > 0) {
    content_.grow_to(off + len);
    mark_written(off, len);

    if (opts.direct) {
      cost += fs_->disk_.write(disk_base_ + off, len);
    } else {
      cost += transfer_time(len, fs_->disk_params().cache_write_bw);
      const u64 lo = page_floor(off);
      const u64 hi = page_ceil(off + len);
      cost += writeback(fs_->cache_.insert(id_, lo / kPageSize,
                                           (hi - lo) / kPageSize,
                                           /*dirty=*/true));
    }
  }
  logical_pos_ = off + len;
  return cost;
}

Timed<std::span<const std::byte>> LocalFile::read_view(u64 off, u64 len,
                                                       IoOpts opts) {
  const Timed<u64> rd = charge_read(off, len, opts);
  if (rd.value == 0) return {{}, rd.cost};
  return {{content_.data() + off, rd.value}, rd.cost};
}

Timed<u64> LocalFile::pread(u64 off, std::span<std::byte> dst, IoOpts opts) {
  const Timed<std::span<const std::byte>> v = read_view(off, dst.size(), opts);
  if (!v.value.empty()) std::memcpy(dst.data(), v.value.data(), v.value.size());
  return {v.value.size(), v.cost};
}

Timed<u64> LocalFile::pwrite(u64 off, std::span<const std::byte> src,
                             IoOpts opts) {
  const Duration cost = charge_write(off, src.size(), opts);
  if (!src.empty()) std::memcpy(content_.data() + off, src.data(), src.size());
  return {src.size(), cost};
}

Duration LocalFile::read_modify_write(std::span<const Extent> windows,
                                      std::span<const Patch> patches,
                                      IoOpts opts) {
  Duration cost = Duration::zero();
  for (const Extent& w : windows) {
    cost += charge_read(w.offset, w.length, opts).cost;
    cost += charge_write(w.offset, w.length, opts);
  }
  // A window past EOF grew the file, which may have moved its bytes: the
  // patches' destinations are resolved only now.
  std::vector<CopyOp>& batch = fs_->batch_;
  batch.clear();
  for (const Patch& p : patches) {
    assert(p.offset + p.bytes.size() <= size());
    batch.push_back({content_.data() + p.offset, p.bytes.data(),
                     p.bytes.size()});
  }
  ByteMover::shared().copy(batch);
  return cost;
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

namespace {

// Add [lo, hi) to a map of merged runs (start -> length) — mirrors
// AddressSpace::insert_extent.
void add_run(std::map<u64, u64>& runs, u64 lo, u64 hi) {
  auto it = runs.upper_bound(lo);
  if (it != runs.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second >= lo) {
      lo = prev->first;
      hi = std::max(hi, prev->first + prev->second);
      runs.erase(prev);
    }
  }
  it = runs.lower_bound(lo);
  while (it != runs.end() && it->first <= hi) {
    hi = std::max(hi, it->first + it->second);
    it = runs.erase(it);
  }
  runs[lo] = hi - lo;
}

}  // namespace

void LocalFile::mark_written(u64 off, u64 len) {
  // Block (page) granular, merged.
  add_run(written_, page_floor(off), page_ceil(off + len));
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

// --- Block checksums ---------------------------------------------------------

u64 block_checksum(std::span<const std::byte> s) {
  // Four interleaved multiply-xor lanes over 64-bit words: the chain runs
  // at word speed instead of FNV-1a's one byte per multiply. A lane step is
  // a bijection of the lane for a fixed word and of the word for a fixed
  // lane, so a change confined to one word always changes the sum; the
  // length seeds lane 0 and a final avalanche spreads every input bit.
  constexpr u64 kMul = 0x9e3779b97f4a7c15ull;
  auto step = [](u64 lane, u64 w) { return std::rotl((lane ^ w) * kMul, 31); };
  auto word = [&](size_t at) {
    u64 w;
    std::memcpy(&w, s.data() + at, 8);
    return w;
  };
  u64 lane[4] = {s.size(), 0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                 0xa4093822299f31d0ull};
  size_t i = 0;
  for (; i + 32 <= s.size(); i += 32) {
    for (int k = 0; k < 4; ++k) lane[k] = step(lane[k], word(i + 8 * k));
  }
  for (; i + 8 <= s.size(); i += 8) lane[0] = step(lane[0], word(i));
  if (i < s.size()) {
    u64 tail = 0;  // the last partial word, zero-padded
    std::memcpy(&tail, s.data() + i, s.size() - i);
    lane[0] = step(lane[0], tail);
  }
  u64 h = lane[0];
  for (int k = 1; k < 4; ++k) h = step(h, lane[k]);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

ExtentList LocalFile::touched_blocks(const ExtentList& ranges) const {
  const u64 B = fs_->checksum_block();
  ExtentList out;
  for (const Extent& r : ranges) {
    if (r.length == 0 || r.offset >= size()) continue;
    const u64 first = r.offset / B;
    const u64 last = (std::min(r.end(), size()) - 1) / B;
    out.push_back({first, last - first + 1});
  }
  sort_by_offset(out);
  return coalesce(out);
}

bool LocalFile::stamped(u64 block) const {
  auto it = stamped_.upper_bound(block);
  return it != stamped_.begin() &&
         block < std::prev(it)->first + std::prev(it)->second;
}

u64 LocalFile::hash_block(u64 block) const {
  const u64 B = fs_->checksum_block();
  const u64 lo = block * B;
  return block_checksum(contents().subspan(lo, std::min(lo + B, size()) - lo));
}

void LocalFile::stamp(const ExtentList& ranges) {
  for (const Extent& run : touched_blocks(ranges)) {
    add_run(stamped_, run.offset, run.end());
    settled_.erase(settled_.lower_bound(run.offset),
                   settled_.lower_bound(run.end()));
  }
}

bool LocalFile::verify(const ExtentList& ranges) {
  if (settled_.empty()) return true;
  for (const Extent& run : touched_blocks(ranges)) {
    for (auto s = settled_.lower_bound(run.offset);
         s != settled_.end() && s->first < run.end();) {
      if (hash_block(s->first) != s->second) return false;
      s = settled_.erase(s);
    }
  }
  return true;
}

void LocalFile::corrupt(const Extent& range, std::byte mask) {
  const u64 end = std::min(range.end(), size());
  if (range.offset >= end) return;
  for (const Extent& run : touched_blocks({{range.offset, end - range.offset}})) {
    for (u64 b = run.offset; b < run.end(); ++b) {
      if (stamped(b) && !settled_.contains(b)) settled_[b] = hash_block(b);
    }
  }
  for (u64 off = range.offset; off < end; ++off) content_.data()[off] ^= mask;
}

Duration LocalFile::purge() {
  content_.clear();
  written_.clear();
  stamped_.clear();
  settled_.clear();
  fs_->cache_.drop(id_);  // dirty pages of a deleted file are discarded
  logical_pos_ = 0;
  // Free the name, unless a later create already reused it.
  auto it = fs_->by_path_.find(path_);
  if (it != fs_->by_path_.end() && it->second == id_) fs_->by_path_.erase(it);
  return fs_->fs_params().write_overhead;  // the unlink metadata update
}

Result<LocalFile::RangeLock> LocalFile::lock_range(const Extent& range) {
  if (range.empty()) return invalid_argument("empty lock range");
  if (range_locked(range)) {
    return failed_precondition("range already locked: " + to_string(range));
  }
  const u64 id = next_lock_id_++;
  range_locks_[id] = range;
  fs_->stats().add(stat::kFsLock);
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
                 const FsParams& fs_params, Stats& stats, u64 checksum_block)
    : name_(std::move(name)),
      disk_params_(disk_params),
      fs_params_(fs_params),
      stats_(stats),
      checksum_block_(std::max<u64>(1, checksum_block)),
      disk_(disk_params, stats),
      cache_(disk_params) {}

Result<u32> LocalFs::create(const std::string& path) {
  const u32 fd = static_cast<u32>(files_.size());
  if (!by_path_.try_emplace(path, fd).second) {
    return already_exists("file exists: " + path);
  }
  files_.emplace_back(new LocalFile(this, fd, path, fd * kFileSpacing));
  return fd;
}

Result<u32> LocalFs::open(const std::string& path) {
  auto it = by_path_.find(path);
  if (it == by_path_.end()) return not_found("no such file: " + path);
  return it->second;
}

bool LocalFs::exists(const std::string& path) const {
  return by_path_.contains(path);
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
