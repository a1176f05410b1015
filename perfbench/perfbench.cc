// Two-clock benchmark of the PVFS-over-InfiniBand simulator.
//
// One process runs one named workload for a wall-clock budget. The unit of
// work is a *repetition*: build a fresh cluster, set the workload up, run a
// fixed measured phase, then verify the bytes. A repetition is a pure
// function of (workload, seed), so every repetition must reproduce the same
// sim-clock record bit for bit; the process repeats it until the budget is
// spent and reports
//
//   sim-clock metrics  from the (identical) repetitions' record: what the
//                      modelled cluster would take;
//   host-clock metrics as medians over repetitions: what the simulator
//                      itself takes to run.
//
// The system is driven only through its public entry points (Cluster,
// mpiio::File, load::LoadEngine) and each layer is measured from outside,
// by timing calls into it and diffing its public counters (Stats, resource
// busy totals, engine event counts) around the measured phase. With
// --trace 1 every other repetition records benchmark-side spans around
// those calls, written once at exit in Chrome trace-event JSON.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "load/load_engine.h"
#include "mpiio/mpio_file.h"
#include "pvfs/cluster.h"
#include "workloads/block_column.h"
#include "workloads/tile_io.h"

namespace pvfsib::perfbench {
namespace {

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  // Smoke-test knobs: shrink every workload, and corrupt one expected byte
  // (on mixed-load, one expected namespace entry) so verification must fail.
  bool tiny = false;
  bool flip_byte = false;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

u64 fnv1a(const std::string& s) {
  u64 h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// --- Benchmark-side spans --------------------------------------------------

// Records one span per call the benchmark makes into a layer, with host
// and sim start/end and the Stats counters that moved inside it. Disabled
// spans cost one branch.
class Tracer {
 public:
  struct Span {
    u64 id = 0;
    u64 parent = 0;
    u32 rep = 0;
    std::string layer;
    std::string name;
    double host_start_s = 0.0;
    double host_end_s = 0.0;
    bool has_sim = false;  // false before the cluster exists
    double sim_start_us = 0.0;
    double sim_end_us = 0.0;
    u64 events = 0;
    Stats counters;
  };

  explicit Tracer(double origin_s) : origin_s_(origin_s) {}

  void set_enabled(bool on, u32 rep) {
    on_ = on;
    rep_ = rep;
  }

  // Runs f() inside one span. `cluster` (may be null) supplies the sim
  // clock, event count and counters at both boundaries.
  template <class F>
  auto run(const char* layer, const char* name, pvfs::Cluster* cluster,
           F&& f) -> decltype(f()) {
    if (!on_) return f();
    const size_t idx = open(layer, name, cluster);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      close(idx, cluster);
    } else {
      auto result = f();
      close(idx, cluster);
      return result;
    }
  }

  // Chrome trace-event JSON: pid 1 is the host clock, pid 2 the sim clock
  // (one thread per repetition, since each repetition's sim clock starts
  // at zero). args carry the span/parent ids and the counter movement.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
        << R"({"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "host clock"}},)"
        << "\n"
        << R"({"ph": "M", "pid": 2, "name": "process_name", "args": {"name": "sim clock"}})";
    for (const Span& s : spans_) {
      std::string args = "{\"rep\": " + std::to_string(s.rep) +
                         ", \"id\": " + std::to_string(s.id) +
                         ", \"parent\": " + std::to_string(s.parent) +
                         ", \"events\": " + std::to_string(s.events) +
                         ", \"counters\": {";
      bool first = true;
      for (const auto& [k, v] : s.counters.counters()) {
        args += (first ? "\"" : ", \"") + json_escape(k) +
                "\": " + std::to_string(v);
        first = false;
      }
      args += "}}";
      auto event = [&](int pid, double ts_us, double dur_us) {
        out << ",\n{\"ph\": \"X\", \"pid\": " << pid
            << ", \"tid\": " << s.rep << ", \"cat\": \"" << s.layer
            << "\", \"name\": \"" << s.name << "\", \"ts\": " << num(ts_us)
            << ", \"dur\": " << num(dur_us) << ", \"args\": " << args << "}";
      };
      event(1, (s.host_start_s - origin_s_) * 1e6,
            (s.host_end_s - s.host_start_s) * 1e6);
      if (s.has_sim) event(2, s.sim_start_us, s.sim_end_us - s.sim_start_us);
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  size_t span_count() const { return spans_.size(); }

 private:
  size_t open(const char* layer, const char* name, pvfs::Cluster* cluster) {
    Span s;
    s.id = next_id_++;
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.rep = rep_;
    s.layer = layer;
    s.name = name;
    if (cluster != nullptr) {
      s.has_sim = true;
      s.sim_start_us = cluster->engine().now().as_us();
      s.events = cluster->engine().events_processed();
      s.counters = cluster->stats();  // base snapshot; diffed at close
    }
    s.host_start_s = host_now();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(size_t idx, pvfs::Cluster* cluster) {
    Span& s = spans_[idx];
    s.host_end_s = host_now();
    if (cluster != nullptr) {
      if (!s.has_sim) {  // the span created the cluster
        s.has_sim = true;
        s.counters = Stats{};
      }
      s.sim_end_us = cluster->engine().now().as_us();
      s.events = cluster->engine().events_processed() - s.events;
      s.counters = cluster->stats().diff(s.counters);
    }
    stack_.pop_back();
  }

  double origin_s_;
  bool on_ = false;
  u32 rep_ = 0;
  u64 next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

// --- Counters read from outside the layers ---------------------------------

struct Snapshot {
  Stats stats;
  u64 events = 0;
  TimePoint sim = TimePoint::origin();
  std::vector<Duration> iod_disk;    // Iod::disk_queue() busy totals
  std::vector<Duration> iod_nic;     // Iod::hca().nic()
  std::vector<Duration> client_nic;  // Client::hca().nic()
};

Snapshot snapshot(pvfs::Cluster& c) {
  Snapshot s;
  s.stats = c.stats();
  s.events = c.engine().events_processed();
  s.sim = c.engine().now();
  for (u32 i = 0; i < c.iod_count(); ++i) {
    s.iod_disk.push_back(c.iod(i).disk_queue().busy_total());
    s.iod_nic.push_back(c.iod(i).hca().nic().busy_total());
  }
  for (u32 i = 0; i < c.client_count(); ++i) {
    s.client_nic.push_back(c.client(i).hca().nic().busy_total());
  }
  return s;
}

// --- One repetition ----------------------------------------------------------

struct Rep {
  // Host clock.
  double setup_s = 0.0;  // workload start to the first measured op
  double ctor_s = 0.0;   // Cluster constructor alone
  double measure_s = 0.0;
  std::vector<double> call_host_ms;  // collective calls only

  // Sim clock (all deltas over the measured phase).
  u64 ops = 0;
  u64 failed = 0;
  u64 user_bytes = 0;
  u64 events = 0;
  TimePoint sim_start = TimePoint::origin();
  TimePoint sim_end = TimePoint::origin();
  std::vector<i64> op_sim_ns;  // collectives: makespan of each call
  LatencyHistogram latency;    // every measured op
  LatencyHistogram data_latency;
  LatencyHistogram meta_latency;
  double ops_per_s = 0.0;  // mixed-load: LoadSummary's measure-window rates
  double mib_per_s = 0.0;
  double fairness = 0.0;
  pvfs::IoPhases phases;  // summed over ranks and calls
  Stats counters;
  std::vector<i64> iod_disk_ns, iod_nic_ns, client_nic_ns;
  std::string sim_record;  // canonical text of everything above

  bool verified = false;
  std::string error;

  double sim_span_s() const { return (sim_end - sim_start).as_sec(); }
};

std::vector<i64> busy_delta(const std::vector<Duration>& after,
                            const std::vector<Duration>& before) {
  std::vector<i64> out;
  for (size_t i = 0; i < after.size(); ++i) {
    out.push_back((after[i] - before[i]).as_ns());
  }
  return out;
}

// Every layer's counter movement over the measured phase.
void record_deltas(const Snapshot& before, const Snapshot& after, Rep& rep) {
  rep.events = after.events - before.events;
  rep.counters = after.stats.diff(before.stats);
  rep.iod_disk_ns = busy_delta(after.iod_disk, before.iod_disk);
  rep.iod_nic_ns = busy_delta(after.iod_nic, before.iod_nic);
  rep.client_nic_ns = busy_delta(after.client_nic, before.client_nic);
}

std::unique_ptr<pvfs::Cluster> build_cluster(
    const ModelConfig& cfg, const pvfs::Cluster::Topology& topo, Tracer& tr,
    Rep& rep) {
  std::unique_ptr<pvfs::Cluster> cl;
  tr.run("pvfs", "Cluster::Cluster", nullptr, [&] {
    const double h0 = host_now();
    cl = std::make_unique<pvfs::Cluster>(cfg, topo);
    rep.ctor_s = host_now() - h0;
  });
  return cl;
}

void fill_pattern(std::span<std::byte> dst, u64 seed) {
  Rng rng(seed);
  size_t i = 0;
  for (; i + 8 <= dst.size(); i += 8) {
    const u64 v = rng.next();
    std::memcpy(dst.data() + i, &v, 8);
  }
  for (; i < dst.size(); ++i) dst[i] = static_cast<std::byte>(rng.next());
}

u64 stream_seed(u64 seed, u64 a, u64 b = 0) {
  return seed * 0x9e3779b97f4a7c15ULL ^ (a + 1) * 0xbf58476d1ce4e5b9ULL ^
         (b + 1) * 0x94d049bb133111ebULL;
}

// The seed moves where the array or frame starts in the file (8-byte
// aligned, inside the first 64 KiB stripe), so the seed shifts the access
// pattern against the stripe boundaries as well as choosing the bytes.
// Every buffer is sized for the largest displacement, so host memory does
// not depend on the seed.
constexpr u64 kMaxDisplacement = 64 * kKiB;

u64 displacement(u64 seed) {
  Rng rng(stream_seed(seed, 7));
  return rng.below(kMaxDisplacement / 8) * 8;
}

// Rank 0 writes the whole `image` contiguously from one buffer, so the file
// exists, has its final size and (no sync) sits warm in the iod page caches.
bool preload(mpiio::Communicator& comm, mpiio::File& f,
             const std::vector<std::byte>& image) {
  pvfs::Client& c = comm.rank(0);
  const u64 addr = c.memory().alloc(image.size());
  std::memcpy(c.memory().data(addr), image.data(), image.size());
  return c.write(f.handle(0), 0, addr, image.size()).ok();
}

// Runs `calls` collective calls, alternating over `sets`, and records both
// clocks plus every layer's counter movement around them.
void measure_calls(pvfs::Cluster& c, mpiio::File& f,
                   const std::vector<std::vector<mpiio::RankIo>>& sets,
                   bool is_write, const mpiio::Hints& hints, u32 calls,
                   Tracer& tr, Rep& rep) {
  const Snapshot before = snapshot(c);
  std::vector<u64> rank_bytes(sets[0].size(), 0);
  const double t0 = host_now();
  for (u32 k = 0; k < calls; ++k) {
    const std::vector<mpiio::RankIo>& io = sets[k % sets.size()];
    const double h0 = host_now();
    const std::vector<pvfs::IoResult> results = tr.run(
        "mpiio", is_write ? "File::write_all" : "File::read_all", &c, [&] {
          return is_write ? f.write_all(io, hints) : f.read_all(io, hints);
        });
    rep.call_host_ms.push_back((host_now() - h0) * 1e3);

    TimePoint lo = TimePoint::from_ns(INT64_MAX);
    TimePoint hi = TimePoint::origin();
    bool ok = true;
    for (size_t r = 0; r < results.size(); ++r) {
      const pvfs::IoResult& res = results[r];
      ok = ok && res.ok();
      lo = res.start < lo ? res.start : lo;
      hi = max(hi, res.end);
      rep.user_bytes += res.bytes;
      rank_bytes[r] += res.bytes;
      rep.data_latency.record(res.elapsed());
      rep.phases.registration += res.phases.registration;
      rep.phases.wire += res.phases.wire;
      rep.phases.disk += res.phases.disk;
      rep.phases.stall += res.phases.stall;
    }
    if (k == 0) rep.sim_start = lo;
    rep.sim_end = hi;
    rep.op_sim_ns.push_back((hi - lo).as_ns());
    rep.latency.record(hi - lo);
    ++rep.ops;
    if (!ok) ++rep.failed;
  }
  rep.measure_s = host_now() - t0;

  record_deltas(before, snapshot(c), rep);
  rep.fairness = load::jain_fairness(rank_bytes);
}

// Byte-for-byte comparison; `flip` corrupts one expected byte first (the
// smoke test's proof that a wrong byte is caught).
bool same_bytes(std::vector<std::byte> expected, const std::byte* got,
                bool flip, std::string* error, const std::string& what) {
  if (flip && !expected.empty()) expected[expected.size() / 2] ^= std::byte{1};
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != got[i]) {
      *error = what + ": byte " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

std::string phases_record(const pvfs::IoPhases& p) {
  return " reg=" + std::to_string(p.registration.as_ns()) +
         " wire=" + std::to_string(p.wire.as_ns()) +
         " disk=" + std::to_string(p.disk.as_ns()) +
         " stall=" + std::to_string(p.stall.as_ns());
}

std::string list_record(const char* tag, const std::vector<i64>& v) {
  std::string out = std::string(" ") + tag + "=[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + std::to_string(v[i]);
  }
  return out + "]";
}

void seal_record(Rep& rep, const std::string& extra) {
  rep.sim_record = "ops=" + std::to_string(rep.ops) +
                   " failed=" + std::to_string(rep.failed) +
                   " bytes=" + std::to_string(rep.user_bytes) +
                   " events=" + std::to_string(rep.events) +
                   " start=" + std::to_string(rep.sim_start.as_ns()) +
                   " end=" + std::to_string(rep.sim_end.as_ns()) +
                   list_record("op_ns", rep.op_sim_ns) +
                   phases_record(rep.phases) +
                   list_record("disk_ns", rep.iod_disk_ns) +
                   list_record("iod_nic_ns", rep.iod_nic_ns) +
                   list_record("client_nic_ns", rep.client_nic_ns) + extra +
                   "\n" + rep.counters.to_string();
}

// bc-sync-write: Figure 6's block-column collective write with list I/O +
// ADS and sync, 4 clients x 4 iods, overwriting one file in a loop. Calls
// alternate between two seeded buffer sets so a dropped write is visible
// in the read-back.
Rep run_bc_sync_write(const Options& o, Tracer& tr, bool setup_only) {
  Rep rep;
  const double t_start = host_now();
  workloads::BlockColumnWorkload w;
  w.n = o.tiny ? 256 : 1024;
  const u32 calls = o.tiny ? 2 : 16;
  const u64 disp = displacement(o.seed);

  const std::unique_ptr<pvfs::Cluster> cl =
      build_cluster(ModelConfig::paper_defaults(),
                    pvfs::Cluster::Topology{}.clients(4).iods(4), tr, rep);
  pvfs::Cluster& c = *cl;
  mpiio::Communicator comm(c);
  Result<mpiio::File> fr = tr.run("mpiio", "File::create", &c, [&] {
    return mpiio::File::create(comm, "/bc");
  });
  if (!fr.is_ok()) {
    rep.error = "create failed: " + fr.status().to_string();
    return rep;
  }
  mpiio::File f = fr.value();

  std::vector<std::vector<mpiio::RankIo>> sets(2);
  std::vector<std::vector<std::vector<std::byte>>> patterns(2);
  std::vector<mpiio::RankIo> readback;
  for (int s = 0; s < 2; ++s) {
    for (int p = 0; p < w.procs; ++p) {
      pvfs::Client& cp = comm.rank(p);
      std::vector<std::byte> pat(w.share_bytes());
      fill_pattern(pat, stream_seed(o.seed, 1 + s, p));
      const u64 addr = cp.memory().alloc(pat.size());
      std::memcpy(cp.memory().data(addr), pat.data(), pat.size());
      mpiio::RankIo io = w.rank_io(p, addr);
      io.view = mpiio::FileView(disp, io.view.filetype());
      sets[s].push_back(io);
      patterns[s].push_back(std::move(pat));
    }
  }
  for (int p = 0; p < w.procs; ++p) {
    mpiio::RankIo io = sets[0][p];
    io.mem_addr = comm.rank(p).memory().alloc(w.share_bytes());
    readback.push_back(io);
  }
  std::vector<std::byte> base(kMaxDisplacement + w.file_bytes());
  fill_pattern(base, stream_seed(o.seed, 0));
  if (!tr.run("pvfs", "preload", &c, [&] { return preload(comm, f, base); })) {
    rep.error = "preload failed";
    return rep;
  }

  mpiio::Hints hints;
  hints.method = mpiio::IoMethod::kListIoAds;
  hints.sync = true;
  // Warm-up: one call per buffer set, so both sets' registrations are in
  // the pin-down caches before the measured phase.
  tr.run("mpiio", "warmup", &c, [&] {
    for (const auto& io : sets) f.write_all(io, hints);
  });
  rep.setup_s = host_now() - t_start;
  if (setup_only) return rep;

  measure_calls(c, f, sets, /*is_write=*/true, hints, calls, tr, rep);

  rep.verified = tr.run("mpiio", "verify", &c, [&] {
    mpiio::Hints rh;
    rh.method = mpiio::IoMethod::kListIo;
    for (const pvfs::IoResult& r : f.read_all(readback, rh)) {
      if (!r.ok()) {
        rep.error = "read-back failed: " + r.status.to_string();
        return false;
      }
    }
    const auto& last = patterns[(calls - 1) % 2];
    for (int p = 0; p < w.procs; ++p) {
      if (!same_bytes(last[p], comm.rank(p).memory().data(readback[p].mem_addr),
                      o.flip_byte && p == 0, &rep.error,
                      "rank " + std::to_string(p) + " read-back")) {
        return false;
      }
    }
    return true;
  });
  seal_record(rep, "");
  return rep;
}

// tile-read: Figure 8's mpi-tile-io 2x2 read of a 9 MiB frame with plain
// list I/O, the frame preloaded and warm in the iod page caches, re-read
// into the same rank buffers in a loop.
Rep run_tile_read(const Options& o, Tracer& tr, bool setup_only) {
  Rep rep;
  const double t_start = host_now();
  workloads::TileIoWorkload w;
  if (o.tiny) {
    w.tile_w = 128;
    w.tile_h = 96;
  }
  const u32 calls = o.tiny ? 2 : 24;
  const u64 disp = displacement(o.seed);

  const std::unique_ptr<pvfs::Cluster> cl =
      build_cluster(ModelConfig::paper_defaults(),
                    pvfs::Cluster::Topology{}.clients(4).iods(4), tr, rep);
  pvfs::Cluster& c = *cl;
  mpiio::Communicator comm(c);
  Result<mpiio::File> fr = tr.run("mpiio", "File::create", &c, [&] {
    return mpiio::File::create(comm, "/tile");
  });
  if (!fr.is_ok()) {
    rep.error = "create failed: " + fr.status().to_string();
    return rep;
  }
  mpiio::File f = fr.value();

  std::vector<std::byte> frame(kMaxDisplacement + w.frame_bytes());
  fill_pattern(frame, stream_seed(o.seed, 0));
  std::vector<std::vector<mpiio::RankIo>> sets(1);
  for (int p = 0; p < w.procs(); ++p) {
    pvfs::Client& cp = comm.rank(p);
    const u64 addr = cp.memory().alloc(w.tile_bytes());
    // Poison, so a read that moves nothing cannot pass verification.
    std::memset(cp.memory().data(addr), 0xA5, w.tile_bytes());
    mpiio::RankIo io = w.rank_io(p, addr);
    io.view = mpiio::FileView(disp, io.view.filetype());
    sets[0].push_back(io);
  }
  if (!tr.run("pvfs", "preload", &c, [&] { return preload(comm, f, frame); })) {
    rep.error = "preload failed";
    return rep;
  }

  mpiio::Hints hints;
  hints.method = mpiio::IoMethod::kListIo;
  tr.run("mpiio", "warmup", &c, [&] { f.read_all(sets[0], hints); });
  rep.setup_s = host_now() - t_start;
  if (setup_only) return rep;

  measure_calls(c, f, sets, /*is_write=*/false, hints, calls, tr, rep);

  rep.verified = tr.run("mpiio", "verify", &c, [&] {
    for (int p = 0; p < w.procs(); ++p) {
      const mpiio::RankIo& io = sets[0][p];
      std::vector<std::byte> expected;
      expected.reserve(io.bytes);
      for (const Extent& e : io.view.map_range(0, io.bytes)) {
        expected.insert(expected.end(), frame.begin() + e.offset,
                        frame.begin() + e.end());
      }
      if (!same_bytes(std::move(expected),
                      comm.rank(p).memory().data(io.mem_addr),
                      o.flip_byte && p == 0, &rep.error,
                      "rank " + std::to_string(p) + " tile")) {
        return false;
      }
    }
    return true;
  });
  seal_record(rep, "");
  return rep;
}

// mixed-load: the src/load Zipf op mix at 32 clients x 4 iods x 2 metadata
// shards with the manager CPU queue on — near the saturation knee, the one
// workload with concurrency, metadata and churn.
Rep run_mixed_load(const Options& o, Tracer& tr, bool setup_only) {
  Rep rep;
  const double t_start = host_now();
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.pvfs.meta_cpu_queue = true;
  const auto topo = pvfs::Cluster::Topology{}
                        .clients(o.tiny ? 4 : 32)
                        .iods(4)
                        .metadata_shards(2);
  load::LoadConfig lc;
  lc.seed = o.seed;
  lc.population = o.tiny ? 8 : 32;
  lc.file_bytes = o.tiny ? 64 * kKiB : 256 * kKiB;
  lc.ramp = Duration::ms(o.tiny ? 5.0 : 20.0);
  lc.measure = Duration::ms(o.tiny ? 20.0 : 600.0);
  lc.interval = Duration::ms(o.tiny ? 5.0 : 20.0);

  const std::unique_ptr<pvfs::Cluster> cl = build_cluster(cfg, topo, tr, rep);
  pvfs::Cluster& c = *cl;
  load::LoadEngine engine(c, lc);
  // LoadEngine::run creates and preloads its file population before the
  // first op, so that part of set-up is inside the measured call.
  rep.setup_s = host_now() - t_start;
  if (setup_only) return rep;

  const Snapshot before = snapshot(c);
  const double t0 = host_now();
  const load::LoadSummary sum =
      tr.run("load", "LoadEngine::run", &c, [&] { return engine.run(); });
  rep.measure_s = host_now() - t0;
  const Snapshot after = snapshot(c);

  record_deltas(before, after, rep);
  rep.ops = sum.ops;
  rep.failed = sum.ok ? 0 : 1;
  rep.user_bytes = sum.bytes;
  rep.sim_start = before.sim;
  rep.sim_end = after.sim;
  rep.latency = sum.latency;
  rep.data_latency = sum.data_latency;
  rep.meta_latency = sum.meta_latency;
  rep.ops_per_s = sum.ops_per_s;
  rep.mib_per_s = sum.mib_per_s;
  rep.fairness = sum.fairness;

  rep.verified = tr.run("load", "verify", &c, [&] {
    if (!sum.ok) {
      rep.error = "a load op failed";
      return false;
    }
    pvfs::Client& c0 = c.client(0);
    for (const std::string& name : engine.population_files()) {
      const Result<pvfs::OpenFile> r = c0.open(name);
      if (!r.is_ok() || r.value().meta.logical_size < lc.file_bytes) {
        rep.error = "population file lost: " + name;
        return false;
      }
    }
    for (const std::string& name : engine.live_churn_files()) {
      if (!c0.open(name).is_ok()) {
        rep.error = "live churn file does not open: " + name;
        return false;
      }
    }
    bool first = true;
    for (const std::string& name : engine.removed_churn_files()) {
      // The smoke test's flip: expect the first removed file to be live.
      const bool expect_live = o.flip_byte && first;
      first = false;
      if (c0.open(name).is_ok() != expect_live) {
        rep.error = "removed churn file state wrong: " + name;
        return false;
      }
    }
    if (o.flip_byte && first) {
      rep.error = "flip requested but no churn file was removed";
      return false;
    }
    return true;
  });
  seal_record(rep, " load[" + sum.fingerprint() + "]");
  return rep;
}

// --- Metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// LatencyHistogram reports a quantile as the midpoint of its log bucket
// (up to 6.25% wide), so quantiles move in steps. Interpolate by rank
// inside the bucket that holds the quantile's rank, using the histogram's
// layout: exact below 16 ns, then 16 sub-buckets per power-of-two octave.
double quantile_us(const LatencyHistogram& h, double p) {
  const u64 n = h.count();
  if (n == 0) return 0.0;
  struct Bucket {
    u64 idx, lo, width;
  };
  auto bucket = [](i64 ns) {
    const u64 v = static_cast<u64>(std::max<i64>(ns, 0));
    if (v < 16) return Bucket{v, v, 1};
    const u32 e = 63 - static_cast<u32>(std::countl_zero(v));
    const u64 sub = (v >> (e - 4)) & 15;
    return Bucket{(e - 3) * 16 + sub, (16 + sub) << (e - 4), u64{1} << (e - 4)};
  };
  // Value at 1-based rank k (LatencyHistogram rounds p*n+0.5 down).
  auto at = [&](u64 k) {
    return h.quantile((static_cast<double>(k) - 0.25) / static_cast<double>(n))
        .as_ns();
  };
  const u64 rank = std::clamp<u64>(
      static_cast<u64>(p * static_cast<double>(n) + 0.5), 1, n);
  const Bucket b = bucket(at(rank));
  u64 lo = 1, hi = rank;
  while (lo < hi) {
    const u64 mid = (lo + hi) / 2;
    if (bucket(at(mid)).idx < b.idx) lo = mid + 1; else hi = mid;
  }
  const u64 first = lo;
  lo = rank;
  hi = n;
  while (lo < hi) {
    const u64 mid = (lo + hi + 1) / 2;
    if (bucket(at(mid)).idx > b.idx) hi = mid - 1; else lo = mid;
  }
  const double frac = (static_cast<double>(rank - first) + 0.5) /
                      static_cast<double>(lo - first + 1);
  const double ns = std::clamp(static_cast<double>(b.lo) +
                                   static_cast<double>(b.width) * frac,
                               static_cast<double>(h.min().as_ns()),
                               static_cast<double>(h.max().as_ns()));
  return ns / 1e3;
}

double nearest_rank_us(std::vector<i64> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(p * static_cast<double>(v.size()) + 0.5), 1,
      v.size());
  return static_cast<double>(v[rank - 1]) / 1e3;
}

double mean_frac(const std::vector<i64>& busy_ns, double span_s) {
  double sum = 0.0;
  for (i64 b : busy_ns) sum += static_cast<double>(b);
  return busy_ns.empty() ? 0.0
                         : ratio(sum / 1e9 / static_cast<double>(busy_ns.size()),
                                 span_s);
}

double max_frac(const std::vector<i64>& busy_ns, double span_s) {
  i64 m = 0;
  for (i64 b : busy_ns) m = std::max(m, b);
  return ratio(static_cast<double>(m) / 1e9, span_s);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double host_us_per_op(const Rep& r) {
  return ratio(r.measure_s * 1e6, static_cast<double>(r.ops));
}

template <class F>
double median_of(const std::vector<const Rep*>& reps, F&& f) {
  std::vector<double> v;
  for (const Rep* r : reps) v.push_back(f(*r));
  return median(v);
}

std::vector<Metric> end_to_end(const Rep& r0,
                               const std::vector<const Rep*>& host_reps,
                               bool collective,
                               const std::vector<double>& setups,
                               double rss_mib) {
  const double span = r0.sim_span_s();
  const double ops = static_cast<double>(r0.ops);
  return {
      {"sim_mib_s",
       collective ? ratio(static_cast<double>(r0.user_bytes) / kMiB, span)
                  : r0.mib_per_s,
       "MiB/s"},
      {"sim_ops_s", collective ? ratio(ops, span) : r0.ops_per_s, "1/s"},
      {"sim_p50_us",
       collective ? nearest_rank_us(r0.op_sim_ns, 0.50)
                  : quantile_us(r0.latency, 0.50),
       "us"},
      {"sim_p99_us",
       collective ? nearest_rank_us(r0.op_sim_ns, 0.99)
                  : quantile_us(r0.latency, 0.99),
       "us"},
      {"host_us_per_op", median_of(host_reps, host_us_per_op), "us"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };
}

std::vector<Metric> per_layer(const Rep& r0,
                              const std::vector<const Rep*>& host_reps,
                              const std::vector<const Rep*>& traced_reps) {
  const double ops = static_cast<double>(r0.ops);
  const double bytes = static_cast<double>(r0.user_bytes);
  const double span = r0.sim_span_s();
  const Stats& s = r0.counters;
  auto g = [&](const char* k) { return static_cast<double>(s.get(k)); };
  auto per_op_us = [&](Duration d) { return ratio(d.as_us(), ops); };
  std::vector<double> call_ms;
  for (const Rep* r : host_reps) {
    call_ms.insert(call_ms.end(), r->call_host_ms.begin(),
                   r->call_host_ms.end());
  }
  const double mr_lookups = g(stat::kMrCacheHit) + g(stat::kMrCacheMiss);
  const double cache_bytes = g(stat::kCacheHitBytes) + g(stat::kCacheMissBytes);
  return {
      {"sim.events_per_op", ratio(static_cast<double>(r0.events), ops),
       "events/op"},
      {"sim.host_ns_per_event", median_of(host_reps, [](const Rep& r) {
         return ratio(r.measure_s * 1e9, static_cast<double>(r.events));
       }),
       "ns"},
      {"sim.latency_samples", static_cast<double>(r0.latency.count()),
       "count"},
      {"pvfs.cluster_ctor_s",
       median_of(host_reps, [](const Rep& r) { return r.ctor_s; }), "s"},
      {"pvfs.requests_per_op", ratio(g(stat::kPvfsRequest), ops), "req/op"},
      {"pvfs.phase.registration_us", per_op_us(r0.phases.registration), "us"},
      {"pvfs.phase.wire_us", per_op_us(r0.phases.wire), "us"},
      {"pvfs.phase.disk_us", per_op_us(r0.phases.disk), "us"},
      {"pvfs.phase.stall_us", per_op_us(r0.phases.stall), "us"},
      {"pvfs.iod_disk_busy_frac_mean", mean_frac(r0.iod_disk_ns, span), "frac"},
      {"pvfs.iod_disk_busy_frac_max", max_frac(r0.iod_disk_ns, span), "frac"},
      {"pvfs.meta_p99_us", quantile_us(r0.meta_latency, 0.99), "us"},
      {"pvfs.data_p99_us", quantile_us(r0.data_latency, 0.99), "us"},
      {"pvfs.retries", g(stat::kPvfsRetries), "count"},
      {"mpiio.call_host_ms", median(call_ms), "ms"},
      {"ib.client_nic_busy_frac", mean_frac(r0.client_nic_ns, span), "frac"},
      {"ib.iod_nic_busy_frac", mean_frac(r0.iod_nic_ns, span), "frac"},
      {"ib.rdma_per_op", ratio(g(stat::kRdmaWrite) + g(stat::kRdmaRead), ops),
       "wr/op"},
      {"ib.mr.register_per_op", ratio(g(stat::kMrRegister), ops), "reg/op"},
      {"ib.mr.cache_hit_ratio", ratio(g(stat::kMrCacheHit), mr_lookups),
       "ratio"},
      {"ib.control_bytes_per_byte", ratio(g(stat::kNetBytesControl), bytes),
       "B/B"},
      {"core.ogr.groups_per_op", ratio(g(stat::kOgrGroups), ops), "groups/op"},
      {"core.ogr.fallbacks", g(stat::kOgrFallbacks), "count"},
      {"core.ogr.hole_queries", g(stat::kOgrOsQueries), "count"},
      {"core.ads.sieved", g(stat::kAdsSieved), "count"},
      {"core.ads.separate", g(stat::kAdsSeparate), "count"},
      {"core.ads.useful_ratio", ratio(bytes, bytes + g(stat::kAdsExtraBytes)),
       "ratio"},
      {"disk.seeks_per_op", ratio(g(stat::kDiskSeek), ops), "seeks/op"},
      {"disk.write_amplification", ratio(g(stat::kDiskWriteBytes), bytes),
       "B/B"},
      {"disk.cache_hit_ratio", ratio(g(stat::kCacheHitBytes), cache_bytes),
       "ratio"},
      {"load.fairness", r0.fairness, "jain"},
      {"trace.host_overhead_frac",
       ratio(median_of(traced_reps, host_us_per_op),
             median_of(host_reps, host_us_per_op)) - 1.0,
       "frac"},
  };
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{bc-sync-write|tile-read|mixed-load} [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR] [--tiny] [--flip-byte]\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  const double origin = host_now();
  // A fixed mmap threshold turns off glibc's adaptive one, so every large
  // allocation (iod staging, backing stores) is fresh from the kernel and
  // each repetition pays first-touch costs as a fresh process does,
  // instead of whatever earlier repetitions left in the heap.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--flip-byte") {
      o.flip_byte = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out-dir") {
      o.out_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  Rep (*workload)(const Options&, Tracer&, bool) = nullptr;
  if (o.workload == "bc-sync-write") workload = run_bc_sync_write;
  if (o.workload == "tile-read") workload = run_tile_read;
  if (o.workload == "mixed-load") workload = run_mixed_load;
  if (workload == nullptr) return usage("unknown workload");
  const bool collective = o.workload != "mixed-load";

  // Repeat until the budget is spent: at least three untraced repetitions
  // for the host medians, and with --trace every other one traced.
  Tracer tr(origin);
  std::vector<Rep> reps;
  // Set-up time is the noisiest host number (page faults dominate it), so
  // untraced runs follow each repetition with one more set-up alone.
  std::vector<double> setups;
  double rss_mib = 0.0;
  const u32 min_reps = o.trace ? 4 : 3;
  while (reps.size() < min_reps || host_now() - origin < o.seconds) {
    const u32 i = static_cast<u32>(reps.size());
    tr.set_enabled(o.trace && i % 2 == 1, i);
    reps.push_back(workload(o, tr, /*setup_only=*/false));
    // The high-water mark of one repetition: later ones reuse its memory,
    // but how much the allocator keeps varies with their number.
    if (i == 0) rss_mib = peak_rss_mib();
    if (!reps.back().verified) break;
    if (!o.trace) {
      setups.push_back(reps.back().setup_s);
      setups.push_back(workload(o, tr, /*setup_only=*/true).setup_s);
    }
  }

  const Rep& r0 = reps.front();
  bool correct = true;
  std::string error;
  u64 attempted = 0, failed = 0;
  std::vector<const Rep*> host_reps, traced_reps;
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    attempted += r.ops;
    failed += r.failed;
    (o.trace && i % 2 == 1 ? traced_reps : host_reps).push_back(&r);
    if (!r.verified) {
      correct = false;
      error = r.error;
    } else if (r.sim_record != r0.sim_record) {
      correct = false;
      error = "repetition " + std::to_string(i) +
              " diverged from the first: the simulation is not deterministic";
    }
  }
  correct = correct && failed == 0 && attempted > 0;
  const u64 fingerprint = fnv1a(r0.sim_record);

  const std::vector<Metric> metrics =
      o.trace ? per_layer(r0, host_reps, traced_reps)
              : end_to_end(r0, host_reps, collective, setups, rss_mib);

  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  std::printf("workload %s  seed %llu  repetitions %zu  ops/repetition %llu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              reps.size(), static_cast<unsigned long long>(r0.ops));
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("sim_fingerprint %s\n", fp);
  if (!correct) std::printf("VERIFICATION FAILED: %s\n", error.c_str());

  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + (o.trace ? "-trace" : "");
  {
    std::ofstream out(stem + ".json");
    out << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
        << ", \"repetitions\": " << reps.size() << ", \"sim_fingerprint\": \""
        << fp << "\", \"correct\": " << (correct ? "true" : "false")
        << ", \"metrics\": " << metrics_json(metrics) << ", \"host_s\": [";
    for (size_t i = 0; i < reps.size(); ++i) {
      out << (i ? ", " : "") << "{\"setup\": " << num(reps[i].setup_s)
          << ", \"ctor\": " << num(reps[i].ctor_s)
          << ", \"measure\": " << num(reps[i].measure_s) << "}";
    }
    out << "]}\n";
  }
  if (o.trace) {
    const std::string path = stem + ".chrome.json";
    if (!tr.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace %s (%zu spans)\n", path.c_str(), tr.span_count());
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pvfsib::perfbench

int main(int argc, char** argv) { return pvfsib::perfbench::run(argc, argv); }
