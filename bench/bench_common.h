// Shared helpers for the paper-reproduction benches: aligned table output,
// cluster workload runners, and cache-state setup. Every bench prints the
// rows/series of one table or figure from the paper's evaluation section.
#pragma once

#include <errno.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "mpiio/mpio_file.h"
#include "pvfs/cluster.h"
#include "sim/engine.h"
#include "workloads/block_column.h"
#include "workloads/tile_io.h"

namespace pvfsib::bench {

// --- host cost ------------------------------------------------------------

// What running this bench cost the host: wall time, peak RSS and simulated
// events, written at exit into BENCH_sim.json as one row under the bench's
// name. Rows of other benches already in the file are kept, so running
// every bench in one directory builds the whole table. It goes to a file,
// not stdout, so figure output stays byte-identical across runs.
class HostCostRecord {
 public:
  HostCostRecord() = default;
  HostCostRecord(const HostCostRecord&) = delete;
  HostCostRecord& operator=(const HostCostRecord&) = delete;

  ~HostCostRecord() {
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_)
                              .count();
    const u64 events = sim::Engine::thread_events_processed();
    const std::string name = program_invocation_short_name;
    char row[512];
    std::snprintf(row, sizeof(row),
                  "\"%s\": {\"wall_ms\": %.1f, \"peak_rss_mib\": %.1f, "
                  "\"events\": %llu, \"events_per_s\": %.0f}",
                  name.c_str(), wall_s * 1e3, peak_rss_mib(),
                  static_cast<unsigned long long>(events),
                  wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0);
    std::map<std::string, std::string> rows;
    std::ifstream in(kPath);
    for (std::string line; std::getline(in, line);) {
      if (line.size() < 2 || line[0] != '"') continue;  // header, footer
      if (line.back() == ',') line.pop_back();
      rows[line.substr(1, line.find('"', 1) - 1)] = line;
    }
    in.close();
    rows[name] = row;
    std::ofstream out(kPath);
    out << "{\"bench\": \"sim\", \"runs\": {\n";
    size_t i = 0;
    for (const auto& [n, r] : rows) {
      out << r << (++i < rows.size() ? ",\n" : "\n");
    }
    out << "}}\n";
  }

 private:
  static constexpr const char* kPath = "BENCH_sim.json";

  static double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0.0;
  }

  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

inline HostCostRecord host_cost_record;

// --- formatting -------------------------------------------------------

inline std::string fmt(double v, int prec = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt_int(i64 v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

class Table {
 public:
  explicit Table(std::vector<std::string> cols) : cols_(std::move(cols)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<size_t> w(cols_.size());
    for (size_t i = 0; i < cols_.size(); ++i) w[i] = cols_[i].size();
    for (const auto& r : rows_) {
      for (size_t i = 0; i < r.size(); ++i) w[i] = std::max(w[i], r[i].size());
    }
    auto line = [&](const std::vector<std::string>& cells) {
      for (size_t i = 0; i < cells.size(); ++i) {
        std::printf("%s%-*s", i ? "  " : "  ", static_cast<int>(w[i]),
                    cells[i].c_str());
      }
      std::printf("\n");
    };
    line(cols_);
    std::string dash;
    for (size_t i = 0; i < cols_.size(); ++i) {
      dash += std::string(w[i], '-') + "  ";
    }
    std::printf("  %s\n", dash.c_str());
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> cols_;
  std::vector<std::vector<std::string>> rows_;
};

inline void header(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("\n");
}

// --- machine-readable output ---------------------------------------------

// Minimal streaming JSON writer for the BENCH_*.json files: nesting and
// comma placement are handled once here instead of ad hoc in every bench.
// Output is deterministic (fixed printf formatting), so identical runs
// emit bit-identical files.
class JsonWriter {
 public:
  JsonWriter() { open_scope('{'); }

  JsonWriter& field(const char* key, const std::string& v) {
    std::string quoted;
    quoted.reserve(v.size() + 2);
    quoted += '"';
    quoted += escape(v);
    quoted += '"';
    scalar(key, quoted);
    return *this;
  }
  JsonWriter& field(const char* key, const char* v) {
    return field(key, std::string(v));
  }
  JsonWriter& field(const char* key, bool v) {
    scalar(key, v ? "true" : "false");
    return *this;
  }
  JsonWriter& field(const char* key, double v, int prec = 3) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    scalar(key, buf);
    return *this;
  }
  JsonWriter& field(const char* key, i64 v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    scalar(key, buf);
    return *this;
  }
  JsonWriter& field(const char* key, u64 v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    scalar(key, buf);
    return *this;
  }
  JsonWriter& field(const char* key, u32 v) {
    return field(key, static_cast<u64>(v));
  }
  JsonWriter& field(const char* key, int v) {
    return field(key, static_cast<i64>(v));
  }

  JsonWriter& begin_object(const char* key = nullptr) {
    prefix(key);
    open_scope('{');
    return *this;
  }
  JsonWriter& end_object() {
    close_scope('}');
    return *this;
  }
  JsonWriter& begin_array(const char* key = nullptr) {
    prefix(key);
    open_scope('[');
    return *this;
  }
  JsonWriter& end_array() {
    close_scope(']');
    return *this;
  }

  // Close any scopes still open (including the root) and return the text.
  const std::string& str() {
    while (!stack_.empty()) close_scope(stack_.back() == '{' ? '}' : ']');
    return out_;
  }

  // Finish the document and write it to `path`. Returns false (with a
  // message on stderr) when the file cannot be written.
  bool write_file(const char* path) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return false;
    }
    std::fputs(str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return true;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  void prefix(const char* key) {
    if (!first_) out_ += ",";
    out_ += "\n";
    out_.append(stack_.size() * 2, ' ');
    if (key != nullptr) {
      out_ += "\"";
      out_ += key;
      out_ += "\": ";
    }
    first_ = false;
  }
  void scalar(const char* key, const std::string& text) {
    prefix(key);
    out_ += text;
  }
  void open_scope(char c) {
    out_ += c;
    stack_.push_back(c);
    first_ = true;
  }
  void close_scope(char c) {
    stack_.pop_back();
    out_ += "\n";
    out_.append(stack_.size() * 2, ' ');
    out_ += c;
    first_ = false;
  }

  std::string out_;
  std::vector<char> stack_;
  bool first_ = true;
};

// --- workload runners ----------------------------------------------------

struct RunOutcome {
  Duration makespan = Duration::zero();
  double mbps = 0.0;  // aggregate bandwidth over all ranks
  u64 bytes = 0;
  bool ok = true;
};

// Aggregate outcome of a collective-style all-rank operation.
inline RunOutcome summarize(const std::vector<pvfs::IoResult>& results) {
  RunOutcome out;
  TimePoint lo = TimePoint::from_ns(INT64_MAX);
  TimePoint hi = TimePoint::origin();
  for (const pvfs::IoResult& r : results) {
    out.ok = out.ok && r.ok();
    out.bytes += r.bytes;
    lo = r.start < lo ? r.start : lo;
    hi = max(hi, r.end);
  }
  out.makespan = hi - lo;
  out.mbps = bandwidth_mib(out.bytes, out.makespan);
  return out;
}

// Preload the block-column (or any) file with `bytes` of data so reads have
// something to fetch: rank 0 writes the whole file contiguously.
inline void preload_file(mpiio::Communicator& comm, mpiio::File& file,
                         u64 bytes) {
  pvfs::Client& c = comm.rank(0);
  const u64 chunk = 64 * kMiB;
  const u64 buf = c.memory().alloc(std::min(bytes, chunk));
  for (u64 off = 0; off < bytes; off += chunk) {
    const u64 n = std::min(chunk, bytes - off);
    pvfs::IoResult r = c.write(file.handle(0), off, buf, n);
    if (!r.ok()) {
      std::fprintf(stderr, "preload failed: %s\n", r.status.to_string().c_str());
      return;
    }
  }
}

// Run the Figure 6/7 block-column access with one method.
inline RunOutcome run_block_column(pvfs::Cluster& cluster, u64 n,
                                   mpiio::IoMethod method, bool is_write,
                                   bool sync, bool cold_cache) {
  mpiio::Communicator comm(cluster);
  workloads::BlockColumnWorkload w;
  w.n = n;
  static int file_seq = 0;
  Result<mpiio::File> file =
      mpiio::File::create(comm, "/bc" + std::to_string(file_seq++));
  if (!file.is_ok()) return {};
  mpiio::File f = file.value();
  // The paper's benchmark loops over an existing file: writes overwrite
  // real data (the RMW cycle reads it) and reads have data to fetch.
  preload_file(comm, f, w.file_bytes());
  if (cold_cache) cluster.drop_all_caches();

  std::vector<mpiio::RankIo> io(4);
  for (int p = 0; p < 4; ++p) {
    pvfs::Client& c = comm.rank(p);
    io[p] = w.rank_io(p, c.memory().alloc(w.share_bytes()));
  }
  mpiio::Hints hints;
  hints.method = method;
  hints.sync = sync;
  const auto results =
      is_write ? f.write_all(io, hints) : f.read_all(io, hints);
  return summarize(results);
}

// Run the Figure 8/9 tiled access with one method.
inline RunOutcome run_tile_io(pvfs::Cluster& cluster, mpiio::IoMethod method,
                              bool is_write, bool sync, bool cold_cache) {
  mpiio::Communicator comm(cluster);
  workloads::TileIoWorkload w;
  static int file_seq = 0;
  Result<mpiio::File> file =
      mpiio::File::create(comm, "/tile" + std::to_string(file_seq++));
  if (!file.is_ok()) return {};
  mpiio::File f = file.value();
  if (!is_write) preload_file(comm, f, w.frame_bytes());
  if (cold_cache) cluster.drop_all_caches();

  std::vector<mpiio::RankIo> io(4);
  for (int p = 0; p < 4; ++p) {
    pvfs::Client& c = comm.rank(p);
    io[p] = w.rank_io(p, c.memory().alloc(w.tile_bytes()));
  }
  mpiio::Hints hints;
  hints.method = method;
  hints.sync = sync;
  const auto results =
      is_write ? f.write_all(io, hints) : f.read_all(io, hints);
  return summarize(results);
}

}  // namespace pvfsib::bench
