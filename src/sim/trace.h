// Lightweight virtual-time event trace. Disabled by default (zero cost
// beyond a branch); when enabled, protocol layers record what happened at
// which simulated time into a bounded ring. Examples expose it behind a
// --trace flag; tests use it to assert protocol structure.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>

#include "common/sim_time.h"

namespace pvfsib::sim {

class Trace {
 public:
  struct Entry {
    TimePoint at;
    std::string who;
    std::string what;
  };

  static Trace& instance() {
    static Trace t;
    return t;
  }

  void enable(size_t capacity = 4096) {
    enabled_ = true;
    capacity_ = capacity;
  }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // `who` and `what` are views: the Entry's strings are built only when
  // tracing is on, so a disabled emit site allocates nothing.
  void emit(TimePoint at, std::string_view who, std::string_view what) {
    if (!enabled_) return;
    if (ring_.size() >= capacity_) {
      ring_.pop_front();
      ++dropped_;
    }
    ring_.push_back(Entry{at, std::string(who), std::string(what)});
  }

  void emitf(TimePoint at, std::string_view who, const char* fmt, ...)
      __attribute__((format(printf, 4, 5))) {
    if (!enabled_) return;
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    emit(at, who, buf);
  }

  const std::deque<Entry>& entries() const { return ring_; }
  u64 dropped() const { return dropped_; }

  void clear() {
    ring_.clear();
    dropped_ = 0;
  }

  void dump(FILE* out, size_t last_n = 64) const {
    const size_t start = ring_.size() > last_n ? ring_.size() - last_n : 0;
    for (size_t i = start; i < ring_.size(); ++i) {
      const Entry& e = ring_[i];
      std::fprintf(out, "%12.2f us  %-10s %s\n", e.at.as_us(),
                   e.who.c_str(), e.what.c_str());
    }
    if (dropped_ > 0) {
      std::fprintf(out, "  (%llu earlier entries dropped)\n",
                   static_cast<unsigned long long>(dropped_));
    }
  }

 private:
  Trace() = default;
  bool enabled_ = false;
  size_t capacity_ = 4096;
  std::deque<Entry> ring_;
  u64 dropped_ = 0;
};

}  // namespace pvfsib::sim
