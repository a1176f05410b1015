#include "common/stats.h"

#include <cstdio>

namespace pvfsib {

template <typename F>
void Stats::for_each_touched(F&& f) const {
  for (u32 w = 0; w < touched_.size(); ++w) {
    for (u64 bits = touched_[w]; bits != 0; bits &= bits - 1) {
      f(w * 64 + static_cast<u32>(std::countr_zero(bits)));
    }
  }
}

i64 Stats::get(std::string_view name) const {
  const auto it = std::ranges::lower_bound(stat::kNames, name);
  if (it == stat::kNames.end() || *it != name) return 0;
  return values_[static_cast<size_t>(it - stat::kNames.begin())];
}

std::vector<std::pair<std::string, i64>> Stats::counters() const {
  std::vector<std::pair<std::string, i64>> out;
  for_each_touched(
      [&](u32 i) { out.emplace_back(stat::kNames[i], values_[i]); });
  return out;
}

Stats Stats::diff(const Stats& base) const {
  Stats out;
  for_each_touched([&](u32 i) {
    const i64 d = values_[i] - base.values_[i];
    if (d != 0) out.touch(i) = d;
  });
  return out;
}

std::string Stats::to_string() const {
  std::string out;
  for_each_touched([&](u32 i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-32s %lld\n", stat::kNames[i].data(),
                  static_cast<long long>(values_[i]));
    out += buf;
  });
  return out;
}

}  // namespace pvfsib
