// LatencyHistogram quantile math, IntervalSeries window deltas, and the
// Stats registry checked step by step against a name-keyed map.
#include "common/stats.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace pvfsib {
namespace {

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5).as_ns(), 0);
  EXPECT_EQ(h.mean().as_ns(), 0);
  EXPECT_EQ(h.min().as_ns(), 0);
  EXPECT_EQ(h.max().as_ns(), 0);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Values below 16 ns land in exact unit buckets.
  LatencyHistogram h;
  for (i64 v : {1, 2, 3, 5, 8, 13}) h.record(Duration::ns(v));
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min().as_ns(), 1);
  EXPECT_EQ(h.max().as_ns(), 13);
  EXPECT_EQ(h.quantile(0.0).as_ns(), 1);
  EXPECT_EQ(h.quantile(1.0).as_ns(), 13);
  EXPECT_EQ(h.quantile(0.5).as_ns(), 3);
}

TEST(LatencyHistogram, SingleValue) {
  LatencyHistogram h;
  h.record(Duration::us(123.0));
  for (double p : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.quantile(p).as_ns(), 123000) << "p=" << p;
  }
  EXPECT_EQ(h.mean().as_ns(), 123000);
}

TEST(LatencyHistogram, QuantilesAreMonotone) {
  LatencyHistogram h;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    h.record(Duration::ns(static_cast<i64>(rng.below(1'000'000) + 1)));
  }
  Duration prev = Duration::zero();
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const Duration q = h.quantile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
  EXPECT_GE(h.quantile(1.0), h.mean());
}

TEST(LatencyHistogram, BoundedRelativeError) {
  // The bucket midpoint is at most half a bucket width (6.25%/2 of the
  // value) away from the recorded sample; min/max clamping can only help.
  for (i64 v : {17LL, 100LL, 999LL, 4096LL, 123456LL, 7654321LL,
                987654321LL}) {
    LatencyHistogram h;
    h.record(Duration::ns(v));
    const i64 got = h.quantile(0.5).as_ns();
    const double rel =
        std::abs(static_cast<double>(got - v)) / static_cast<double>(v);
    EXPECT_LE(rel, 0.0625) << "v=" << v << " got=" << got;
  }
}

TEST(LatencyHistogram, UniformQuantileSanity) {
  // 1..N uniform: p-quantile should sit near p*N within bucket resolution.
  LatencyHistogram h;
  const i64 n = 100000;
  for (i64 v = 1; v <= n; ++v) h.record(Duration::ns(v));
  for (double p : {0.5, 0.9, 0.99}) {
    const double got = static_cast<double>(h.quantile(p).as_ns());
    const double want = p * static_cast<double>(n);
    EXPECT_NEAR(got / want, 1.0, 0.07) << "p=" << p;
  }
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, all;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const i64 v = static_cast<i64>(rng.below(1'000'000) + 1);
    (i % 2 == 0 ? a : b).record(Duration::ns(v));
    all.record(Duration::ns(v));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min().as_ns(), all.min().as_ns());
  EXPECT_EQ(a.max().as_ns(), all.max().as_ns());
  EXPECT_EQ(a.mean().as_ns(), all.mean().as_ns());
  for (double p : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(a.quantile(p).as_ns(), all.quantile(p).as_ns()) << "p=" << p;
  }
}

TEST(IntervalSeries, WindowsDeltaTheSource) {
  Stats s;
  IntervalSeries series(&s, TimePoint::origin());
  s.add(stat::kPvfsRequest, 5);
  series.close_window(TimePoint::from_ns(100));
  s.add(stat::kPvfsRequest, 2);
  s.add(stat::kPvfsReply, 7);
  series.close_window(TimePoint::from_ns(250));
  series.close_window(TimePoint::from_ns(300));  // empty window

  ASSERT_EQ(series.windows().size(), 3u);
  EXPECT_EQ(series.windows()[0].delta.get(stat::kPvfsRequest), 5);
  EXPECT_EQ(series.windows()[0].delta.get(stat::kPvfsReply), 0);
  EXPECT_EQ(series.windows()[1].delta.get(stat::kPvfsRequest), 2);
  EXPECT_EQ(series.windows()[1].delta.get(stat::kPvfsReply), 7);
  EXPECT_EQ(series.windows()[2].delta.get(stat::kPvfsRequest), 0);
  EXPECT_EQ(series.windows()[0].start.as_ns(), 0);
  EXPECT_EQ(series.windows()[0].end.as_ns(), 100);
  EXPECT_EQ(series.windows()[1].start.as_ns(), 100);
  EXPECT_EQ(series.windows()[1].end.as_ns(), 250);
}

TEST(IntervalSeries, RatePerSec) {
  Stats s;
  IntervalSeries series(&s, TimePoint::origin());
  s.add(stat::kPvfsRequest, 500);
  series.close_window(TimePoint::origin() + Duration::ms(100.0));
  // 500 requests in 100 ms = 5000/s.
  EXPECT_NEAR(series.rate_per_sec(0, "pvfs.request"), 5000.0, 1e-9);
  EXPECT_EQ(series.rate_per_sec(0, "missing"), 0.0);
}

// --- the counter registry against the name-keyed map it replaced ---------

// Every stat::Id, in table order.
constexpr auto kAllIds = []<size_t... I>(std::index_sequence<I...>) {
  return std::array<stat::Id, stat::kCount>{stat::Id(stat::kNames[I])...};
}(std::make_index_sequence<stat::kCount>{});

constexpr bool names_distinct() {
  for (size_t i = 0; i < stat::kNames.size(); ++i) {
    for (size_t j = i + 1; j < stat::kNames.size(); ++j) {
      if (stat::kNames[i] == stat::kNames[j]) return false;
    }
  }
  return true;
}
static_assert(stat::kNames.size() == stat::kCount && names_distinct(),
              "the name table holds kCount distinct names");

// The map-backed registry with its semantics: a write by name first creates
// the key at 0, and diff keeps this side's keys whose difference is nonzero.
struct MapStats {
  std::map<std::string, i64, std::less<>> m;

  i64 get(const std::string& name) const {
    const auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  }
  MapStats diff(const MapStats& base) const {
    MapStats out;
    for (const auto& [k, v] : m) {
      if (v != base.get(k)) out.m[k] = v - base.get(k);
    }
    return out;
  }
  std::string to_string() const {
    std::string out;
    for (const auto& [k, v] : m) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%-32s %lld\n", k.c_str(),
                    static_cast<long long>(v));
      out += buf;
    }
    return out;
  }
  std::vector<std::pair<std::string, i64>> counters() const {
    return {m.begin(), m.end()};
  }
};

// Output, and every counter's value and touched bit read by id and by name.
// kNames and the map are both in name order, so one pass pairs them up.
void expect_same(const Stats& s, const MapStats& ref) {
  ASSERT_EQ(s.to_string(), ref.to_string());
  ASSERT_EQ(s.counters(), ref.counters());
  auto it = ref.m.begin();
  for (const stat::Id id : kAllIds) {
    const std::string_view name = stat::kNames[id.index()];
    const bool present = it != ref.m.end() && it->first == name;
    const i64 want = present ? (it++)->second : 0;
    // One check per counter keeps thousands of steps cheap under sanitizers.
    if (s.get(id) != want || s.get(name) != want || s.touched(id) != present) {
      FAIL() << name << ": get(id) " << s.get(id) << ", get(name) "
             << s.get(name) << ", touched " << s.touched(id) << "; map value "
             << want << ", present " << present;
    }
  }
  ASSERT_TRUE(it == ref.m.end());
  ASSERT_EQ(s.get("no.such.counter"), 0);
}

// Random steps over every counter, each mirrored into the map: add (zero and
// negative deltas included), set, set_max, clear, copy-assign to and from a
// snapshot, and replacing the registry by its diff against the snapshot.
// After every step the two agree, and so do their diffs against the
// snapshot. Each instance runs ten of seeds 1-50, so ctest can run them side
// by side; PVFS_PROPERTY_SEED=<n> makes an instance replay seed n alone.
class StatsProperty : public ::testing::TestWithParam<u64> {};

TEST_P(StatsProperty, MatchesNameKeyedMapUnderRandomSteps) {
  u64 first = GetParam(), last = GetParam() + 9;
  if (const char* env = std::getenv("PVFS_PROPERTY_SEED")) {
    first = last = std::strtoull(env, nullptr, 10);
  }
  for (u64 seed = first; seed <= last; ++seed) {
    SCOPED_TRACE("PVFS_PROPERTY_SEED=" + std::to_string(seed));
    Rng rng(seed);
    Stats s, snap;
    MapStats ref, ref_snap;
    for (int step = 0; step < 2000; ++step) {
      const stat::Id id = kAllIds[rng.below(stat::kCount)];
      const std::string name(id);
      // Small values: a few thousand steps stay far from i64 overflow.
      const i64 v =
          rng.chance(0.2) ? 0 : static_cast<i64>(rng.range(0, 2000)) - 1000;
      const u64 op = rng.below(100);
      if (op < 45) {
        s.add(id, v);
        ref.m[name] += v;
      } else if (op < 60) {
        s.set(id, v);
        ref.m[name] = v;
      } else if (op < 80) {
        s.set_max(id, v);
        i64& r = ref.m[name];
        if (v > r) r = v;
      } else if (op < 88) {
        snap = s;
        ref_snap = ref;
      } else if (op < 93) {
        s = snap;
        ref = ref_snap;
      } else if (op < 98) {
        s = s.diff(snap);
        ref = ref.diff(ref_snap);
      } else {
        s.clear();
        ref.m.clear();
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(s, ref)) << "step " << step;
      ASSERT_EQ(s.diff(snap).counters(), ref.diff(ref_snap).counters())
          << "step " << step;
    }
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty,
                         ::testing::Range<u64>(1, 51, 10));

}  // namespace
}  // namespace pvfsib
