// st::obs unit suite: metric primitive correctness (counters, gauges,
// fixed-bucket histograms, scoped timers), registry handle stability,
// interval snapshots, JSONL well-formedness (every emitted line must
// parse as a JSON object), the disabled-mode no-op contract (no file, no
// snapshots, values frozen at zero), a concurrent-increment test that
// the TSan CI job runs to certify the lock-free mutation paths, and the
// social cache's per-boundary fields on the plugin's interval event.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/socialtrust.hpp"
#include "graph/social_graph.hpp"
#include "obs/obs.hpp"
#include "reputation/paper_eigentrust.hpp"

namespace st::obs {
namespace {

// --- minimal JSON validator -------------------------------------------------
// Just enough of RFC 8259 to certify the sink's output: objects, arrays,
// strings with escapes, numbers, true/false/null. Returns true iff the
// whole input is exactly one valid JSON value.

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool literal(const char* word) {
    for (; *word; ++word, ++p_) {
      if (p_ == end_ || *p_ != *word) return false;
    }
    return true;
  }
  bool value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++p_;  // '{'
    skip_ws();
    if (p_ != end_ && *p_ == '}') return ++p_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == '}') return ++p_, true;
      if (*p_ != ',') return false;
      ++p_;
    }
  }
  bool array() {
    ++p_;  // '['
    skip_ws();
    if (p_ != end_ && *p_ == ']') return ++p_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ']') return ++p_, true;
      if (*p_ != ',') return false;
      ++p_;
    }
  }
  bool string() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (static_cast<unsigned char>(*p_) < 0x20) return false;  // raw ctrl
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        switch (*p_) {
          case '"': case '\\': case '/': case 'b': case 'f':
          case 'n': case 'r': case 't':
            ++p_;
            break;
          case 'u': {
            ++p_;
            for (int k = 0; k < 4; ++k, ++p_) {
              if (p_ == end_ || !std::isxdigit(
                                    static_cast<unsigned char>(*p_))) {
                return false;
              }
            }
            break;
          }
          default:
            return false;
        }
      } else {
        ++p_;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
      return false;
    }
    while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
        return false;
      }
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) {
        ++p_;
      }
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
        return false;
      }
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) {
        ++p_;
      }
    }
    return p_ != start;
  }

  const char* p_;
  const char* end_;
};

bool valid_json(const std::string& line) { return JsonCursor(line).parse(); }

// --- fixture ----------------------------------------------------------------

/// Every test starts enabled (in-memory only) and leaves the process-wide
/// obs instance disabled, whatever happened inside.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StObsConfig cfg;
    cfg.enabled = true;
    Obs::instance().configure(cfg);
  }
  void TearDown() override { Obs::instance().configure({}); }

  std::string temp_path(const std::string& name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
  }
};

TEST_F(ObsTest, CounterAccumulates) {
  Counter& c = Obs::instance().registry().counter("test.counter_acc");
  EXPECT_EQ(c.value(), 0U);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42U);
}

TEST_F(ObsTest, GaugeSetAndDelta) {
  Gauge& g = Obs::instance().registry().gauge("test.gauge");
  g.set(10);
  g.add(-3);
  g.add(5);
  EXPECT_EQ(g.value(), 12);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST_F(ObsTest, RegistryReturnsSameInstanceForSameName) {
  Registry& r = Obs::instance().registry();
  EXPECT_EQ(&r.counter("test.same"), &r.counter("test.same"));
  EXPECT_EQ(&r.gauge("test.same"), &r.gauge("test.same"));
  EXPECT_EQ(&r.histogram("test.same"), &r.histogram("test.same"));
  EXPECT_NE(&r.counter("test.same"), &r.counter("test.other"));
}

TEST_F(ObsTest, HistogramBucketBoundariesAreInclusiveUpper) {
  Histogram& h = Obs::instance().registry().histogram(
      "test.hist_bounds", {1.0, 10.0, 100.0});
  // One value per region: below first bound, exactly on bounds (upper is
  // inclusive), between bounds, and beyond the last bound (+inf bucket).
  for (double v : {0.5, 1.0, 5.0, 10.0, 50.0, 1000.0}) h.record(v);

  HistogramValue snap = h.value();
  EXPECT_EQ(snap.count, 6U);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 5.0 + 10.0 + 50.0 + 1000.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  ASSERT_EQ(snap.buckets.size(), 4U);  // three bounds + the +inf bucket
  EXPECT_DOUBLE_EQ(snap.buckets[0].upper, 1.0);
  EXPECT_EQ(snap.buckets[0].count, 2U);  // 0.5, 1.0
  EXPECT_EQ(snap.buckets[1].count, 2U);  // 5.0, 10.0
  EXPECT_EQ(snap.buckets[2].count, 1U);  // 50.0
  EXPECT_EQ(snap.buckets[3].count, 1U);  // 1000.0
  EXPECT_TRUE(std::isinf(snap.buckets[3].upper));
}

TEST_F(ObsTest, HistogramDefaultLatencyBuckets) {
  Histogram& h = Obs::instance().registry().histogram("test.hist_default");
  EXPECT_GT(h.upper_bounds().size(), 10U);
  for (std::size_t i = 1; i < h.upper_bounds().size(); ++i) {
    EXPECT_LT(h.upper_bounds()[i - 1], h.upper_bounds()[i]) << i;
  }
}

TEST_F(ObsTest, ScopedTimerRecordsOneSample) {
  Histogram& h = Obs::instance().registry().histogram("test.hist_timer");
  {
    ScopedTimer t(h);
  }
  EXPECT_EQ(h.count(), 1U);

  ScopedTimer t2(h);
  double us = t2.stop();
  EXPECT_GE(us, 0.0);
  EXPECT_EQ(t2.stop(), 0.0);  // idempotent: no second sample
  EXPECT_EQ(h.count(), 2U);
}

TEST_F(ObsTest, EmitIntervalRetainsOrderedSnapshots) {
  Obs& obs = Obs::instance();
  Counter& c = obs.registry().counter("test.emit_counter");
  c.add(3);
  const ExtraField extras[] = {{"pairs", 7.0}, {"weight", 0.5}};
  EXPECT_EQ(obs.emit_interval("test.scope", "labelled", extras), 1U);
  c.add(2);
  EXPECT_EQ(obs.emit_interval("test.scope"), 2U);

  auto snaps = obs.snapshots();
  ASSERT_EQ(snaps.size(), 2U);
  EXPECT_EQ(snaps[0].sequence, 1U);
  EXPECT_EQ(snaps[0].scope, "test.scope");
  EXPECT_EQ(snaps[0].label, "labelled");
  ASSERT_EQ(snaps[0].extras.size(), 2U);
  EXPECT_EQ(snaps[0].extras[0].first, "pairs");
  EXPECT_DOUBLE_EQ(snaps[0].extras[0].second, 7.0);

  auto counter_value = [](const Snapshot& s, const std::string& name) {
    for (const auto& [n, v] : s.counters) {
      if (n == name) return v;
    }
    return std::uint64_t{0};
  };
  EXPECT_EQ(counter_value(snaps[0], "test.emit_counter"), 3U);
  EXPECT_EQ(counter_value(snaps[1], "test.emit_counter"), 5U);

  // Snapshot metric names arrive sorted (registry iterates a std::map).
  for (std::size_t i = 1; i < snaps[1].counters.size(); ++i) {
    EXPECT_LT(snaps[1].counters[i - 1].first, snaps[1].counters[i].first);
  }
}

TEST_F(ObsTest, JsonlSinkWritesOneValidObjectPerLine) {
  const std::string path = temp_path("obs_test_events.jsonl");
  std::remove(path.c_str());
  StObsConfig cfg;
  cfg.enabled = true;
  cfg.jsonl_path = path;
  Obs::instance().configure(cfg);

  Registry& r = Obs::instance().registry();
  r.counter("test.jsonl_counter").add(11);
  r.gauge("test.jsonl_gauge").set(-4);
  Histogram& h = r.histogram("test.jsonl_hist", {1.0, 1000.0});
  h.record(0.25);
  h.record(5000.0);  // lands in the +inf bucket -> serialised as null
  const ExtraField extras[] = {{"cycle", 3.0}};
  Obs::instance().emit_interval("test.jsonl", "quote\"and\\slash", extras);
  Obs::instance().emit_interval("test.jsonl");
  Obs::instance().flush();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(valid_json(line)) << "line " << lines << ": " << line;
    EXPECT_EQ(line.front(), '{');
  }
  EXPECT_EQ(lines, 2U);

  // Spot-check the schema fields the docs promise.
  std::ifstream reread(path);
  std::getline(reread, line);
  EXPECT_NE(line.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(line.find("\"scope\":\"test.jsonl\""), std::string::npos);
  EXPECT_NE(line.find("\"cycle\":3"), std::string::npos);
  EXPECT_NE(line.find("\"test.jsonl_counter\":11"), std::string::npos);
  EXPECT_NE(line.find("\"test.jsonl_gauge\":-4"), std::string::npos);
  EXPECT_NE(line.find("\"test.jsonl_hist\""), std::string::npos);
  EXPECT_NE(line.find("[null,1]"), std::string::npos);  // +inf bucket

  std::remove(path.c_str());
}

TEST_F(ObsTest, DisabledModeIsATrueNoOp) {
  const std::string path = temp_path("obs_test_disabled.jsonl");
  std::remove(path.c_str());
  StObsConfig cfg;
  cfg.enabled = false;
  cfg.jsonl_path = path;  // must NOT be created while disabled
  Obs::instance().configure(cfg);
  EXPECT_FALSE(enabled());

  Registry& r = Obs::instance().registry();
  Counter& c = r.counter("test.disabled_counter");
  Gauge& g = r.gauge("test.disabled_gauge");
  Histogram& h = r.histogram("test.disabled_hist");
  c.add(100);
  g.set(5);
  { ScopedTimer t(h); }
  h.record(1.0);
  EXPECT_EQ(c.value(), 0U);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0U);

  EXPECT_EQ(Obs::instance().emit_interval("test.disabled"), 0U);
  EXPECT_EQ(Obs::instance().snapshot_count(), 0U);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(ObsTest, RetainsOnlyTheMostRecentSnapshots) {
  Obs& obs = Obs::instance();
  const std::string path = temp_path("obs_ring.jsonl");
  StObsConfig cfg;
  cfg.enabled = true;
  cfg.jsonl_path = path;
  obs.configure(cfg);
  constexpr std::size_t kEmitted = Obs::kMaxSnapshots + 3;
  for (std::size_t i = 0; i < kEmitted; ++i) obs.emit_interval("test.ring");
  EXPECT_EQ(obs.snapshot_count(), Obs::kMaxSnapshots);

  // The sink still received every event.
  obs.flush();
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, kEmitted);

  // The three oldest are gone; the rest run on without a gap.
  const auto snaps = obs.snapshots();
  ASSERT_EQ(snaps.size(), Obs::kMaxSnapshots);
  EXPECT_EQ(snaps.front().sequence, 4U);
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    ASSERT_EQ(snaps[i].sequence, snaps[i - 1].sequence + 1) << i;
  }
  EXPECT_EQ(snaps.back().sequence, kEmitted);
}

/// The socialtrust.update event says what the social cache's boundary
/// did: how many nodes' adjacency rows changed since the previous
/// interval, and how many source rows that released. Both read 0 while
/// the structure epoch holds and are positive after a whitewash.
TEST_F(ObsTest, SocialTrustUpdateReportsWhatEachBoundaryReleased) {
  constexpr std::size_t kNodes = 6;
  graph::SocialGraph g(kNodes);
  for (const auto& [a, b] : {std::pair<graph::NodeId, graph::NodeId>{0, 1},
                             {1, 2}, {2, 3}, {3, 4}, {4, 5}}) {
    g.add_relationship(a, b, graph::Relationship::kFriendship);
  }
  core::InterestProfiles profiles(kNodes, 2);
  core::SocialTrustConfig cfg;
  cfg.threads = 1;
  core::SocialTrustPlugin plugin(
      std::make_unique<reputation::PaperEigenTrust>(
          kNodes, std::vector<reputation::NodeId>{0},
          reputation::PaperEigenTrustConfig{}),
      g, profiles, cfg);
  // Every rater rates a node at least 3 hops away, so each interval makes
  // path lookups.
  const std::vector<reputation::Rating> ratings = {
      {0, 3, 1.0, 0, 0, 0}, {5, 1, 1.0, 0, 0, 1}, {2, 5, 1.0, 0, 0, 0}};
  // (social_cache_changed_nodes, social_cache_released) of one update.
  const auto boundary = [&] {
    plugin.update(ratings);
    const Snapshot snap = Obs::instance().snapshots().back();
    EXPECT_EQ(snap.scope, "socialtrust.update");
    std::pair<double, double> out{-1.0, -1.0};
    for (const auto& [key, value] : snap.extras) {
      if (key == "social_cache_changed_nodes") out.first = value;
      if (key == "social_cache_released") out.second = value;
    }
    return out;
  };

  EXPECT_EQ(boundary(), std::make_pair(0.0, 0.0));  // the first boundary
  EXPECT_EQ(boundary(), std::make_pair(0.0, 0.0));  // the epoch held

  // Node 5 whitewashes and its new identity befriends 0: 4, 5 and 0 have
  // changed rows, and every node is within reach of them.
  plugin.forget_node(5);
  g.clear_node(5);
  g.add_relationship(5, 0, graph::Relationship::kKinship);
  EXPECT_EQ(boundary(), std::make_pair(3.0, 6.0));
  EXPECT_EQ(boundary(), std::make_pair(0.0, 0.0));  // held again
}

TEST_F(ObsTest, ReconfigureResetsValuesAndSequence) {
  Obs& obs = Obs::instance();
  Counter& c = obs.registry().counter("test.reset_counter");
  c.add(9);
  obs.emit_interval("test.reset");
  ASSERT_EQ(obs.snapshot_count(), 1U);

  StObsConfig cfg;
  cfg.enabled = true;
  obs.configure(cfg);  // handles survive, values and snapshots do not
  EXPECT_EQ(c.value(), 0U);
  EXPECT_EQ(obs.snapshot_count(), 0U);
  EXPECT_EQ(obs.emit_interval("test.reset"), 1U);  // sequence restarts
}

TEST_F(ObsTest, ConcurrentIncrementsAreExact) {
  // The TSan CI job runs this test to certify the relaxed-atomic mutation
  // paths: N threads hammer one counter, one gauge, and one histogram.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Registry& r = Obs::instance().registry();
  Counter& c = r.counter("test.mt_counter");
  Gauge& g = r.gauge("test.mt_gauge");
  Histogram& h = r.histogram("test.mt_hist", {0.5});

  // st-lint: allow(CON-1 deliberately raw threads - certifies the atomic paths under unpooled contention)
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        g.add(t % 2 == 0 ? 1 : -1);
        h.record(static_cast<double>(i % 2));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(g.value(), 0);
  HistogramValue snap = h.value();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(snap.buckets.size(), 2U);
  EXPECT_EQ(snap.buckets[0].count, snap.buckets[1].count);  // half 0s, half 1s
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 1.0);
  EXPECT_DOUBLE_EQ(snap.sum,
                   static_cast<double>(kThreads) * kPerThread / 2.0);
}

}  // namespace
}  // namespace st::obs
