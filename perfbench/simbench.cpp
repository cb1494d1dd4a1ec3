// Cycle-level benchmark program.
//
// Runs full sim::Simulator simulations of one workload in the default
// configuration (centralized aggregation, dirty-pair schedule, one thread,
// obs off) and writes what it measured as JSON lines on stdout. Time is
// taken from outside the program by forwarding ReputationSystem decorators
// (TimedSystem) at the seam SocialTrustPlugin already has: one around the
// system under test and, in traced simulations only, one around the inner
// system the plugin wraps. Work counts come from existing public accessors.
// A fixed calibration kernel runs between simulations, so run.py can scale
// times to the reference machine speed. run.py builds this program, passes
// the workload config and turns the records into metrics; see README.md.
//
// Modes:
//   run      --seeds s1,s2,..  [--traced 1] [--setups n] [--spans p]
//   digest   --seed s          one simulation without any decorator
//   selftest                   checks the output check on injected faults
// Workload flags (run, digest): --nodes --active-min --active-max
//   --colluder-b --cycles --system --attack

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "collusion/models.hpp"
#include "collusion/whitewashing.hpp"
#include "core/socialtrust.hpp"
#include "reputation/eigentrust.hpp"
#include "sim/factories.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"

namespace {

using st::reputation::NodeId;
using st::reputation::Rating;
using st::reputation::ReputationSystem;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- machine-speed calibration ----------------------------------------------

/// A fixed kernel that gauges how fast the machine runs at a moment: one
/// pass of a 1000 x 1000 dense matrix-vector product, 8 MB of cache and
/// memory traffic. On a shared host its time drifts with the program's
/// own, in phases of seconds to minutes; run.py divides each simulation's
/// times by how much longer than its reference time the kernel took just
/// before and just after that simulation. It runs between simulations,
/// never inside a timed interval, and only after the memory reading.
class Calibration {
 public:
  Calibration() : matrix_(kDim * kDim), vec_(kDim, 1.0 / kDim), out_(kDim) {
    for (std::size_t i = 0; i < matrix_.size(); ++i) {
      matrix_[i] = 1.0 / static_cast<double>(1 + i % 97);
    }
  }

  /// Median time of kPasses timed passes. An untimed pass first brings
  /// the matrix into cache, so the reading does not depend on what ran
  /// before; the median drops a pass the scheduler interrupted.
  std::int64_t measure() {
    pass();
    std::int64_t ns[kPasses];
    for (auto& t : ns) {
      const std::int64_t t0 = now_ns();
      pass();
      t = now_ns() - t0;
    }
    std::nth_element(ns, ns + kPasses / 2, ns + kPasses);
    return ns[kPasses / 2];
  }

 private:
  void pass() {
    for (std::size_t r = 0; r < kDim; ++r) {
      const double* row = &matrix_[r * kDim];
      double acc = 0.0;
      for (std::size_t c = 0; c < kDim; ++c) acc += row[c] * vec_[c];
      out_[r] = acc;
    }
    sink_ = sink_ + out_[kDim - 1];
  }

  static constexpr std::size_t kDim = 1000;
  static constexpr int kPasses = 5;
  std::vector<double> matrix_, vec_, out_;
  volatile double sink_ = 0.0;  // keeps the passes observable
};

// ---- workload -------------------------------------------------------------

struct Workload {
  st::sim::SimConfig sim;
  bool kamvar = false;     ///< bare EigenTrust(Kamvar), no plugin
  bool whitewash = false;  ///< WhitewashingCollusion instead of MMM
};

Workload parse_workload(const st::util::CliArgs& args) {
  Workload w;
  w.sim.node_count = args.get_u64("nodes", w.sim.node_count);
  w.sim.active_prob_min = args.get_double("active-min", w.sim.active_prob_min);
  w.sim.active_prob_max = args.get_double("active-max", w.sim.active_prob_max);
  w.sim.colluder_authentic =
      args.get_double("colluder-b", w.sim.colluder_authentic);
  w.sim.simulation_cycles = args.get_u64("cycles", w.sim.simulation_cycles);
  const std::string system = args.get_or("system", "EigenTrust+SocialTrust");
  const std::string attack = args.get_or("attack", "MMM");
  if (system == "EigenTrust(Kamvar)") {
    w.kamvar = true;
  } else if (system != "EigenTrust+SocialTrust") {
    throw std::invalid_argument("unknown --system " + system);
  }
  if (attack == "Whitewashing") {
    w.whitewash = true;
  } else if (attack != "MMM") {
    throw std::invalid_argument("unknown --attack " + attack);
  }
  return w;
}

std::unique_ptr<st::sim::CollusionStrategy> make_strategy(const Workload& w) {
  if (w.whitewash) {
    st::collusion::WhitewashingOptions options;
    options.max_whitewashes = std::numeric_limits<std::uint32_t>::max();
    return std::make_unique<st::collusion::WhitewashingCollusion>(options);
  }
  return std::make_unique<st::collusion::MutualMultiNodeCollusion>();
}

// ---- output checks and digest ---------------------------------------------

/// Empty when `reps` is a valid republished vector of `n` nodes, else the
/// first rule it breaks. An all-zero vector is valid (no positive evidence
/// yet); any other must sum to 1.
std::string check_reputations(std::span<const double> reps, std::size_t n) {
  if (reps.size() != n) return "size";
  double sum = 0.0;
  for (double r : reps) {
    if (!std::isfinite(r)) return "non-finite";
    if (r < 0.0) return "negative";
    sum += r;
  }
  if (sum != 0.0 && std::abs(sum - 1.0) > 1e-9) return "sum";
  return {};
}

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a over the final reputation bits, the last interval's flagged
/// pairs and the RunResult totals.
std::string digest(const st::sim::RunResult& result,
                   const st::core::SocialTrustPlugin* plugin) {
  Fnv1a h;
  for (double r : result.final_reputation) h.f64(r);
  if (plugin) {
    for (const auto& f : plugin->last_report().flagged) {
      h.u64(f.rater);
      h.u64(f.ratee);
      h.u64(static_cast<std::uint64_t>(f.behavior));
      h.f64(f.weight);
    }
  }
  for (std::uint64_t v :
       {result.total_requests, result.requests_to_colluders,
        result.requests_to_pretrusted, result.authentic_services,
        result.inauthentic_services, result.fake_ratings}) {
    h.u64(v);
  }
  return h.hex();
}

// ---- recording ------------------------------------------------------------

enum SpanName : std::uint8_t {
  kCycle,
  kQuery,
  kCoreUpdate,
  kCoreForget,
  kRepUpdate,
  kRepForget,
};
constexpr const char* kSpanNames[] = {"cycle",       "sim.query",
                                      "core.update", "core.forget",
                                      "reputation.update",
                                      "reputation.forget"};

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint32_t cycle = 0;
  SpanName name = kCycle;
};

/// What one simulation cycle did. Times are wall nanoseconds; layer times
/// come from the spans. The traced block is filled only in traced
/// simulations.
struct CycleRecord {
  std::int64_t cycle_ns = 0;
  std::int64_t update_ns = 0;  ///< system under test update()
  std::uint64_t ratings = 0;
  std::uint64_t reads = 0;    ///< reputation()/reputations() calls
  std::uint64_t forgets = 0;  ///< forget_node() calls

  // traced only
  std::uint64_t pairs_total = 0, pairs_dirty = 0, pairs_carried = 0;
  std::uint64_t raters_rebuilt = 0, raters_carried = 0, flagged = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_invalidations = 0;
  std::uint64_t cache_structure_misses = 0, cache_entries = 0;
  std::uint64_t csr_rebuilds = 0, iterations = 0, graph_bytes = 0;
};

/// The accessors a simulation's decorators read after each interval. Set
/// by the factory; the Simulator owns everything they point into.
struct Probe {
  const st::core::SocialTrustPlugin* plugin = nullptr;
  const st::reputation::EigenTrust* eigentrust = nullptr;
  const st::graph::SocialGraph* graph = nullptr;
  const ReputationSystem* system = nullptr;  ///< the system under test
};

/// Per-simulation sink of the decorators: cycle boundaries, spans (traced
/// only, kept in memory), per-cycle records and output-check failures.
/// A cycle runs from the end of the previous interval's bookkeeping to the
/// return of update(); the bookkeeping itself (checks, counters) happens
/// between the two and is excluded from every time.
class Recorder {
 public:
  explicit Recorder(bool traced) : traced_(traced) {}

  bool traced() const noexcept { return traced_; }
  Probe& probe() noexcept { return probe_; }

  void start() { resume(now_ns()); }

  /// Drops the cycle the last resume() opened; Simulator::run has returned.
  void finish() {
    if (traced_) {
      spans_.resize(static_cast<std::size_t>(cycle_span_));
      stack_.clear();
    }
  }

  void update_begin(std::int64_t t, SpanName name) {
    update_start_ = t;
    if (traced_) {
      close(query_span_, t);
      update_span_ = open(name, t);
    }
  }

  void update_end(std::int64_t t, std::size_t ratings) {
    if (traced_) {
      close(update_span_, t);
      close(cycle_span_, t);
    }
    cur_.cycle_ns = t - cycle_start_;
    cur_.update_ns = t - update_start_;
    cur_.ratings = ratings;
    after_interval();
    records_.push_back(cur_);
    cur_ = CycleRecord{};
    ++cycle_;
    resume(now_ns());
  }

  std::int32_t open(SpanName name, std::int64_t t) {
    if (!traced_) return -1;
    Span s;
    s.start = t;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.cycle = cycle_;
    s.name = name;
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(std::int32_t span, std::int64_t t) {
    if (!traced_) return;
    if (stack_.empty() || stack_.back() != span)
      throw std::logic_error("perfbench: unbalanced span");
    spans_[static_cast<std::size_t>(span)].end = t;
    stack_.pop_back();
  }

  CycleRecord& current() noexcept { return cur_; }
  const std::vector<CycleRecord>& records() const noexcept { return records_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  void resume(std::int64_t t) {
    cycle_start_ = t;
    if (traced_) {
      cycle_span_ = open(kCycle, t);
      query_span_ = open(kQuery, t);
    }
  }

  /// Output checks on the republished vector, then (traced) work counts.
  void after_interval() {
    const auto* sys = probe_.system;
    std::string bad = check_reputations(sys->reputations(), sys->size());
    const auto* plugin = probe_.plugin;
    if (bad.empty() && plugin) {
      const auto& d = plugin->last_dirty_stats();
      if (d.pairs_dirty + d.pairs_carried != plugin->last_report().pairs_total)
        bad = "dirty+carried!=total";
    }
    if (!bad.empty())
      failures_.push_back("cycle " + std::to_string(cycle_) + ": " + bad);
    if (!traced_) return;

    if (plugin) {
      const auto& report = plugin->last_report();
      const auto& d = plugin->last_dirty_stats();
      cur_.pairs_total = report.pairs_total;
      cur_.flagged = report.pairs_flagged;
      cur_.pairs_dirty = d.pairs_dirty;
      cur_.pairs_carried = d.pairs_carried;
      cur_.raters_rebuilt = d.raters_rebuilt;
      cur_.raters_carried = d.raters_carried;
      const auto& cache = plugin->social_cache();
      const auto s = cache.stats();
      cur_.cache_hits = s.hits - cache_prev_.hits;
      cur_.cache_misses = s.misses - cache_prev_.misses;
      cur_.cache_invalidations = s.invalidations - cache_prev_.invalidations;
      cur_.cache_structure_misses =
          s.structure_misses - cache_prev_.structure_misses;
      cache_prev_ = s;
      cur_.cache_entries = cache.size();
    }
    if (probe_.eigentrust) {
      cur_.iterations = probe_.eigentrust->last_iterations();
    }
    const auto rebuilds = probe_.graph->rebuild_count();
    cur_.csr_rebuilds = rebuilds - rebuilds_prev_;
    rebuilds_prev_ = rebuilds;
    cur_.graph_bytes = probe_.graph->memory_footprint().total();
  }

  bool traced_;
  Probe probe_;
  std::int64_t cycle_start_ = 0;
  std::int64_t update_start_ = 0;
  std::uint32_t cycle_ = 0;
  CycleRecord cur_;
  std::vector<CycleRecord> records_;
  std::vector<std::string> failures_;

  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int32_t cycle_span_ = 0;
  std::int32_t query_span_ = 0;
  std::int32_t update_span_ = 0;

  st::core::SocialStateCache::StatsSnapshot cache_prev_;
  std::uint64_t rebuilds_prev_ = 0;
};

/// Forwarding decorator that times update() and forget_node(). The outer
/// instance (around the system under test) also marks cycle boundaries,
/// counts reputation reads and triggers the per-interval checks; an inner
/// instance only records its spans and times.
class TimedSystem final : public ReputationSystem {
 public:
  TimedSystem(std::unique_ptr<ReputationSystem> wrapped, Recorder& recorder,
              bool outer, SpanName update_name, SpanName forget_name)
      : wrapped_(std::move(wrapped)),
        recorder_(recorder),
        outer_(outer),
        update_name_(update_name),
        forget_name_(forget_name) {}

  std::string_view name() const noexcept override { return wrapped_->name(); }
  std::size_t size() const noexcept override { return wrapped_->size(); }

  void update(std::span<const Rating> cycle_ratings) override {
    const std::int64_t t0 = now_ns();
    std::int32_t span = -1;
    if (outer_) {
      recorder_.update_begin(t0, update_name_);
    } else {
      span = recorder_.open(update_name_, t0);
    }
    wrapped_->update(cycle_ratings);
    const std::int64_t t1 = now_ns();
    if (outer_) {
      recorder_.update_end(t1, cycle_ratings.size());
    } else {
      recorder_.close(span, t1);
    }
  }

  double reputation(NodeId node) const override {
    if (outer_) ++recorder_.current().reads;
    return wrapped_->reputation(node);
  }
  std::span<const double> reputations() const noexcept override {
    if (outer_) ++recorder_.current().reads;
    return wrapped_->reputations();
  }
  void reset() override { wrapped_->reset(); }

  void forget_node(NodeId node) override {
    const std::int32_t span = recorder_.open(forget_name_, now_ns());
    wrapped_->forget_node(node);
    recorder_.close(span, now_ns());
    if (outer_) ++recorder_.current().forgets;
  }

 private:
  std::unique_ptr<ReputationSystem> wrapped_;
  Recorder& recorder_;
  bool outer_;
  SpanName update_name_;
  SpanName forget_name_;
};

/// The workload's system, exactly as system_by_name("EigenTrust+SocialTrust")
/// or make_eigentrust_factory() builds it. With a recorder it is wrapped in
/// the outer decorator, and in traced simulations the plugin's inner system
/// in a second one; `plugin` receives the plugin (null for bare systems).
st::sim::SystemFactory make_factory(
    const Workload& w, Recorder* recorder,
    const st::core::SocialTrustPlugin** plugin) {
  auto inner = w.kamvar ? st::sim::make_eigentrust_factory()
                        : st::sim::make_paper_eigentrust_factory();
  const bool kamvar = w.kamvar;
  return [inner, kamvar, recorder, plugin](
             const st::graph::SocialGraph& graph,
             const st::core::InterestProfiles& profiles,
             const std::vector<NodeId>& pretrusted,
             std::size_t n) -> std::unique_ptr<ReputationSystem> {
    std::unique_ptr<ReputationSystem> sys =
        inner(graph, profiles, pretrusted, n);
    const auto* eigentrust =
        dynamic_cast<const st::reputation::EigenTrust*>(sys.get());
    if (!kamvar) {
      if (recorder && recorder->traced()) {
        sys = std::make_unique<TimedSystem>(std::move(sys), *recorder, false,
                                            kRepUpdate, kRepForget);
      }
      auto p = std::make_unique<st::core::SocialTrustPlugin>(
          std::move(sys), graph, profiles, st::core::SocialTrustConfig{});
      *plugin = p.get();
      sys = std::move(p);
    }
    if (!recorder) return sys;
    Probe& probe = recorder->probe();
    probe.plugin = *plugin;
    probe.eigentrust = eigentrust;
    probe.graph = &graph;
    probe.system = sys.get();
    return std::make_unique<TimedSystem>(
        std::move(sys), *recorder, true, kamvar ? kRepUpdate : kCoreUpdate,
        kamvar ? kRepForget : kCoreForget);
  };
}

// ---- modes ----------------------------------------------------------------

std::vector<std::uint64_t> parse_seeds(const std::string& csv) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stoull(tok));
  }
  return out;
}

struct Line {
  std::ostringstream os;
  explicit Line(const char* rec) { os << "{\"rec\":\"" << rec << '"'; }
  template <class T>
  Line& kv(const char* key, const T& value) {
    os << ",\"" << key << "\":" << value;
    return *this;
  }
  Line& str(const char* key, const std::string& value) {
    os << ",\"" << key << "\":\"" << value << '"';
    return *this;
  }
  void emit() { std::cout << os.str() << "}\n"; }
};

/// One decorated simulation: setup time, per-cycle records, checks, digest.
void run_sim(const Workload& w, std::uint64_t seed, std::size_t index,
             bool traced, std::vector<Span>& spans_out,
             std::vector<std::size_t>& span_sims) {
  Recorder recorder(traced);
  const st::core::SocialTrustPlugin* plugin = nullptr;
  const std::int64_t t0 = now_ns();
  st::sim::Simulator sim(w.sim, make_factory(w, &recorder, &plugin),
                         make_strategy(w), seed);
  const std::int64_t setup_ns = now_ns() - t0;
  recorder.start();
  const st::sim::RunResult result = sim.run();
  recorder.finish();

  const auto& records = recorder.records();
  for (std::size_t c = 0; c < records.size(); ++c) {
    const CycleRecord& r = records[c];
    Line line("cycle");
    line.kv("sim", index).kv("traced", traced ? 1 : 0).kv("cycle", c);
    line.kv("cycle_ns", r.cycle_ns).kv("update_ns", r.update_ns);
    line.kv("ratings", r.ratings);
    line.kv("reads", r.reads).kv("forgets", r.forgets);
    if (traced) {
      line.kv("pairs_total", r.pairs_total)
          .kv("pairs_dirty", r.pairs_dirty)
          .kv("pairs_carried", r.pairs_carried)
          .kv("raters_rebuilt", r.raters_rebuilt)
          .kv("raters_carried", r.raters_carried)
          .kv("flagged", r.flagged)
          .kv("cache_hits", r.cache_hits)
          .kv("cache_misses", r.cache_misses)
          .kv("cache_invalidations", r.cache_invalidations)
          .kv("cache_structure_misses", r.cache_structure_misses)
          .kv("cache_entries", r.cache_entries)
          .kv("csr_rebuilds", r.csr_rebuilds)
          .kv("iterations", r.iterations)
          .kv("graph_bytes", r.graph_bytes);
    }
    line.emit();
  }
  for (const auto& f : recorder.failures()) {
    Line("failure").kv("sim", index).str("what", f).emit();
  }
  Line("sim")
      .kv("sim", index)
      .kv("traced", traced ? 1 : 0)
      .kv("seed", seed)
      .kv("setup_ns", setup_ns)
      .kv("attempted", records.size())
      .kv("failed", recorder.failures().size())
      .str("digest", digest(result, plugin))
      .emit();
  spans_out.insert(spans_out.end(), recorder.spans().begin(),
                   recorder.spans().end());
  span_sims.resize(spans_out.size(), index);
}

/// Writes the traced simulations' spans, one JSON object per line; parent
/// is the id (line number) of the enclosing span, -1 for cycle spans.
void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::size_t>& sims) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::size_t base = 0;  // first id of the current simulation
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && sims[i] != sims[i - 1]) base = i;
    const Span& s = spans[i];
    const long long parent =
        s.parent < 0 ? -1 : static_cast<long long>(base) + s.parent;
    out << "{\"id\":" << i << ",\"name\":\"" << kSpanNames[s.name]
        << "\",\"start\":" << s.start << ",\"end\":" << s.end
        << ",\"parent\":" << parent << ",\"sim\":" << sims[i]
        << ",\"cycle\":" << s.cycle << "}\n";
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

int mode_run(const st::util::CliArgs& args) {
  const Workload w = parse_workload(args);
  const auto seeds = parse_seeds(args.get_or("seeds", ""));
  const bool traced = args.get_int("traced", 0) != 0;
  const auto setups = static_cast<std::size_t>(args.get_u64("setups", 0));
  if (seeds.empty()) throw std::invalid_argument("--seeds is empty");

  // With --traced, each seed also runs traced, alternating which of the
  // pair goes first, so trace overhead compares identical work.
  std::vector<Span> spans;
  std::vector<std::size_t> span_sims;
  std::size_t index = 0;
  // Made after the memory reading, which its matrix would otherwise join.
  std::optional<Calibration> calibration;
  auto calibrate = [&] {
    if (calibration) Line("cal").kv("cal_ns", calibration->measure()).emit();
  };
  auto simulate = [&](std::uint64_t seed, bool traced_sim) {
    run_sim(w, seed, index++, traced_sim, spans, span_sims);
    calibrate();
  };
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    const bool traced_first = traced && k % 2 == 1;
    if (traced_first) simulate(seeds[k], true);
    simulate(seeds[k], false);
    if (traced && !traced_first) simulate(seeds[k], true);
    if (k > 0) continue;
    // The first seed is the reference input: the peak RSS it leaves is
    // the memory figure, so that figure does not move with the inputs
    // the other seeds bring. Extra set-ups (constructor only) follow on
    // the warm heap for a steadier setup_s median.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    Line("rss").kv("peak_rss_kb", usage.ru_maxrss).emit();
    calibration.emplace();
    calibrate();
    for (std::size_t i = 0; i < setups; ++i) {
      const st::core::SocialTrustPlugin* plugin = nullptr;
      const std::int64_t t0 = now_ns();
      st::sim::Simulator sim(w.sim, make_factory(w, nullptr, &plugin),
                             make_strategy(w), seeds[i % seeds.size()]);
      Line("setup").kv("setup_ns", now_ns() - t0).emit();
    }
    calibrate();
  }
  if (auto path = args.get("spans"); path && !path->empty()) {
    write_spans(*path, spans, span_sims);
  }
  return 0;
}

int mode_digest(const st::util::CliArgs& args) {
  const Workload w = parse_workload(args);
  const st::core::SocialTrustPlugin* plugin = nullptr;
  st::sim::Simulator sim(w.sim, make_factory(w, nullptr, &plugin),
                         make_strategy(w), args.get_u64("seed", 1));
  const auto result = sim.run();
  Line("digest").str("digest", digest(result, plugin)).emit();
  return 0;
}

int mode_selftest() {
  struct Case {
    const char* what;
    std::vector<double> reps;
    const char* expect;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Case cases[] = {
      {"valid", {0.25, 0.5, 0.25}, ""},
      {"no evidence yet", {0.0, 0.0, 0.0}, ""},
      {"injected NaN", {0.5, nan, 0.5}, "non-finite"},
      {"injected +inf", {0.5, std::numeric_limits<double>::infinity(), 0.0},
       "non-finite"},
      {"negative entry", {0.6, -0.1, 0.5}, "negative"},
      {"does not sum to 1", {0.5, 0.25, 0.2}, "sum"},
      {"off by 1e-8", {0.5, 0.5 + 1e-8, 0.0}, "sum"},
      {"wrong size", {0.5, 0.5}, "size"},
  };
  int bad = 0;
  for (const Case& c : cases) {
    const std::string got = check_reputations(c.reps, 3);
    const bool ok = got == c.expect;
    bad += ok ? 0 : 1;
    Line("selftest")
        .str("case", c.what)
        .str("expect", c.expect)
        .str("got", got)
        .kv("ok", ok ? "true" : "false")
        .emit();
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const st::util::CliArgs args(argc, argv);
    const auto& pos = args.positional();
    const std::string mode = pos.empty() ? "" : pos.front();
    if (mode == "run") return mode_run(args);
    if (mode == "digest") return mode_digest(args);
    if (mode == "selftest") return mode_selftest();
    std::cerr << "usage: perfbench_sim run|digest|selftest [flags]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_sim: " << e.what() << "\n";
    return 1;
  }
}
