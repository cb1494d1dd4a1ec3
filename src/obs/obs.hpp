#pragma once
// st::obs — low-overhead metrics & tracing for the SocialTrust pipeline.
//
// The layer has three parts:
//
//   * Metric primitives — thread-safe named Counters, Gauges, fixed-bucket
//     Histograms, and an RAII ScopedTimer that records elapsed wall-clock
//     into a Histogram.
//   * A process-wide Registry mapping metric names to primitives. Handles
//     are resolved once (typically in a constructor) and are stable for
//     the life of the process; increments never take the registry lock.
//   * A per-update-interval event sink: emit_interval() snapshots the
//     registry, appends caller-supplied per-interval fields, keeps the
//     snapshot in memory (the most recent Obs::kMaxSnapshots of them),
//     and (when configured) writes it as one JSON object per line to a
//     JSONL file.
//
// Cost contract. Every instrumentation site is gated on a single
// process-global `std::atomic<bool>` loaded with memory_order_relaxed:
// when `StObsConfig::enabled == false` a site costs one relaxed atomic
// load and one predictable branch — no clock reads, no locks, no
// allocation. Metric mutation uses relaxed atomics only, which is
// sufficient because metrics are monotonic tallies read at quiescent
// points (interval boundaries, after thread-pool joins), never signals
// other threads synchronise on.
//
// Determinism contract. Instrumentation is observation-only: nothing the
// adjustment algorithm reads is ever written by this layer, so enabling
// it cannot change adjusted ratings, flagged sets, or reputations (the
// PR-1 bit-identity guarantee; enforced by tests/parallel_update_test.cpp
// and the bench_parallel_update --obs cross-check). See
// docs/OBSERVABILITY.md for the full metric reference and JSONL schema.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace st::obs {

/// Process-wide observability configuration, applied via
/// Obs::instance().configure(). Reconfiguring resets all metric values,
/// drops retained snapshots, and reopens (truncates) the JSONL sink; call
/// it only at quiescent points (no instrumented code running).
struct StObsConfig {
  /// Master switch. When false every instrumentation site reduces to one
  /// relaxed atomic load + branch, emit_interval() is a no-op, and no
  /// output file is created.
  bool enabled = false;
  /// Path of the JSONL event file. Empty = no file; the most recent
  /// interval snapshots are still retained in memory (tests / embedding
  /// applications).
  std::string jsonl_path;
};

namespace detail {
/// The global gate. Inline so the enabled() check compiles to a direct
/// relaxed load at every site with no function-call overhead.
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// True when instrumentation is globally enabled. The single
/// relaxed-atomic branch every site pays when observability is off.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// --- metric primitives ------------------------------------------------------

/// Monotonic event tally. add() is wait-free (one relaxed fetch_add).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (e.g. queue depth). set() overwrites,
/// add() moves the level by a delta (possibly negative).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    if (!enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::int64_t> value_{0};
};

/// One bucket row of a histogram snapshot. `upper` is the inclusive upper
/// bound; the final bucket has upper = +infinity.
struct HistogramBucket {
  double upper = 0.0;
  std::uint64_t count = 0;
};

/// Value-independent histogram snapshot (count/sum/min/max + buckets).
struct HistogramValue {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< meaningful only when count > 0
  double max = 0.0;  ///< meaningful only when count > 0
  std::vector<HistogramBucket> buckets;
};

/// Fixed-bucket histogram. Bucket upper bounds are set at construction
/// and never change; record() finds the bucket by binary search and
/// updates count/sum/min/max with relaxed atomics (CAS loops for the
/// doubles), so concurrent record() calls are safe and lock-free.
class Histogram {
 public:
  /// `upper_bounds` must be strictly ascending; an implicit +infinity
  /// bucket is appended. An empty list yields the default latency buckets
  /// (microsecond scale, 1 us .. 10 s).
  explicit Histogram(std::vector<double> upper_bounds = {});

  void record(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Consistent-enough snapshot for quiescent readers (see class comment).
  HistogramValue value() const;
  std::span<const double> upper_bounds() const noexcept { return bounds_; }

 private:
  friend class Registry;
  void reset() noexcept;

  std::vector<double> bounds_;  // ascending, excludes the +inf bucket
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// RAII wall-clock timer: records the elapsed time (microseconds) into a
/// Histogram at scope exit, or earlier via stop(). When instrumentation
/// is disabled at construction the clock is never read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) noexcept : hist_(&hist) {
    if (enabled()) {
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now instead of at scope exit; returns the elapsed
  /// microseconds (0.0 when disarmed). Idempotent.
  double stop() noexcept {
    if (!armed_) return 0.0;
    armed_ = false;
    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    hist_->record(us);
    return us;
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_{};
  bool armed_ = false;
};

// --- registry ---------------------------------------------------------------

/// One caller-supplied per-interval field for emit_interval(). The
/// string_view is copied into the snapshot, so temporaries are fine.
struct ExtraField {
  std::string_view name;
  double value = 0.0;
};

/// A full registry snapshot plus the per-interval fields of one event.
/// Counters/gauges are cumulative process-wide values at snapshot time,
/// sorted by name (the registry iterates a std::map).
struct Snapshot {
  std::uint64_t sequence = 0;  ///< 1-based emission index since configure()
  std::string scope;           ///< event kind, e.g. "socialtrust.update"
  std::string label;           ///< free-form qualifier, e.g. the system name
  std::vector<std::pair<std::string, double>> extras;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramValue>> histograms;
};

/// Name → metric map. Creation takes a mutex; returned references are
/// stable for the registry's lifetime, so call sites resolve once and
/// increment lock-free thereafter. Metrics exist independently of the
/// enabled flag (a disabled registry simply never accumulates).
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Returns the histogram registered under `name`, creating it with
  /// `upper_bounds` (empty = default latency buckets) on first use.
  /// Bounds of an existing histogram are never altered.
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds = {});

  /// Point-in-time copy of every metric, sorted by name.
  Snapshot snapshot() const;

  /// Zeroes every metric value (handles stay valid).
  void reset_values();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// --- process-wide surface ---------------------------------------------------

/// The process-wide observability instance: the registry, the enabled
/// gate, and the interval event sink. A singleton because the
/// instrumented layers (thread pool, closeness cache, detector) have no
/// natural configuration path of their own — mirroring the default-
/// registry convention of production metrics libraries.
class Obs {
 public:
  static Obs& instance();

  /// Applies `config`: flips the global gate, resets all metric values,
  /// clears retained snapshots, and (when enabled with a non-empty
  /// jsonl_path) truncates/opens the sink file. Must be called at a
  /// quiescent point. A disabled config never creates or touches a file.
  void configure(StObsConfig config);
  const StObsConfig& config() const noexcept { return config_; }

  Registry& registry() noexcept { return registry_; }

  /// Emits one interval event: snapshots the registry, attaches
  /// scope/label/extras, retains the snapshot (dropping the oldest beyond
  /// kMaxSnapshots), and writes one JSONL line when a sink is open.
  /// Returns the event's sequence number, or 0 when disabled (no
  /// snapshot, no write).
  std::uint64_t emit_interval(std::string_view scope,
                              std::string_view label = {},
                              std::span<const ExtraField> extras = {});

  /// Most snapshots retained in memory. A long run keeps only the most
  /// recent ones, so memory stays bounded however many events it emits;
  /// the JSONL sink still receives every event.
  static constexpr std::size_t kMaxSnapshots = 1024;

  /// The most recent kMaxSnapshots snapshots since the last configure(),
  /// in emission order.
  std::vector<Snapshot> snapshots() const;
  std::size_t snapshot_count() const;

  /// Flushes the JSONL sink (each line is already written unbuffered at
  /// emit time; this is for embedders that want a hard sync point).
  void flush();

 private:
  Obs() = default;

  mutable std::mutex mutex_;  // guards config_, sink_, snapshots_, sequence_
  StObsConfig config_;
  Registry registry_;
  std::unique_ptr<std::ofstream> sink_;
  std::deque<Snapshot> snapshots_;  // at most kMaxSnapshots, oldest first
  std::uint64_t sequence_ = 0;
};

}  // namespace st::obs
