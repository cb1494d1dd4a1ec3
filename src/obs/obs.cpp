#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <sstream>

namespace st::obs {

namespace {

/// Default latency buckets (microseconds): decade-ish resolution from
/// 1 us to 10 s. Chosen so one set of bounds serves both the per-task
/// pool timings (~us) and whole update intervals (~ms-s).
const std::vector<double>& default_latency_bounds_us() {
  static const std::vector<double> bounds = {
      1.0,     2.5,     5.0,     10.0,     25.0,     50.0,      100.0,
      250.0,   500.0,   1e3,     2.5e3,    5e3,      1e4,       2.5e4,
      5e4,     1e5,     2.5e5,   5e5,      1e6,      1e7};
  return bounds;
}

/// fetch_add for atomic<double> via CAS (portable across libstdc++
/// versions that lack the C++20 floating-point fetch_add).
void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// --- JSON line building -----------------------------------------------------

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// JSON has no inf/nan; non-finite values become null. Whole numbers are
/// printed without a fractional part so counters read naturally.
void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  std::ostringstream ss;
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    ss << static_cast<long long>(v);
  } else {
    ss.precision(17);
    ss << v;
  }
  out += ss.str();
}

std::string to_jsonl(const Snapshot& snap) {
  std::string out;
  out.reserve(512);
  out += "{\"seq\":";
  append_json_number(out, static_cast<double>(snap.sequence));
  out += ",\"scope\":";
  append_json_string(out, snap.scope);
  out += ",\"label\":";
  append_json_string(out, snap.label);

  out += ",\"extra\":{";
  for (std::size_t i = 0; i < snap.extras.size(); ++i) {
    if (i) out += ',';
    append_json_string(out, snap.extras[i].first);
    out += ':';
    append_json_number(out, snap.extras[i].second);
  }
  out += "},\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) out += ',';
    append_json_string(out, snap.counters[i].first);
    out += ':';
    append_json_number(out, static_cast<double>(snap.counters[i].second));
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) out += ',';
    append_json_string(out, snap.gauges[i].first);
    out += ':';
    append_json_number(out, static_cast<double>(snap.gauges[i].second));
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    if (i) out += ',';
    const auto& [name, hist] = snap.histograms[i];
    append_json_string(out, name);
    out += ":{\"count\":";
    append_json_number(out, static_cast<double>(hist.count));
    out += ",\"sum\":";
    append_json_number(out, hist.sum);
    out += ",\"min\":";
    append_json_number(out, hist.count ? hist.min : 0.0);
    out += ",\"max\":";
    append_json_number(out, hist.count ? hist.max : 0.0);
    // Buckets as [upper_bound, count] pairs; the +inf bound is null.
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      if (b) out += ',';
      out += '[';
      if (std::isinf(hist.buckets[b].upper)) {
        out += "null";
      } else {
        append_json_number(out, hist.buckets[b].upper);
      }
      out += ',';
      append_json_number(out, static_cast<double>(hist.buckets[b].count));
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(upper_bounds.empty() ? default_latency_bounds_us()
                                   : std::move(upper_bounds)),
      buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() +
                                                              1)) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::record(double value) noexcept {
  if (!enabled()) return;
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  auto idx = static_cast<std::size_t>(it - bounds_.begin());  // +inf = last
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  if (prev == 0) {
    // First sample seeds min/max; racing first samples both publish and
    // then converge through the CAS loops below.
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  }
  atomic_min(min_, value);
  atomic_max(max_, value);
}

HistogramValue Histogram::value() const {
  HistogramValue out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.min = min_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  out.buckets.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    out.buckets.push_back(HistogramBucket{
        bounds_[i], buckets_[i].load(std::memory_order_relaxed)});
  }
  out.buckets.push_back(HistogramBucket{
      std::numeric_limits<double>::infinity(),
      buckets_[bounds_.size()].load(std::memory_order_relaxed)});
  return out;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// --- Registry ---------------------------------------------------------------

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  // The three copy loops below must run under the registry mutex: the
  // snapshot's point-in-time coherence against concurrent registration
  // is the whole contract, each loop is bounded by the metric count
  // (dozens), and the vectors are reserved first. Cold path — once per
  // update interval.
  std::lock_guard lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  // st-lint: allow(LOCK-3 snapshot coherence requires the registry lock; bounded by metric count)
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  // st-lint: allow(LOCK-3 snapshot coherence requires the registry lock; bounded by metric count)
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  // st-lint: allow(LOCK-3 snapshot coherence requires the registry lock; bounded by metric count)
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->value());
  }
  return snap;
}

void Registry::reset_values() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

// --- Obs --------------------------------------------------------------------

Obs& Obs::instance() {
  static Obs obs;
  return obs;
}

void Obs::configure(StObsConfig config) {
  std::lock_guard lock(mutex_);
  // Close the gate first so no site accumulates into the values being
  // reset (configure is documented quiescent-only; this is belt and
  // braces, not a synchronisation guarantee).
  detail::g_enabled.store(false, std::memory_order_relaxed);
  sink_.reset();
  snapshots_.clear();
  sequence_ = 0;
  registry_.reset_values();
  config_ = std::move(config);
  if (config_.enabled && !config_.jsonl_path.empty()) {
    auto sink = std::make_unique<std::ofstream>(config_.jsonl_path,
                                                std::ios::trunc);
    if (*sink) {
      sink_ = std::move(sink);
    } else {
      std::cerr << "obs: cannot open " << config_.jsonl_path
                << " for writing; continuing registry-only\n";
    }
  }
  detail::g_enabled.store(config_.enabled, std::memory_order_relaxed);
}

std::uint64_t Obs::emit_interval(std::string_view scope,
                                 std::string_view label,
                                 std::span<const ExtraField> extras) {
  if (!enabled()) return 0;
  Snapshot snap = registry_.snapshot();
  snap.scope = scope;
  snap.label = label;
  snap.extras.reserve(extras.size());
  for (const ExtraField& e : extras) {
    snap.extras.emplace_back(std::string(e.name), e.value);
  }
  std::lock_guard lock(mutex_);
  snap.sequence = ++sequence_;
  if (sink_) {
    *sink_ << to_jsonl(snap) << '\n';
    sink_->flush();  // one interval per line; keep the file tail-able
  }
  if (snapshots_.size() == kMaxSnapshots) snapshots_.pop_front();
  snapshots_.push_back(std::move(snap));
  return sequence_;
}

std::vector<Snapshot> Obs::snapshots() const {
  std::lock_guard lock(mutex_);
  return {snapshots_.begin(), snapshots_.end()};
}

std::size_t Obs::snapshot_count() const {
  std::lock_guard lock(mutex_);
  return snapshots_.size();
}

void Obs::flush() {
  std::lock_guard lock(mutex_);
  if (sink_) sink_->flush();
}

}  // namespace st::obs
