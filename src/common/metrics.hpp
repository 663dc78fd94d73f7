// Structured observability: named counters, gauges and latency histograms
// (exact count and sum).
//
// Every protocol phase declares its instruments once (a function-local
// static reference into the process-wide registry) and updates them inline.
// The hot path mirrors common/fault.hpp's site pattern: with metrics
// disabled an update is ONE relaxed atomic load plus a predicted branch
// (~1–2 ns), so production and benchmark binaries pay nothing unless the
// operator opts in. With metrics enabled, updates are lock-free relaxed
// atomic adds — safe from any thread, including inside parallel regions.
//
// Enablement comes from the SLICER_METRICS environment variable (any
// non-empty value; "json" additionally makes slicer_cli dump a snapshot on
// exit) or from metrics::set_enabled() / ScopedMetrics (tests, benches).
//
// Snapshots are deterministic: instruments are reported in lexicographic
// name order, so `snapshot_json()` is byte-stable for a given set of
// recorded values — the benchmark emitters embed it as their "phases"
// section and CI diff-checks its schema.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace slicer::metrics {

/// True when recording is on — the only check on the hot path.
bool enabled();

/// Turns recording on/off process-wide (SLICER_METRICS seeds the initial
/// state on first registry use).
void set_enabled(bool on);

/// Zeroes every registered instrument (registration is permanent — an
/// instrument's identity is its name; reset only clears the recorded
/// values). Tests and the phase-breakdown bench call this between phases.
void reset();

/// Monotonically increasing event count (modexp calls, cache hits, ...).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend void reset();
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, cache entries). `set` is last-writer-
/// wins; `add`/`sub` are atomic deltas.
class Gauge {
 public:
  void set(std::int64_t v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n = 1) {
    if (enabled()) value_.fetch_sub(n, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend void reset();
  std::atomic<std::int64_t> value_{0};
};

/// Latency/size distribution kept as an exact count and sum, so
/// `sum / 1e6` of a nanosecond histogram is the phase's total wall-clock
/// milliseconds (the property the phase-breakdown bench relies on).
/// Percentiles come from exact samples kept by the benches, not from here.
class Histogram {
 public:
  void record(std::uint64_t v) {
    if (!enabled()) return;
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend void reset();
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Registry lookups. Each returns a stable reference valid for the process
/// lifetime (instruments are never destroyed); the lookup takes a lock, so
/// call sites cache the reference in a function-local static:
///
///   static metrics::Counter& c = metrics::counter("layer.component.event");
///   c.add();
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// RAII nanosecond timer: records the scope's duration into `h` on
/// destruction. When metrics are disabled at construction the clock is
/// never read — the guard costs one branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : hist_(enabled() ? &h : nullptr),
        start_(hist_ ? std::chrono::steady_clock::now()
                     : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    hist_->record(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Point-in-time copy of every registered instrument.
struct Snapshot {
  struct HistogramData {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;
};

Snapshot snapshot();

/// Deterministic JSON of the current snapshot:
///   {"counters": {...}, "gauges": {...},
///    "histograms": {"name": {"count": c, "sum_ns": s, "total_ms": m}, ...}}
/// Names sort lexicographically; histogram "total_ms" is sum / 1e6 (the
/// per-phase wall-clock figure the bench emitters report).
std::string snapshot_json();

/// RAII enable/reset guard: enables metrics (resetting all instruments to
/// zero) for the scope and restores the previous enabled state on exit.
class ScopedMetrics {
 public:
  ScopedMetrics() : previous_(enabled()) {
    set_enabled(true);
    reset();
  }
  ~ScopedMetrics() { set_enabled(previous_); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  bool previous_;
};

}  // namespace slicer::metrics
