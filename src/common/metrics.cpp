#include "common/metrics.hpp"

#include <cstdlib>
#include <deque>
#include <mutex>
#include <sstream>

namespace slicer::metrics {

namespace {

/// The process-wide enable flag. Seeded from SLICER_METRICS exactly once;
/// afterwards set_enabled() flips it directly.
std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("SLICER_METRICS");
    return env != nullptr && env[0] != '\0';
  }();
  return flag;
}

/// Instrument storage. Deques never relocate elements, so a reference
/// handed out by counter()/gauge()/histogram() stays valid while new
/// instruments register. The registry leaks by design (function-local
/// static, never destroyed) so instruments outlive static-destruction
/// order — the same pattern as FaultInjector.
struct Registry {
  std::mutex mutex;
  std::map<std::string, Counter*, std::less<>> counters;
  std::map<std::string, Gauge*, std::less<>> gauges;
  std::map<std::string, Histogram*, std::less<>> histograms;
  std::deque<Counter> counter_storage;
  std::deque<Gauge> gauge_storage;
  std::deque<Histogram> histogram_storage;
};

Registry& registry() {
  static Registry* reg = new Registry();
  return *reg;
}

template <typename T, typename Map, typename Storage>
T& lookup(Map& map, Storage& storage, std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = map.find(name);
  if (it != map.end()) return *it->second;
  storage.emplace_back();
  T& instrument = storage.back();
  map.emplace(std::string(name), &instrument);
  return instrument;
}

void json_escape(std::ostringstream& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (Counter& c : reg.counter_storage)
    c.value_.store(0, std::memory_order_relaxed);
  for (Gauge& g : reg.gauge_storage)
    g.value_.store(0, std::memory_order_relaxed);
  for (Histogram& h : reg.histogram_storage) {
    h.count_.store(0, std::memory_order_relaxed);
    h.sum_.store(0, std::memory_order_relaxed);
  }
}

Counter& counter(std::string_view name) {
  Registry& reg = registry();
  return lookup<Counter>(reg.counters, reg.counter_storage, name);
}

Gauge& gauge(std::string_view name) {
  Registry& reg = registry();
  return lookup<Gauge>(reg.gauges, reg.gauge_storage, name);
}

Histogram& histogram(std::string_view name) {
  Registry& reg = registry();
  return lookup<Histogram>(reg.histograms, reg.histogram_storage, name);
}

Snapshot snapshot() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  Snapshot snap;
  for (const auto& [name, c] : reg.counters) snap.counters[name] = c->value();
  for (const auto& [name, g] : reg.gauges) snap.gauges[name] = g->value();
  for (const auto& [name, h] : reg.histograms)
    snap.histograms[name] = {h->count(), h->sum()};
  return snap;
}

std::string snapshot_json() {
  const Snapshot snap = snapshot();
  std::ostringstream out;
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out << (first ? "" : ", ") << '"';
    json_escape(out, name);
    out << "\": " << v;
    first = false;
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out << (first ? "" : ", ") << '"';
    json_escape(out, name);
    out << "\": " << v;
    first = false;
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out << (first ? "" : ", ") << '"';
    json_escape(out, name);
    out << "\": {\"count\": " << h.count << ", \"sum_ns\": " << h.sum
        << ", \"total_ms\": " << static_cast<double>(h.sum) / 1e6 << '}';
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace slicer::metrics
