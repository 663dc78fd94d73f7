// Measurement helpers of the end-to-end benchmark: exact-sample
// percentiles, bench-side span accounting and the per-query time ledger.
//
// Every timing the benchmark reports comes from exact samples taken around
// calls into the library's public API — never from the program's
// log2-bucketed histograms, whose bucket bounds quantise a percentile by up
// to 2x. Each sample is read on two clocks: steady_clock (wall time) and the
// process CPU clock (see process_cpu_ms).
#pragma once

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time used so far by every thread of the process, client and server
/// alike, in ms. Time a thread waits for a CPU and time the hypervisor
/// steals from the VM are not in it, so on a shared host it is steadier
/// than wall time. Only one operation runs at a time, so the difference of
/// two readings (less the speed probe's share) is that operation's cost.
inline double process_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// One percentile of an exact sample set together with the evidence behind
/// it: a tail percentile is only as good as the samples beyond it.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;  ///< size of the sample set
  std::size_t above = 0;    ///< samples strictly greater than `value`
};

/// Nearest-rank percentile (p in (0, 100]) of `samples`: the smallest
/// sample such that at least p% of all samples are <= it. No interpolation
/// and no bucketing, so the value is always one of the measured samples.
inline Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, samples.size()) - 1;
  out.value = samples[index];
  out.above = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), out.value));
  return out;
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50).value;
}

/// A fixed computation that does not use the library: a chain of 1024-bit
/// Montgomery multiplications (16 limbs, CIOS), the operation that
/// dominates the program's cryptography. Returns a value that depends on
/// every step, so the compiler cannot drop the work.
inline std::uint64_t reference_kernel(int reps) {
  constexpr int kLimbs = 16;
  using u128 = unsigned __int128;
  std::uint64_t n[kLimbs], a[kLimbs], b[kLimbs], t[kLimbs + 2];
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < kLimbs; ++i) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    n[i] = x | 1, a[i] = x * 3, b[i] = x * 5;
  }
  n[kLimbs - 1] |= std::uint64_t{1} << 63;
  std::uint64_t inv = 1;  // n[0]^-1 mod 2^64 by Newton's iteration
  for (int i = 0; i < 6; ++i) inv *= 2 - n[0] * inv;
  const std::uint64_t ninv = 0 - inv;
  for (int r = 0; r < reps; ++r) {
    std::fill(t, t + kLimbs + 2, 0);
    for (int i = 0; i < kLimbs; ++i) {
      u128 c = 0;
      for (int j = 0; j < kLimbs; ++j) {
        c += static_cast<u128>(a[j]) * b[i] + t[j];
        t[j] = static_cast<std::uint64_t>(c);
        c >>= 64;
      }
      c += t[kLimbs];
      t[kLimbs] = static_cast<std::uint64_t>(c);
      t[kLimbs + 1] = static_cast<std::uint64_t>(c >> 64);
      const std::uint64_t m = t[0] * ninv;
      c = (static_cast<u128>(m) * n[0] + t[0]) >> 64;
      for (int j = 1; j < kLimbs; ++j) {
        c += static_cast<u128>(m) * n[j] + t[j];
        t[j - 1] = static_cast<std::uint64_t>(c);
        c >>= 64;
      }
      c += t[kLimbs];
      t[kLimbs - 1] = static_cast<std::uint64_t>(c);
      t[kLimbs] = t[kLimbs + 1] + static_cast<std::uint64_t>(c >> 64);
    }
    std::copy(t, t + kLimbs, a);
  }
  return a[0];
}

/// How fast the host runs right now, sampled by a thread that runs the
/// reference kernel every kPeriod on the benchmark's CPU. On a shared host
/// the CPU time of the same work swings by a third within a minute (clock
/// frequency, a busy sibling hardware thread), and the kernel's CPU time
/// swings with it. An operation's CPU time times factor() over its span is
/// therefore its cost at a fixed speed: the speed at which one kernel run
/// takes kNominalMs of CPU. No change to the program can move the kernel,
/// so a change moves the normalised cost in full.
class SpeedProbe {
 public:
  static constexpr int kReps = 100;            ///< multiplications per sample
  static constexpr double kNominalMs = 0.1;    ///< fixes the unit only
  static constexpr std::chrono::milliseconds kPeriod{5};
  static constexpr std::size_t kMinSamples = 8;

  SpeedProbe() = default;
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;
  ~SpeedProbe() { stop(); }

  /// Starts sampling on a new thread, which inherits the caller's CPU mask.
  void start() {
    thread_ = std::thread([this] {
      while (!stopping_.load()) {
        const Clock::time_point begin = Clock::now();
        const double cpu = thread_cpu_ms();
        sink_ += reference_kernel(kReps);
        const double ms = thread_cpu_ms() - cpu;
        samples_.push_back({begin + (Clock::now() - begin) / 2, ms});
        std::this_thread::sleep_for(kPeriod);
      }
      final_cpu_ms_.store(thread_cpu_ms());
    });
    ::pthread_getcpuclockid(thread_.native_handle(), &clock_);
    running_.store(true);
  }

  /// Stops and joins the sampling thread; the samples are readable after.
  void stop() {
    if (!thread_.joinable()) return;
    stopping_.store(true);
    thread_.join();
    running_.store(false);
  }

  /// CPU time the probe itself has used, so operations can leave it out.
  double cpu_ms() const {
    if (!running_.load()) return final_cpu_ms_.load();
    timespec ts{};
    ::clock_gettime(clock_, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
  }

  /// Records one sample; the sampling thread does this itself.
  void add(Clock::time_point at, double kernel_ms) { samples_.push_back({at, kernel_ms}); }

  /// How many nominal-speed ms one CPU ms was worth over [begin, end]: the
  /// mean of kNominalMs / kernel time over the samples taken in it, or over
  /// the kMinSamples samples nearest its middle when it holds fewer. The
  /// speed flips between modes within a span (a sibling hardware thread
  /// goes busy and idle), and samples are evenly spaced in time, so the
  /// mean speed — not the median — is the speed the span's work ran at.
  double factor(Clock::time_point begin, Clock::time_point end) const {
    const auto by_time = [](const Sample& s, Clock::time_point t) { return s.at < t; };
    const auto lo = std::lower_bound(samples_.begin(), samples_.end(), begin, by_time);
    const auto hi = std::lower_bound(lo, samples_.end(), end + Clock::duration(1), by_time);
    if (static_cast<std::size_t>(hi - lo) >= kMinSamples) return mean_speed(lo, hi);
    if (samples_.empty()) return 1;
    const std::size_t n = samples_.size(), k = std::min(kMinSamples, n);
    const std::size_t mid = static_cast<std::size_t>(
        std::lower_bound(samples_.begin(), samples_.end(), begin + (end - begin) / 2, by_time) -
        samples_.begin());
    const std::size_t first = std::min(mid > k / 2 ? mid - k / 2 : 0, n - k);
    return mean_speed(samples_.begin() + first, samples_.begin() + first + k);
  }

  /// The mean speed over the whole run.
  double run_factor() const {
    return samples_.empty() ? 1 : mean_speed(samples_.begin(), samples_.end());
  }

  std::uint64_t sink() const { return sink_; }

 private:
  struct Sample {
    Clock::time_point at;
    double ms;
  };

  static double thread_cpu_ms() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
  }

  template <class It>
  static double mean_speed(It first, It last) {
    double sum = 0;
    for (It it = first; it != last; ++it) sum += kNominalMs / it->ms;
    return sum / static_cast<double>(last - first);
  }

  std::thread thread_;
  std::atomic<bool> stopping_{false}, running_{false};
  std::atomic<double> final_cpu_ms_{0};
  clockid_t clock_{};
  std::vector<Sample> samples_;  // written by the thread, read after stop()
  std::uint64_t sink_ = 0;
};

/// The process's speed probe. Operations are timed against it.
inline SpeedProbe& speed_probe() {
  static SpeedProbe probe;
  return probe;
}

/// CPU time of one operation and the wall-clock span it ran in.
struct CpuSample {
  double cpu_ms = 0;
  Clock::time_point begin, end;
};

/// Each sample's CPU time as measured.
inline std::vector<double> cpu_ms(const std::vector<CpuSample>& samples) {
  std::vector<double> out;
  for (const CpuSample& s : samples) out.push_back(s.cpu_ms);
  return out;
}

/// Each sample's CPU time at the probe's nominal speed.
inline std::vector<double> normalised_ms(const std::vector<CpuSample>& samples,
                                         const SpeedProbe& probe) {
  std::vector<double> out;
  for (const CpuSample& s : samples) out.push_back(s.cpu_ms * probe.factor(s.begin, s.end));
  return out;
}

/// Wall time and operation CPU time (the process's, less the speed
/// probe's) elapsed since construction.
class Stopwatch {
 public:
  double wall_ms() const { return ms_between(wall_, Clock::now()); }
  double cpu_ms() const { return op_cpu_ms() - cpu_; }
  /// The CPU time so far with the span it ran in, for normalising.
  CpuSample cpu_sample() const { return {cpu_ms(), wall_, Clock::now()}; }

 private:
  static double op_cpu_ms() { return process_cpu_ms() - speed_probe().cpu_ms(); }

  Clock::time_point wall_ = Clock::now();
  double cpu_ = op_cpu_ms();
};

/// Uniform draws in [0, 1), stratified: each block of `block` draws holds
/// one value from each of the intervals [j/block, (j+1)/block), in shuffled
/// order. Every run then covers the whole range evenly whatever its seed,
/// so figures differ less from seed to seed than with independent draws.
/// `Rng` provides uniform(n), a uniform integer below n.
class Stratified {
 public:
  explicit Stratified(std::size_t block) : block_(block) {}

  template <class Rng>
  double next(Rng& rng) {
    if (next_ == values_.size()) {
      constexpr std::uint64_t kUnit = std::uint64_t{1} << 53;
      values_.clear();
      for (std::size_t j = 0; j < block_; ++j)
        values_.push_back((static_cast<double>(j) +
                           static_cast<double>(rng.uniform(kUnit)) / kUnit) /
                          static_cast<double>(block_));
      for (std::size_t j = block_; j > 1; --j)
        std::swap(values_[j - 1], values_[rng.uniform(j)]);
      next_ = 0;
    }
    return values_[next_++];
  }

 private:
  std::size_t block_;
  std::vector<double> values_;
  std::size_t next_ = 0;
};

/// Bench-side spans, aggregated per name (sum and count). Disabled spans
/// read no clock, so the untraced run pays one branch per call site.
class Spans {
 public:
  struct Stat {
    double sum_ms = 0;
    std::uint64_t count = 0;
  };

  /// RAII span: adds its duration to the owning Spans on destruction.
  class Scope {
   public:
    Scope(Spans* owner, std::string_view name)
        : owner_(owner->enabled_ ? owner : nullptr), name_(name) {
      if (owner_ != nullptr) start_ = Clock::now();
    }
    ~Scope() {
      if (owner_ != nullptr) owner_->add(name_, ms_between(start_, Clock::now()));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    std::string_view name_;
    Clock::time_point start_{};
  };

  explicit Spans(bool enabled = false) : enabled_(enabled) {}

  Scope scope(std::string_view name) { return Scope(this, name); }

  void add(std::string_view name, double ms) {
    auto it = stats_.find(name);
    if (it == stats_.end()) it = stats_.emplace(std::string(name), Stat{}).first;
    it->second.sum_ms += ms;
    ++it->second.count;
  }

  /// Adds `other`'s spans whose names start with `prefix` (all by default).
  void merge(const Spans& other, std::string_view prefix = {}) {
    for (const auto& [name, stat] : other.stats_) {
      if (name.rfind(prefix, 0) != 0) continue;
      Stat& mine = stats_[name];
      mine.sum_ms += stat.sum_ms;
      mine.count += stat.count;
    }
  }

  Stat get(std::string_view name) const {
    const auto it = stats_.find(name);
    return it == stats_.end() ? Stat{} : it->second;
  }
  double sum_ms(std::string_view name) const { return get(name).sum_ms; }
  double mean_ms(std::string_view name) const {
    const Stat s = get(name);
    return s.count == 0 ? 0 : s.sum_ms / static_cast<double>(s.count);
  }

 private:
  bool enabled_;
  std::map<std::string, Stat, std::less<>> stats_;
};

/// The client-side spans one query's latency is split into. Each wraps one
/// call into a library module; together they must cover the latency.
inline const std::vector<std::string_view>& query_span_names() {
  static const std::vector<std::string_view> names = {
      "query.compile", "query.tokens",  "query.rtt",
      "query.verify",  "query.decrypt", "query.combine"};
  return names;
}

/// Share of the summed query latency that no client-side span covers:
/// (latency - sum of spans) / latency. Zero when nothing was measured.
inline double unattributed_frac(const Spans& spans, double latency_sum_ms) {
  if (latency_sum_ms <= 0) return 0;
  double covered = 0;
  for (const std::string_view name : query_span_names())
    covered += spans.sum_ms(name);
  return (latency_sum_ms - covered) / latency_sum_ms;
}

}  // namespace perfbench
