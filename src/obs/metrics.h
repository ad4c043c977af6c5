// Metrics registry: named monotonic counters and log-scale latency
// histograms behind one uniform API.
//
// The paper validates its analytic disk model against measurement
// (section 4); a reproduction needs the measurement half. Every subsystem
// (the simulated disk, all three file systems, FSD's log and commit queue)
// registers its counters and histograms here, so benches and tests read one
// snapshot format regardless of which file system ran. For FSD the registry
// is the only counter mechanism: each name is written once, where the
// counter is registered, and readers look it up by name —
// Snapshot().CounterValue(name), or a delta between two snapshots.
//
// Design points:
//   - Create-on-first-use: GetCounter/GetHistogram return a stable pointer
//     the caller caches; the hot path is then a single add, no map lookup.
//   - Node-based storage (std::map) so pointers survive later insertions.
//   - Histograms use power-of-two buckets (bucket i covers [2^(i-1), 2^i)),
//     enough resolution for latencies spanning a CPU charge (~1 ms) to a
//     full-volume scan (~10 s) without per-metric configuration.
//   - Reset() zeroes values but keeps every registered name, so snapshots
//     taken across Format/Mount/Shutdown expose a stable key set.
//   - Thread safety: counters and histograms are relaxed atomics
//     (concurrent client threads record lock-free); only the registry maps
//     take a short internal lock, off the hot path. Relaxed ordering is
//     fine — values are summed observations, never used to synchronize.

#ifndef CEDAR_OBS_METRICS_H_
#define CEDAR_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/clock.h"

namespace cedar::obs {

// A monotonic 64-bit counter. Cheap enough to bump on every disk request,
// from any thread.
class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Log2-bucketed histogram of non-negative integer samples (microseconds,
// sector counts, ...). Bucket index = bit_width(value): bucket 0 holds only
// zero, bucket i (i >= 1) holds [2^(i-1), 2^i). Record() is lock-free
// (relaxed atomic adds plus CAS loops for min/max) so parallel FSD
// operations never serialize on a shared histogram; readers see sums of
// completed samples, which is all the observability layer promises.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  static constexpr int BucketIndex(std::uint64_t value) {
    const int width = std::bit_width(value);
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }
  // Inclusive lower bound of bucket i.
  static constexpr std::uint64_t BucketLow(int i) {
    return i <= 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  // Exclusive upper bound of bucket i (saturates for the last bucket).
  static constexpr std::uint64_t BucketHigh(int i) {
    if (i <= 0) return 1;
    if (i >= kNumBuckets - 1) return ~std::uint64_t{0};
    return std::uint64_t{1} << i;
  }

  void Record(std::uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t cur_min = min_.load(std::memory_order_relaxed);
    while (value < cur_min &&
           !min_.compare_exchange_weak(cur_min, value,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
    std::uint64_t cur_max = max_.load(std::memory_order_relaxed);
    while (value > cur_max &&
           !max_.compare_exchange_weak(cur_max, value,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const {
    return count() ? min_.load(std::memory_order_relaxed) : 0;
  }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const {
    const std::uint64_t n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0;
  }
  std::uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  // min_ starts at the maximum so the CAS loop needs no first-sample case.
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

// Point-in-time copy of every registered metric, for tests/benches/tools.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // sorted
  struct HistogramData {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::vector<std::pair<int, std::uint64_t>> buckets;  // non-empty only

    // Approximate quantile (q in [0,1]) from the log2 buckets: the sample
    // at rank ceil(q*count) is located in its bucket and interpolated
    // linearly inside the bucket's [low, high) range. Resolution is a
    // power-of-two bucket, so treat these as indicative (info metrics),
    // never as gated values. Returns 0 on an empty histogram; min/max are
    // honored exactly at the extremes.
    std::uint64_t Percentile(double q) const;
  };
  std::vector<HistogramData> histograms;  // sorted by name

  // Counter value by name, 0 if absent (keeps test assertions terse).
  std::uint64_t CounterValue(std::string_view name) const;
  const HistogramData* FindHistogram(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the counter/histogram with this name, creating it on first use.
  // The returned pointer is stable for the registry's lifetime.
  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Read-only lookup; nullptr when the name was never registered.
  const Counter* FindCounter(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  MetricsSnapshot Snapshot() const;

  // Zeroes all values; registered names (and pointers) survive.
  void Reset();

 private:
  mutable std::mutex mu_;  // guards the maps, not the metric values
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// RAII latency sample: records (clock.now() - start) into a histogram at
// scope exit. Both pointers may be null (no-op), so call sites don't need
// to care whether metrics are attached.
class ScopedLatency {
 public:
  ScopedLatency(Histogram* hist, const sim::VirtualClock* clock)
      : hist_(hist), clock_(clock), start_(clock ? clock->now() : 0) {}
  ~ScopedLatency() {
    if (hist_ != nullptr && clock_ != nullptr) {
      hist_->Record(clock_->now() - start_);
    }
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;
  const sim::VirtualClock* clock_;
  sim::Micros start_;
};

}  // namespace cedar::obs

#endif  // CEDAR_OBS_METRICS_H_
