#include "src/obs/metrics.h"

#include <algorithm>

namespace cedar::obs {

std::uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const MetricsSnapshot::HistogramData* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::HistogramData::Percentile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested sample, 1-based.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5));
  std::uint64_t seen = 0;
  for (const auto& [index, n] : buckets) {
    if (seen + n < rank) {
      seen += n;
      continue;
    }
    // The ranked sample falls in this bucket; interpolate within it, then
    // clamp to the exactly-tracked min/max so tail queries are honest.
    const std::uint64_t low = Histogram::BucketLow(index);
    const std::uint64_t high = std::max(Histogram::BucketHigh(index), low + 1);
    const double frac =
        static_cast<double>(rank - seen) / static_cast<double>(n);
    const std::uint64_t value =
        low +
        static_cast<std::uint64_t>(frac * static_cast<double>(high - low));
    return std::clamp(value, min, max);
  }
  return max;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return &it->second;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  return &it->second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter.value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.name = name;
    data.count = hist.count();
    data.sum = hist.sum();
    data.min = hist.min();
    data.max = hist.max();
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (hist.bucket(i) != 0) data.buckets.emplace_back(i, hist.bucket(i));
    }
    snap.histograms.push_back(std::move(data));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter.Reset();
  for (auto& [name, hist] : histograms_) hist.Reset();
}

}  // namespace cedar::obs
