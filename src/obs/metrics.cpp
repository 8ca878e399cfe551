#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sgk::obs {

namespace {
// Thread-local so parallel multi-group workers can install a per-group
// registry without racing each other or the main thread's session registry.
// A freshly spawned worker sees nullptr (recording disabled) until its
// executor installs a sink.
thread_local MetricsRegistry* g_metrics = nullptr;
}  // namespace

MetricsRegistry* metrics() { return g_metrics; }
void set_metrics(MetricsRegistry* registry) { g_metrics = registry; }

int Histogram::bucket_index(double v) {
  if (!(v > 0) || std::isnan(v)) return 0;  // <= 0 and nan underflow
  int exp = 0;
  const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5, 1)
  --exp;                                    // v = (2*frac) * 2^exp, 2*frac in [1, 2)
  if (exp < kMinExp) return 0;
  if (exp >= kMaxExp) return kBucketCount - 1;
  const double within = 2.0 * frac - 1.0;  // [0, 1) across the decade
  int sub = static_cast<int>(within * kSubBuckets);
  sub = std::min(sub, kSubBuckets - 1);
  return 1 + (exp - kMinExp) * kSubBuckets + sub;
}

std::pair<double, double> Histogram::bucket_bounds(int index) {
  if (index <= 0) return {0.0, std::ldexp(1.0, kMinExp)};
  if (index >= kBucketCount - 1)
    return {std::ldexp(1.0, kMaxExp), std::numeric_limits<double>::infinity()};
  const int linear = index - 1;
  const int exp = kMinExp + linear / kSubBuckets;
  const int sub = linear % kSubBuckets;
  const double base = std::ldexp(1.0, exp);
  const double step = base / kSubBuckets;
  return {base + step * sub, base + step * (sub + 1)};
}

void Histogram::observe(double v) {
  if (std::isnan(v)) return;
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  ++buckets_[static_cast<std::size_t>(bucket_index(v))];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

double sample_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Index of the q-th observation (nearest-rank, 0-based).
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (static_cast<double>(seen + n - 1) >= rank) {
      const auto [lo, hi] = bucket_bounds(static_cast<int>(i));
      if (!std::isfinite(hi)) return max_;
      // Interpolate the rank's position inside this bucket.
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(n);
      const double v = lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
      return std::clamp(v, min_, max_);
    }
    seen += n;
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Json Histogram::to_json() const {
  Json j = Json::object();
  j.set("count", Json(count_));
  j.set("sum", Json(sum_));
  j.set("min", Json(min()));
  j.set("max", Json(max()));
  j.set("mean", Json(mean()));
  j.set("p50", Json(quantile(0.50)));
  j.set("p95", Json(quantile(0.95)));
  Json buckets = Json::array();
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const auto [lo, hi] = bucket_bounds(static_cast<int>(i));
    Json row = Json::array();
    row.push(Json(lo));
    row.push(Json(std::isfinite(hi) ? Json(hi) : Json(nullptr)));
    row.push(Json(buckets_[i]));
    buckets.push(std::move(row));
  }
  j.set("buckets", std::move(buckets));
  return j;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters()) counter(name).add(c.value());
  for (const auto& [name, h] : other.histograms()) histogram(name).merge(h);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other,
                                 const std::string& prefix) {
  for (const auto& [name, c] : other.counters()) {
    counter(prefix + name).add(c.value());
  }
  for (const auto& [name, h] : other.histograms()) {
    histogram(prefix + name).merge(h);
  }
}

Json MetricsRegistry::to_json() const {
  Json j = Json::object();
  Json cj = Json::object();
  for (const auto& [name, c] : counters_) cj.set(name, Json(c.value()));
  j.set("counters", std::move(cj));
  Json hj = Json::object();
  for (const auto& [name, h] : histograms_) hj.set(name, h.to_json());
  j.set("histograms", std::move(hj));
  return j;
}

}  // namespace sgk::obs
