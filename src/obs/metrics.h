// Named counters and log-linear histograms for run-level observability.
//
// A MetricsRegistry is the aggregate side of the observability layer: the
// tracer records *where* virtual time went, the registry records *how much*
// and *how often*. Histograms use log-linear buckets (each power-of-two
// decade split into a fixed number of equal-width sub-buckets), which keeps
// relative quantile error bounded at ~12% across the nine orders of
// magnitude between a sub-microsecond hash charge and a multi-second WAN
// re-key, with a fixed, allocation-free observe path.
//
// Naming convention (see docs/observability.md): slash-separated paths,
// lowest-cardinality segment first, e.g. "event_ms/TGDH/join",
// "event_bytes/GDH/leave", "gcs/messages_stamped".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace sgk::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Histogram {
 public:
  /// Linear sub-buckets per power-of-two decade.
  static constexpr int kSubBuckets = 4;
  /// Smallest / largest resolved decade: values below 2^kMinExp land in the
  /// underflow bucket 0, values >= 2^kMaxExp in the overflow bucket.
  static constexpr int kMinExp = -20;
  static constexpr int kMaxExp = 40;
  static constexpr int kBucketCount = (kMaxExp - kMinExp) * kSubBuckets + 2;

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

  /// Quantile estimate (q in [0, 1]) with linear interpolation inside the
  /// containing bucket, clamped to the observed [min, max].
  double quantile(double q) const;

  /// Bucket index a value lands in (0 = underflow, kBucketCount-1 = overflow).
  static int bucket_index(double v);
  /// Half-open value range [lower, upper) of a bucket.
  static std::pair<double, double> bucket_bounds(int index);

  /// Dense bucket counts; empty until the first observe().
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  /// Folds another histogram into this one bucket-by-bucket. Exact for
  /// count/sum/min/max and bucket counts; quantiles of the merged histogram
  /// carry the same ~12% relative error as direct observation. Used by the
  /// multi-group server to roll per-group registries into the aggregate.
  void merge(const Histogram& other);

  /// {"count","sum","min","max","mean","p50","p95","buckets":[[lo,hi,n]...]}
  /// (only non-empty buckets are listed).
  Json to_json() const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Exact quantile (q in [0, 1]) of retained samples: sorts a copy and
/// interpolates linearly between the order statistics around rank
/// q * (n - 1), so q = 0 / 1 give the min / max and one sample is every
/// quantile; an empty input gives 0. Use it wherever every sample is kept
/// (report aggregates, soak and sweep tables; the committed baselines are
/// computed this way). Use Histogram::quantile where only bucket counts are
/// kept (mergeable registries, per-site wall timings), at up to one
/// bucket's relative error.
double sample_quantile(std::vector<double> samples, double q);

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  /// Adds every counter and folds every histogram from `other` into this
  /// registry, creating entries as needed. Deterministic as long as callers
  /// merge in a fixed order (counter addition commutes; histogram bucket
  /// counts commute; min/max commute).
  void merge_from(const MetricsRegistry& other);

  /// Like merge_from, but each metric name gains `prefix` (e.g.
  /// "group/g42/") so per-group registries can be folded into one report
  /// without the labels colliding.
  void merge_from(const MetricsRegistry& other, const std::string& prefix);

  /// {"counters": {name: value}, "histograms": {name: {...}}}
  Json to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

/// Ambient registry used by instrumentation sites; nullptr (the default)
/// disables metric recording entirely. Thread-local: each worker thread of a
/// parallel run has its own slot, so a shard executor can point workers at
/// per-group registries while the main thread keeps the session registry.
MetricsRegistry* metrics();
void set_metrics(MetricsRegistry* registry);

/// RAII install/restore of the calling thread's ambient registry. Used by
/// the multi-group server to scope every slice of a group's execution to
/// that group's own registry.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry* registry) : prev_(metrics()) {
    set_metrics(registry);
  }
  ~ScopedMetrics() { set_metrics(prev_); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* prev_;
};

}  // namespace sgk::obs
