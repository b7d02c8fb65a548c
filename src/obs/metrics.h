// Lock-cheap metrics registry: counters, gauges, and latency histograms.
//
// The hot path is a single relaxed atomic add: callers look an instrument
// up once (registry mutex, name -> stable pointer) and then increment it
// forever after with no lock. The registry renders everything as
// Prometheus text exposition format; gauges whose value lives elsewhere
// (cache stats, buffer-pool stats, catalog sizes) are refreshed at scrape
// time by registered collector callbacks rather than being pushed on every
// mutation. See docs/OBSERVABILITY.md for the metric name schema.

#ifndef GAEA_OBS_METRICS_H_
#define GAEA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gaea {
namespace obs {

// Monotonically increasing counter.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time signed value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  // Raises the value to `v` when `v` is higher (a high-water mark); a lower
  // `v` costs one load and no store.
  void SetMax(int64_t v) {
    int64_t prev = value_.load(std::memory_order_relaxed);
    while (v > prev && !value_.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Latency histogram with fixed log-scale (power-of-two) buckets.
//
// Bucket i counts observations v with v <= 2^i (microseconds, when used
// for latency); the final bucket is +Inf. 28 finite buckets cover 1us to
// ~134s, which brackets everything Gaea does. Observe is wait-free: one
// relaxed add on the bucket, one on the running sum.
class Histogram {
 public:
  static constexpr int kNumFiniteBuckets = 28;
  static constexpr int kNumBuckets = kNumFiniteBuckets + 1;  // + overflow

  // Upper bound of finite bucket i: 2^i.
  static uint64_t BucketUpperBound(int i) { return uint64_t{1} << i; }

  // Index of the bucket counting `v`: the smallest i with v <= 2^i, or the
  // overflow bucket when v exceeds the largest finite bound.
  static int BucketIndex(uint64_t v);

  void Observe(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  // Snapshot of per-bucket counts (not cumulative), total count, and sum.
  struct Snapshot {
    uint64_t buckets[kNumBuckets];
    uint64_t count;
    uint64_t sum;
  };
  Snapshot snapshot() const;

  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

// One series of a labelled family: `family{label="value"}`. Gaea's label
// values are identifiers (process, operator, verb, journal names), which
// need no escaping.
inline std::string LabelledName(const std::string& family,
                                const std::string& label,
                                const std::string& value) {
  return family + "{" + label + "=\"" + value + "\"}";
}

// Name -> instrument registry with Prometheus text rendering.
//
// Lookup creates the instrument on first use and returns a pointer that
// stays valid for the registry's lifetime. Names follow Prometheus rules
// ([a-zA-Z_:][a-zA-Z0-9_:]*) and may carry a literal label suffix, e.g.
// `gaea_pool_page_hits{pool="heap"}`; the text renderer groups metrics by
// base name (everything before '{') for # TYPE lines.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Registers a callback run at the start of every Render, used to refresh
  // gauges whose source of truth lives in another subsystem (it typically
  // captures that subsystem and calls Set on gauges of this registry).
  void AddCollector(std::function<void()> fn);

  // Prometheus text exposition format, metrics sorted by name.
  std::string Render() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* GetOrCreate(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::vector<std::function<void()>> collectors_;
};

}  // namespace obs
}  // namespace gaea

#endif  // GAEA_OBS_METRICS_H_
