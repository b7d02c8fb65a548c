#include "obs/metrics.h"

#include <algorithm>

namespace gaea {
namespace obs {

int Histogram::BucketIndex(uint64_t v) {
  // Smallest i with v <= 2^i. 0 and 1 both land in bucket 0 (bound 2^0=1);
  // anything above the largest finite bound lands in the overflow bucket.
  if (v <= 1) return 0;
  if (v > BucketUpperBound(kNumFiniteBuckets - 1)) return kNumFiniteBuckets;
  // v >= 2 here: the bucket for v is ceil(log2(v)).
  int bits = 64 - __builtin_clzll(v - 1);  // ceil(log2(v)) for v >= 2
  return std::min(bits, kNumFiniteBuckets - 1);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.count = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

MetricsRegistry::Entry* MetricsRegistry::GetOrCreate(const std::string& name,
                                                     Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(name, std::move(entry)).first;
  }
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Entry* entry = GetOrCreate(name, Kind::kCounter);
  return entry->kind == Kind::kCounter ? entry->counter.get() : nullptr;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  Entry* entry = GetOrCreate(name, Kind::kGauge);
  return entry->kind == Kind::kGauge ? entry->gauge.get() : nullptr;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  Entry* entry = GetOrCreate(name, Kind::kHistogram);
  return entry->kind == Kind::kHistogram ? entry->histogram.get() : nullptr;
}

void MetricsRegistry::AddCollector(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(fn));
}

namespace {

// Base metric name: everything before a literal label suffix.
std::string BaseName(const std::string& name) {
  size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

// Splices histogram-series labels (le="...") into a possibly-labelled name:
//   h             -> h_bucket{le="2"}
//   h{pool="x"}   -> h_bucket{pool="x",le="2"}
std::string SeriesName(const std::string& name, const std::string& suffix,
                       const std::string& extra_label) {
  size_t brace = name.find('{');
  if (brace == std::string::npos) {
    if (extra_label.empty()) return name + suffix;
    return name + suffix + "{" + extra_label + "}";
  }
  std::string labels = name.substr(brace + 1, name.size() - brace - 2);
  std::string out = name.substr(0, brace) + suffix + "{" + labels;
  if (!extra_label.empty()) out += "," + extra_label;
  out += "}";
  return out;
}

}  // namespace

std::string MetricsRegistry::Render() const {
  std::vector<std::function<void()>> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collectors = collectors_;
  }
  for (const auto& fn : collectors) fn();

  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string last_base;
  for (const auto& [name, entry] : entries_) {
    std::string base = BaseName(name);
    bool new_base = base != last_base;
    last_base = base;
    switch (entry.kind) {
      case Kind::kCounter:
        if (new_base) out += "# TYPE " + base + " counter\n";
        out += name + " " + std::to_string(entry.counter->value()) + "\n";
        break;
      case Kind::kGauge:
        if (new_base) out += "# TYPE " + base + " gauge\n";
        out += name + " " + std::to_string(entry.gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        if (new_base) out += "# TYPE " + base + " histogram\n";
        Histogram::Snapshot snap = entry.histogram->snapshot();
        uint64_t cumulative = 0;
        for (int i = 0; i < Histogram::kNumFiniteBuckets; ++i) {
          cumulative += snap.buckets[i];
          out += SeriesName(name, "_bucket",
                            "le=\"" +
                                std::to_string(Histogram::BucketUpperBound(i)) +
                                "\"") +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += SeriesName(name, "_bucket", "le=\"+Inf\"") + " " +
               std::to_string(snap.count) + "\n";
        out += SeriesName(name, "_sum", "") + " " + std::to_string(snap.sum) +
               "\n";
        out += SeriesName(name, "_count", "") + " " +
               std::to_string(snap.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string ExpositionToJson(std::string_view text) {
  std::string json = "{";
  while (!text.empty()) {
    const size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    const size_t space = line.rfind(' ');
    if (line.starts_with('#') || space == std::string_view::npos) continue;
    const std::string_view series = line.substr(0, space);
    if (series.substr(0, series.find('{')).ends_with("_bucket")) continue;
    if (json.size() > 1) json += ',';
    json += '"';
    for (char c : series) {
      if (c == '"' || c == '\\') json += '\\';
      json += c;
    }
    json += "\":";
    json += line.substr(space + 1);
  }
  json += '}';
  return json;
}

}  // namespace obs
}  // namespace gaea
