#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include <fcntl.h>
#include <unistd.h>


namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : rank - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

namespace {

struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      entries[i] = c;
    }
  }
};

uint32_t Crc32cTableDriven(uint32_t crc, const uint8_t* p, size_t n) {
  static const Crc32cTable table;
  for (size_t i = 0; i < n; ++i) {
    crc = table.entries[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(uint32_t crc,
                                                           const uint8_t* p,
                                                           size_t n) {
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = __builtin_ia32_crc32di(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n > 0) {
    c32 = __builtin_ia32_crc32qi(c32, *p);
    ++p;
    --n;
  }
  return c32;
}
#endif

}  // namespace

uint32_t Crc32c(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
#if defined(__x86_64__)
  static const bool hardware = __builtin_cpu_supports("sse4.2");
  if (hardware) return ~Crc32cHardware(~0u, p, size);
#endif
  return ~Crc32cTableDriven(~0u, p, size);
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t JournalBytes(const std::string& dir, const std::string& prefix) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  for (const std::string& sub : {dir, dir + "/archive"}) {
    std::error_code ec;
    for (fs::directory_iterator it(sub, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->is_regular_file(ec) &&
          it->path().filename().string().rfind(prefix, 0) == 0) {
        total += it->file_size(ec);
      }
    }
  }
  return total;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void SyncFileSystem(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double Snapshot::Reg(const std::string& name) const {
  auto it = registry.find(name);
  return it == registry.end() ? 0 : it->second;
}

Snapshot TakeSnapshot(gaea::GaeaKernel& kernel,
                      const gaea::net::GaeaServer& server,
                      const std::string& dir) {
  Snapshot s;
  s.kernel = kernel.GetStats();
  s.server = server.stats();
  s.registry = ParseExposition(kernel.metrics().Render());
  s.task_journal_bytes = JournalBytes(dir, "tasks.");
  return s;
}

namespace {

// Length of the union of [start, end) intervals clipped to [lo, hi).
double CoveredMicros(std::vector<std::pair<uint64_t, uint64_t>> iv, uint64_t lo,
                     uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return static_cast<double>(covered);
}

std::vector<double> Gather(const std::map<std::string, std::vector<double>>& m,
                           const std::string& prefix) {
  std::vector<double> out;
  for (const auto& [name, v] : m) {
    if (name.rfind(prefix, 0) == 0) out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

}  // namespace

std::vector<double> SpanFold::SelfByPrefix(const std::string& prefix) const {
  return Gather(self_us, prefix);
}

std::vector<double> SpanFold::TotalByPrefix(const std::string& prefix) const {
  return Gather(total_us, prefix);
}

SpanFold FoldSpans(const std::vector<gaea::obs::Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const gaea::obs::Span& s : spans) {
    if (s.parent_id != 0) {
      children[s.parent_id].emplace_back(s.start_us,
                                         s.start_us + s.duration_us);
    }
  }
  SpanFold fold;
  struct Pair {
    const gaea::obs::Span* rpc = nullptr;
    const gaea::obs::Span* request = nullptr;
    double request_self = 0;
  };
  std::unordered_map<uint64_t, Pair> by_trace;
  std::vector<double> self_of(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const gaea::obs::Span& s = spans[i];
    double self = static_cast<double>(s.duration_us);
    auto it = children.find(s.span_id);
    if (it != children.end()) {
      self -= CoveredMicros(it->second, s.start_us, s.start_us + s.duration_us);
    }
    self_of[i] = self;
    fold.self_us[s.name].push_back(self);
    fold.total_us[s.name].push_back(static_cast<double>(s.duration_us));
    if (s.name.rfind("rpc:", 0) == 0) {
      by_trace[s.trace_id].rpc = &s;
    } else if (s.name.rfind("request:", 0) == 0) {
      by_trace[s.trace_id].request = &s;
      by_trace[s.trace_id].request_self = self;
    }
  }
  for (const auto& [trace, pair] : by_trace) {
    if (pair.rpc == nullptr || pair.request == nullptr) continue;
    SpanFold::Verb& verb = fold.verbs[pair.rpc->name.substr(4)];
    double rpc = static_cast<double>(pair.rpc->duration_us);
    double request = static_cast<double>(pair.request->duration_us);
    verb.rpc_us.push_back(rpc);
    verb.request_us.push_back(request);
    verb.outside_us.push_back(rpc > request ? rpc - request : 0);
    verb.request_self_us.push_back(pair.request_self);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const gaea::obs::Span& s = spans[i];
    auto it = by_trace.find(s.trace_id);
    if (it == by_trace.end() || it->second.rpc == nullptr ||
        it->second.request == nullptr || &s == it->second.rpc ||
        &s == it->second.request) {
      continue;
    }
    fold.verbs[it->second.rpc->name.substr(4)].inner_self_total_us[s.name] +=
        self_of[i];
  }
  return fold;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
