#include "core/derivation_cache.h"

#include "util/crc32.h"
#include "util/serialize.h"

namespace gaea {

std::string DerivationCache::MakeKey(
    const ProcessDef& def,
    const std::map<std::string, std::vector<Oid>>& inputs) {
  // Parameters are folded in as a CRC of their serialized form: "the same
  // derivation method with different parameters represents different
  // processes" (§2.1.2).
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(def.params().size()));
  for (const auto& [name, value] : def.params()) {
    w.PutString(name);
    value.Serialize(&w);
  }
  uint32_t params_crc = Crc32(w.buffer().data(), w.buffer().size());

  std::string key = def.name();
  key += '#';
  key += std::to_string(def.version());
  key += '#';
  key += std::to_string(params_crc);
  for (const auto& [arg, oids] : inputs) {  // std::map: lexicographic order
    key += '#';
    key += arg;
    key += '=';
    for (size_t i = 0; i < oids.size(); ++i) {
      if (i > 0) key += ',';
      key += std::to_string(oids[i]);
    }
  }
  return key;
}

std::optional<Oid> DerivationCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_++;
    return std::nullopt;
  }
  hits_++;
  entries_.splice(entries_.begin(), entries_, it->second);
  return entries_.front().output;
}

std::optional<Oid> DerivationCache::Peek(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second->output;
}

void DerivationCache::Insert(const std::string& key, Oid output) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->output = output;
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  if (capacity_ == 0) return;
  while (entries_.size() >= capacity_) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
    evictions_++;
  }
  entries_.push_front(Entry{key, output});
  index_[key] = entries_.begin();
}

void DerivationCache::InvalidateOutput(Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->output == oid) {
      index_.erase(it->key);
      it = entries_.erase(it);
      invalidations_++;
    } else {
      ++it;
    }
  }
}

void DerivationCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_ += entries_.size();
  entries_.clear();
  index_.clear();
}

DerivationCache::Stats DerivationCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.invalidations = invalidations_;
  s.entries = entries_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace gaea
