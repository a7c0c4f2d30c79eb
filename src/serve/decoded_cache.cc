#include "serve/decoded_cache.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"

namespace utcq::serve {

DecodedTrajCache::DecodedTrajCache(size_t budget_bytes, uint32_t num_shards,
                                   obs::MetricRegistry* registry)
    : shards_(std::max<uint32_t>(1, num_shards)) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricRegistry>();
    registry = owned_registry_.get();
  }
  hits_ = &registry->GetCounter("serve.cache.hits");
  misses_ = &registry->GetCounter("serve.cache.misses");
  evictions_ = &registry->GetCounter("serve.cache.evictions");
  decoded_bytes_ = &registry->GetCounter("serve.cache.decoded_bytes");
  resident_bytes_ = &registry->GetGauge("serve.cache.resident_bytes");
  resident_entries_ = &registry->GetGauge("serve.cache.resident_entries");
  budget_per_shard_ = budget_bytes / shards_.size();
}

DecodedTrajCache::Shard& DecodedTrajCache::ShardFor(uint64_t key) const {
  // Mixed so sequential (shard, local) keys spread across the cache shards
  // instead of clustering on a few mutexes.
  return shards_[common::SplitMix64(key) % shards_.size()];
}

void DecodedTrajCache::EvictToBudget(Shard& shard) {
  while (shard.tracker.current_bytes() > budget_per_shard_ &&
         !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.tracker.Release(victim.bytes);
    resident_bytes_->Sub(static_cast<int64_t>(victim.bytes));
    resident_entries_->Sub(1);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_->Increment();
    shard.full = false;
  }
}

std::shared_ptr<const traj::DecodedTraj> DecodedTrajCache::GetOrDecode(
    uint64_t key, Admission admission, const DecodeFn& decode,
    PinOutcome* outcome) {
  Shard& shard = ShardFor(key);
  const bool if_room = admission == Admission::kIfRoom;
  {
    common::MutexLock lock(shard.mu);
    for (;;) {
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        hits_->Increment();
        if (outcome != nullptr) outcome->hit = true;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return it->second->value;
      }
      if (!if_room) break;
      // No room to fill and no licence to evict: the caller answers
      // without a decode, so this lookup is neither a hit nor a miss.
      if (shard.full || budget_per_shard_ == 0) return nullptr;
      if (!shard.admitting) {
        shard.admitting = true;
        break;
      }
      // Another point decode is probing this shard's room; its outcome
      // (admitted, or latched full) decides this lookup too.
      shard.admitted.Wait(shard.mu);
    }
    misses_->Increment();
  }

  // Decode unlocked: a multi-millisecond bitstream walk must not serialize
  // every other reader mapped to this shard.
  auto value =
      std::make_shared<const traj::DecodedTraj>(decode());
  const size_t bytes = value->ApproxBytes();
  decoded_bytes_->Add(bytes);
  if (outcome != nullptr) {
    outcome->hit = false;
    outcome->decoded_bytes = bytes;
  }

  common::MutexLock lock(shard.mu);
  if (if_room) {
    shard.admitting = false;
    shard.admitted.NotifyAll();
  }
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // A concurrent miss inserted first; keep the resident copy so pins
    // converge on one allocation.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }
  if (if_room && shard.tracker.current_bytes() + bytes > budget_per_shard_) {
    // Admitting would evict: hand the decode to this caller only, and send
    // the shard's later point misses to the bitstreams.
    shard.full = true;
    return value;
  }
  shard.lru.push_front(Entry{key, value, bytes});
  shard.index.emplace(key, shard.lru.begin());
  shard.tracker.Add(bytes);
  resident_bytes_->Add(static_cast<int64_t>(bytes));
  resident_entries_->Add(1);
  // The fresh entry sits at the front; under a tiny budget it may itself be
  // evicted (resident set stays empty) — the returned pin keeps it alive
  // for this caller regardless.
  EvictToBudget(shard);
  return value;
}

std::shared_ptr<const traj::DecodedTraj> DecodedTrajCache::Peek(
    uint64_t key) const {
  const Shard& shard = ShardFor(key);
  common::MutexLock lock(shard.mu);
  const auto it = shard.index.find(key);
  return it != shard.index.end() ? it->second->value : nullptr;
}

void DecodedTrajCache::Clear() {
  for (Shard& shard : shards_) {
    common::MutexLock lock(shard.mu);
    resident_bytes_->Sub(static_cast<int64_t>(shard.tracker.current_bytes()));
    resident_entries_->Sub(static_cast<int64_t>(shard.lru.size()));
    shard.lru.clear();
    shard.index.clear();
    shard.tracker.Reset();
    shard.full = false;
  }
}

DecodedTrajCache::Stats DecodedTrajCache::stats() const {
  Stats total;
  total.hits = hits_->value();
  total.misses = misses_->value();
  total.evictions = evictions_->value();
  total.decoded_bytes = decoded_bytes_->value();
  for (const Shard& shard : shards_) {
    common::MutexLock lock(shard.mu);
    total.resident_bytes += shard.tracker.current_bytes();
    total.resident_entries += shard.lru.size();
  }
  return total;
}

}  // namespace utcq::serve
