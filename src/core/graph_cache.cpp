#include "core/graph_cache.hpp"

#include <utility>

namespace padlock {

GraphCache& GraphCache::instance() {
  static GraphCache cache;
  return cache;
}

std::shared_ptr<const Graph> GraphCache::get_or_build(
    const std::string& family, std::size_t nodes, int degree,
    std::uint64_t seed, bool* hit) {
  build::FamilyKey key = build::canonical_key(family, nodes, degree, seed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      if (hit != nullptr) *hit = true;
      return it->second;
    }
  }
  // Build outside the lock so distinct menu entries construct concurrently.
  // Two threads racing the same key both build; the first insert wins and
  // the loser adopts it — deterministic builders make the copies identical.
  auto built = std::make_shared<const Graph>(
      build::family(family, nodes, degree, seed));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = entries_.emplace(std::move(key), built);
  std::shared_ptr<const Graph> result = it->second;
  if (inserted) {
    order_.push_back(it->first);
    if (order_.size() > kCapacity) {
      entries_.erase(order_.front());  // outstanding shared_ptrs stay valid
      order_.pop_front();
      ++stats_.evictions;
    }
  }
  ++stats_.misses;
  if (hit != nullptr) *hit = false;
  return result;
}

void GraphCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  order_.clear();
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

GraphCacheStats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace padlock
