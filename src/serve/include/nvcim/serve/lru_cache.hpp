#pragma once

#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "nvcim/common/check.hpp"

namespace nvcim::serve {

/// Least-recently-used cache with intrusive hit/miss accounting. Not
/// thread-safe by itself — the serving engine guards each get/put with its
/// own mutex and single-flights misses per key (see
/// ServingEngine::fetch_prompts), so a value is computed at most once
/// however many workers miss on it concurrently.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    NVCIM_CHECK_MSG(capacity > 0, "LRU capacity must be positive");
  }

  /// Value for `key` if cached (promoting it to most-recently-used).
  std::optional<Value> get(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Insert (or refresh) `key`, evicting the least-recently-used entry when
  /// at capacity.
  void put(const Key& key, Value value) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (order_.size() >= capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    order_.emplace_front(key, std::move(value));
    map_[key] = order_.begin();
  }

  bool contains(const Key& key) const { return map_.count(key) > 0; }

  /// Drop every entry whose key matches `pred`; returns how many were
  /// dropped. Used by tenant eviction to purge a user's decoded prompts
  /// (dropped entries do not count as capacity evictions).
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t dropped = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      if (pred(it->first)) {
        map_.erase(it->first);
        it = order_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  std::size_t size() const { return order_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  std::size_t evictions() const { return evictions_; }
  double hit_rate() const {
    const std::size_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  std::size_t capacity_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::list<std::pair<Key, Value>> order_;  ///< front = most recent
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator, Hash> map_;
};

/// Hash for (user_id, ovt_index) cache keys.
struct UserKeyHash {
  std::size_t operator()(const std::pair<std::size_t, std::size_t>& k) const {
    // splitmix-style mix of the two halves
    std::size_t h = k.first * 0x9E3779B97F4A7C15ull;
    h ^= k.second + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
  }
};

}  // namespace nvcim::serve
