// Open-addressing hash containers for the simulator/scheduler hot paths.
//
// `std::map`/`std::set` dominate the profile once topologies reach
// hundreds of switches: every lookup chases red-black-tree pointers and
// every insert allocates a node.  `FlatHashMap`/`FlatHashSet` store
// elements inline in one power-of-two slot array with linear probing, so
// the common hit is one mix + one or two cache lines and inserts amortize
// to a handful of moves.
//
// Design constraints, in order:
//   * Determinism.  Nothing here depends on pointer values or OS entropy:
//     the hash of a given key is the same in every run, so even code that
//     iterates a table (none of the hot paths do) behaves reproducibly.
//   * No dependencies.  The container is a single header over <vector>,
//     because the build may not add third-party libraries.
//   * Tombstone deletion.  erase() marks the slot dead; dead slots are
//     recycled by inserts and compacted away on rehash.  The fault
//     injector's targeted-drop rules are the only erase-heavy user, and
//     their population is tiny.
//
// Not provided on purpose: iterator stability across rehash, node
// handles, or a bucket interface — the callers only need find / emplace /
// erase / iterate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

namespace cicero::util {

/// SplitMix64 finalizer: a full-avalanche mix so that dense integer keys
/// (update ids, node ids) spread over the table instead of clustering.
constexpr std::uint64_t hash_mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Placement salt for the determinism sweep (DESIGN.md §13).  The salt
// perturbs only where keys land in FlatHashMap/FlatHashSet slot arrays —
// never RNG seeding or any simulated quantity — so two runs under
// different salts must produce bit-identical run reports; a divergence
// proves some output iterated a table in placement order.  0 (the
// historical placement) unless a ScopedHashSalt is live.
inline std::uint64_t g_hash_salt = 0;

/// Sets the placement salt for the scope and restores the previous one on
/// exit (the in-process salt sweep).  Enter and leave only while no table
/// is live: existing tables keep their old placement and would miss
/// lookups hashed with the new salt.
class ScopedHashSalt {
 public:
  explicit ScopedHashSalt(std::uint64_t salt) : previous_(g_hash_salt) { g_hash_salt = salt; }
  ~ScopedHashSalt() { g_hash_salt = previous_; }
  ScopedHashSalt(const ScopedHashSalt&) = delete;
  ScopedHashSalt& operator=(const ScopedHashSalt&) = delete;

 private:
  std::uint64_t previous_;
};

/// Default hasher: integral keys get the salted 64-bit mix; other types
/// fall back to std::hash (deterministic for everything we key on except
/// pointers, which callers must not use as keys — see CpuServer's op
/// histograms, and simlint's pointer-key rule).
template <typename K>
struct FlatHash {
  std::uint64_t operator()(const K& k) const {
    if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
      return hash_mix64(static_cast<std::uint64_t>(k) ^ g_hash_salt);
    } else {
      return static_cast<std::uint64_t>(std::hash<K>{}(k)) ^ g_hash_salt;
    }
  }
};

/// FNV-1a over the character content (basis offset by the placement
/// salt); shared by std::string and std::string_view keys so the two are
/// interchangeable at lookup time.
struct StringHash {
  using is_transparent = void;
  std::uint64_t operator()(std::string_view s) const {
    std::uint64_t h = 0xCBF29CE484222325ULL ^ g_hash_salt;
    for (const char c : s) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001B3ULL;
    }
    return h;
  }
};

template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatHashMap {
 public:
  using value_type = std::pair<K, V>;

  FlatHashMap() = default;
  explicit FlatHashMap(std::size_t expected) { reserve(expected); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    states_.clear();
    size_ = 0;
    used_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 7 / 8 < n) cap *= 2;
    if (cap > states_.size()) rehash(cap);
  }

  /// Returns a pointer to the mapped value, or nullptr.  `key` may be any
  /// type the hasher accepts and that compares with K (heterogeneous
  /// lookup, e.g. string_view against string keys).
  template <typename K2>
  V* find(const K2& key) {
    const std::size_t i = find_index(key);
    return i == kNpos ? nullptr : &slots_[i].second;
  }
  template <typename K2>
  const V* find(const K2& key) const {
    const std::size_t i = find_index(key);
    return i == kNpos ? nullptr : &slots_[i].second;
  }
  template <typename K2>
  bool contains(const K2& key) const {
    return find_index(key) != kNpos;
  }

  /// Inserts (key, value) if absent; returns (slot value ref, inserted).
  template <typename K2, typename... Args>
  std::pair<V*, bool> try_emplace(K2&& key, Args&&... args) {
    grow_if_needed();
    const std::uint64_t h = Hash{}(key);
    std::size_t i = static_cast<std::size_t>(h) & (states_.size() - 1);
    std::size_t first_dead = kNpos;
    while (true) {
      if (states_[i] == State::kEmpty) {
        const std::size_t target = first_dead != kNpos ? first_dead : i;
        if (states_[target] == State::kEmpty) ++used_;
        slots_[target].first = K(std::forward<K2>(key));
        slots_[target].second = V(std::forward<Args>(args)...);
        states_[target] = State::kFull;
        ++size_;
        return {&slots_[target].second, true};
      }
      if (states_[i] == State::kDead) {
        if (first_dead == kNpos) first_dead = i;
      } else if (slots_[i].first == key) {
        return {&slots_[i].second, false};
      }
      i = (i + 1) & (states_.size() - 1);
    }
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  V& at(const K& key) {
    V* v = find(key);
    if (v == nullptr) throw std::out_of_range("FlatHashMap::at");
    return *v;
  }
  const V& at(const K& key) const {
    const V* v = find(key);
    if (v == nullptr) throw std::out_of_range("FlatHashMap::at");
    return *v;
  }

  template <typename K2>
  bool erase(const K2& key) {
    const std::size_t i = find_index(key);
    if (i == kNpos) return false;
    states_[i] = State::kDead;
    slots_[i] = value_type{};  // release any owned resources now
    --size_;
    return true;
  }

  /// Calls fn(key, value) for every live entry, in slot order.  Slot order
  /// is a deterministic function of the insert/erase history, but NOT
  /// insertion order — callers that need an ordered view must sort.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == State::kFull) fn(slots_[i].first, slots_[i].second);
    }
  }

 private:
  enum class State : std::uint8_t { kEmpty = 0, kFull = 1, kDead = 2 };
  static constexpr std::size_t kNpos = SIZE_MAX;
  static constexpr std::size_t kMinCapacity = 16;

  template <typename K2>
  std::size_t find_index(const K2& key) const {
    if (states_.empty()) return kNpos;
    const std::uint64_t h = Hash{}(key);
    std::size_t i = static_cast<std::size_t>(h) & (states_.size() - 1);
    while (states_[i] != State::kEmpty) {
      if (states_[i] == State::kFull && slots_[i].first == key) return i;
      i = (i + 1) & (states_.size() - 1);
    }
    return kNpos;
  }

  void grow_if_needed() {
    if (states_.empty()) {
      rehash(kMinCapacity);
    } else if ((used_ + 1) * 8 > states_.size() * 7) {
      // Rehash at 7/8 occupancy counting tombstones; doubling also purges
      // them, so erase-heavy workloads can't degrade probe lengths.
      rehash(size_ * 8 >= states_.size() * 7 ? states_.size() * 2 : states_.size());
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<State> old_states = std::move(states_);
    slots_.assign(new_cap, value_type{});
    states_.assign(new_cap, State::kEmpty);
    size_ = 0;
    used_ = 0;
    for (std::size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] == State::kFull) {
        try_emplace(std::move(old_slots[i].first), std::move(old_slots[i].second));
      }
    }
  }

  std::vector<value_type> slots_;
  std::vector<State> states_;
  std::size_t size_ = 0;  ///< live entries
  std::size_t used_ = 0;  ///< live + tombstoned slots (probe-length bound)
};

template <typename K, typename Hash = FlatHash<K>>
class FlatHashSet {
 public:
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }
  bool insert(const K& key) { return map_.try_emplace(key, Unit{}).second; }
  template <typename K2>
  bool contains(const K2& key) const {
    return map_.contains(key);
  }
  template <typename K2>
  bool erase(const K2& key) {
    return map_.erase(key);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each([&fn](const K& k, const Unit&) { fn(k); });
  }

 private:
  struct Unit {};
  FlatHashMap<K, Unit, Hash> map_;
};

/// Packs an unordered (a, b) pair of 32-bit ids into one hashable key;
/// used for link-keyed tables (loss rates, capacity-release indexes).
constexpr std::uint64_t unordered_pair_key(std::uint32_t a, std::uint32_t b) {
  const std::uint64_t lo = a < b ? a : b;
  const std::uint64_t hi = a < b ? b : a;
  return (hi << 32) | lo;
}

/// Packs an ordered (from, to) pair (targeted drops are directional).
constexpr std::uint64_t ordered_pair_key(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace cicero::util
