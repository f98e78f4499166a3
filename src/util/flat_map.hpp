// FlatMap — an open-addressing uint64 → T table for per-operation books.
//
// One power-of-two slot array with linear probing, kept at most 7/8 full,
// and a parallel occupancy byte per slot. Erase is backward-shift deletion:
// the entries after the hole that probed past it move back, so the table
// holds no tombstones and a table whose population stays bounded never
// rehashes. Once it has grown to its working size, insert, find and erase
// allocate nothing (std::unordered_map allocates a node per insert).
//
// Iteration visits slots in hash order, which depends on the capacity the
// table grew to. Callers that need a deterministic order collect and sort
// the keys. Pointers returned by find/insert stay valid until the next
// insert or erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rda::util {

template <typename T>
class FlatMap {
 public:
  struct Slot {
    std::uint64_t key = 0;
    T value{};
  };

  /// Read-only iteration over the occupied slots, in slot order.
  class const_iterator {
   public:
    const_iterator(const FlatMap* map, std::size_t index)
        : map_(map), index_(index) {
      skip();
    }
    const Slot& operator*() const { return map_->slots_[index_]; }
    const Slot* operator->() const { return &map_->slots_[index_]; }
    const_iterator& operator++() {
      ++index_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return index_ == o.index_;
    }

   private:
    void skip() {
      while (index_ < map_->used_.size() && map_->used_[index_] == 0) {
        ++index_;
      }
    }
    const FlatMap* map_;
    std::size_t index_;
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, used_.size()); }

  T* find(std::uint64_t key) {
    const std::size_t i = locate(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  const T* find(std::uint64_t key) const {
    const std::size_t i = locate(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  bool contains(std::uint64_t key) const { return locate(key) != kNone; }

  /// Inserts (key, value) unless `key` is present; returns the mapped value
  /// and whether this call inserted it.
  std::pair<T*, bool> insert(std::uint64_t key, T value) {
    if (const std::size_t i = locate(key); i != kNone) {
      return {&slots_[i].value, false};
    }
    if ((size_ + 1) * 8 > capacity() * 7) {
      rehash(capacity() == 0 ? kMinCapacity : 2 * capacity());
    }
    std::size_t i = home(key);
    while (used_[i] != 0) i = (i + 1) & mask_;
    used_[i] = 1;
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++size_;
    return {&slots_[i].value, true};
  }

  /// The mapped value, default-constructed first when absent.
  T& operator[](std::uint64_t key) { return *insert(key, T{}).first; }

  /// Removes `key`; returns whether it was present.
  bool erase(std::uint64_t key) {
    std::size_t hole = locate(key);
    if (hole == kNone) return false;
    for (std::size_t j = (hole + 1) & mask_; used_[j] != 0;
         j = (j + 1) & mask_) {
      // The entry at j may fill the hole only if its home slot does not lie
      // cyclically in (hole, j]: otherwise moving it would put it before
      // its home, out of its own probe run.
      const std::size_t h = home(slots_[j].key);
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
    used_[hole] = 0;
    slots_[hole].value = T{};
    --size_;
    return true;
  }

  /// Empties the table and keeps its capacity.
  void clear() {
    for (std::size_t i = 0; i < used_.size(); ++i) {
      if (used_[i] != 0) slots_[i].value = T{};
      used_[i] = 0;
    }
    size_ = 0;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer: keys that differ only in high bits (node ids
    // packed above period ids) still spread over the low index bits.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }

  std::size_t locate(std::uint64_t key) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key); used_[i] != 0; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return i;
    }
    return kNone;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old_slots(new_capacity);
    std::vector<std::uint8_t> old_used(new_capacity, 0);
    old_slots.swap(slots_);
    old_used.swap(used_);
    mask_ = new_capacity - 1;
    for (std::size_t i = 0; i < old_used.size(); ++i) {
      if (old_used[i] == 0) continue;
      std::size_t j = home(old_slots[i].key);
      while (used_[j] != 0) j = (j + 1) & mask_;
      used_[j] = 1;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rda::util
