// FlatMap: an open-addressing hash map for keys an AP does not allocate.
//
// Ids an AP hands out itself (eNB UE id, MME UE id, GrantId) index dense
// tables directly. Keys that arrive from outside — an IMSI, a peer's
// CellId — can take any value, so they need a hash map; this one keeps
// every entry in one contiguous array (linear probing, Fibonacci hashing
// of the key's integer value, backward-shift erase, so no tombstones).
// A lookup is one multiply and, at the load factors kept here, one or
// two adjacent slots: no node per entry, no bucket list to chase.
//
// K is a StrongId (any type with an integral value()). Pointers and
// references into the map are invalidated by any insert or erase
// (entries move on growth and on erase). find_if scans in slot order,
// which depends only on the sequence of inserts and erases, so it is
// deterministic for a deterministic run.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dlte {

template <typename K, typename V>
class FlatMap {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] V* find(K key) {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const V* find(K key) const {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] bool contains(K key) const { return locate(key) != kAbsent; }

  // The value under `key`, default-constructed first when absent; the
  // flag says whether it was.
  std::pair<V*, bool> try_emplace(K key) {
    if (const std::size_t i = locate(key); i != kAbsent) {
      return {&slots_[i].value, false};
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    std::size_t i = home(key);
    while (slots_[i].used) i = (i + 1) & mask();
    slots_[i].key = key;
    slots_[i].used = true;
    ++size_;
    return {&slots_[i].value, true};
  }
  V& operator[](K key) { return *try_emplace(key).first; }
  V& insert_or_assign(K key, V value) {
    V& slot = *try_emplace(key).first;
    slot = std::move(value);
    return slot;
  }

  bool erase(K key) {
    std::size_t i = locate(key);
    if (i == kAbsent) return false;
    // Backward shift: pull each later entry of the probe run into the
    // hole when the hole lies between its home slot and where it sits.
    for (std::size_t j = (i + 1) & mask(); slots_[j].used;
         j = (j + 1) & mask()) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask()) >= ((j - i) & mask())) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

  // Drops every entry and keeps the capacity.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  // The first value (in slot order) that `pred` accepts, or nullptr.
  template <typename Pred>
  [[nodiscard]] const V* find_if(Pred&& pred) const {
    for (const Slot& s : slots_) {
      if (s.used && pred(s.value)) return &s.value;
    }
    return nullptr;
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool used{false};
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};
  static constexpr std::size_t kMinSlots = 8;

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(K key) const {
    const auto raw = static_cast<std::uint64_t>(key.value());
    return static_cast<std::size_t>((raw * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  [[nodiscard]] std::size_t locate(K key) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      if (!slots_[i].used) return kAbsent;
      if (slots_[i].key == key) return i;
    }
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(old.empty() ? kMinSlots : 2 * old.size());
    shift_ = 64 - std::countr_zero(slots_.size());
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = home(s.key);
      while (slots_[i].used) i = (i + 1) & mask();
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_{0};
  int shift_{64};
};

}  // namespace dlte
