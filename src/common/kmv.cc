#include "common/kmv.h"

#include <utility>

namespace blusim {

KmvSketch::KmvSketch(size_t k) : k_(k == 0 ? 1 : k) {
  heap_.reserve(k_);
  size_t slots = 2;
  slot_shift_ = 63;
  while (slots < 2 * k_) {
    slots <<= 1;
    --slot_shift_;
  }
  slots_.assign(slots, kFreeSlot);
}

size_t KmvSketch::HomeSlot(uint64_t hash) const {
  // Fibonacci hashing: the kept values are the k smallest, so they share
  // their high bits, and a caller may feed unmixed (even sequential) values;
  // the multiply spreads either case over the table.
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> slot_shift_);
}

bool KmvSketch::Contains(uint64_t hash) const {
  if (hash == kFreeSlot) return kept_free_value_;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(hash);; i = (i + 1) & mask) {
    if (slots_[i] == hash) return true;
    if (slots_[i] == kFreeSlot) return false;
  }
}

void KmvSketch::Insert(uint64_t hash) {
  if (hash == kFreeSlot) {
    kept_free_value_ = true;
    return;
  }
  const size_t mask = slots_.size() - 1;
  size_t i = HomeSlot(hash);
  while (slots_[i] != kFreeSlot) i = (i + 1) & mask;
  slots_[i] = hash;
}

void KmvSketch::Erase(uint64_t hash) {
  if (hash == kFreeSlot) {
    kept_free_value_ = false;
    return;
  }
  const size_t mask = slots_.size() - 1;
  size_t hole = HomeSlot(hash);
  while (slots_[hole] != hash) hole = (hole + 1) & mask;
  // Backward-shift delete: pull each later entry of the probe run into the
  // hole when the hole lies on its path from its home slot, so no tombstone
  // is left and every lookup still stops at the first free slot.
  for (size_t j = (hole + 1) & mask; slots_[j] != kFreeSlot;
       j = (j + 1) & mask) {
    const size_t home = HomeSlot(slots_[j]);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kFreeSlot;
}

void KmvSketch::SiftUp(size_t i) {
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (heap_[parent] >= heap_[i]) break;
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

void KmvSketch::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    size_t left = 2 * i + 1;
    size_t right = left + 1;
    size_t largest = i;
    if (left < n && heap_[left] > heap_[largest]) largest = left;
    if (right < n && heap_[right] > heap_[largest]) largest = right;
    if (largest == i) break;
    std::swap(heap_[i], heap_[largest]);
    i = largest;
  }
}

void KmvSketch::AddHash(uint64_t hash) {
  if (heap_.size() < k_) {
    if (Contains(hash)) return;
    Insert(hash);
    heap_.push_back(hash);
    SiftUp(heap_.size() - 1);
    return;
  }
  // Full: only hashes smaller than the current k-th minimum matter.
  if (hash >= heap_[0] || Contains(hash)) return;
  Erase(heap_[0]);
  Insert(hash);
  heap_[0] = hash;
  SiftDown(0);
}

void KmvSketch::Merge(const KmvSketch& other) {
  for (uint64_t h : other.heap_) AddHash(h);
}

uint64_t KmvSketch::Estimate() const {
  if (heap_.size() < k_) {
    return heap_.size();  // exact below k distinct values
  }
  // Normalize the k-th smallest hash to (0, 1].
  const double hk = static_cast<double>(heap_[0]) /
                    18446744073709551616.0;  // 2^64
  if (hk <= 0.0) return heap_.size();
  const double est = (static_cast<double>(k_) - 1.0) / hk;
  return static_cast<uint64_t>(est);
}

}  // namespace blusim
