#ifndef BLUSIM_COMMON_KMV_H_
#define BLUSIM_COMMON_KMV_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace blusim {

// K-Minimum-Values distinct-count sketch (paper section 4, reference [2]).
//
// The BLU runtime feeds every hashed grouping key through this sketch while
// the HASH evaluator runs; the resulting estimate of the number of groups is
// used to size the GPU hash table (instead of sizing it to the number of
// input rows, which would waste scarce device memory).
//
// Estimator: with the k smallest hash values observed and h_k the k-th
// smallest (normalized to [0,1]), distinct ~= (k - 1) / h_k.
class KmvSketch {
 public:
  explicit KmvSketch(size_t k = 256);

  // Adds one already-hashed value (use Mix64/Murmur3_64 upstream).
  void AddHash(uint64_t hash);

  // Merges another sketch (same k) into this one. Used when parallel
  // evaluator threads each maintain a local sketch.
  void Merge(const KmvSketch& other);

  // Estimated number of distinct values seen. Exact while fewer than k
  // distinct hashes have been observed.
  uint64_t Estimate() const;

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }

 private:
  void SiftUp(size_t i);
  void SiftDown(size_t i);

  // Membership over the kept hashes, so the duplicate check every row pays
  // costs O(1) instead of a scan of up to k values.
  size_t HomeSlot(uint64_t hash) const;
  bool Contains(uint64_t hash) const;
  void Insert(uint64_t hash);
  void Erase(uint64_t hash);

  size_t k_;
  // Max-heap of the k smallest hash values (root = largest of the kept set).
  std::vector<uint64_t> heap_;
  // Linear-probe set holding exactly the values in heap_: a power of two of
  // at least 2k slots, kFreeSlot marking a free one. kFreeSlot is itself a
  // valid hash, so whether it is kept lives in kept_free_value_ instead.
  static constexpr uint64_t kFreeSlot = ~0ULL;
  std::vector<uint64_t> slots_;
  int slot_shift_ = 0;  // HomeSlot takes the top log2(slots) product bits
  bool kept_free_value_ = false;
};

}  // namespace blusim

#endif  // BLUSIM_COMMON_KMV_H_
