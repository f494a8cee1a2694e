#ifndef MONSOON_QUERY_RELSET_H_
#define MONSOON_QUERY_RELSET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace monsoon {

/// A set of relations in a query, as a 64-bit mask over relation indices.
/// Queries in the paper's benchmarks have at most ~10 relations, so 64 is
/// generous. Used everywhere expressions are identified: plan nodes,
/// statistics keys, MDP states.
class RelSet {
 public:
  constexpr RelSet() : mask_(0) {}
  constexpr explicit RelSet(uint64_t mask) : mask_(mask) {}

  static RelSet Single(int index) {
    MONSOON_DCHECK(index >= 0 && index < 64) << "relation index " << index;
    return RelSet(uint64_t{1} << index);
  }

  uint64_t mask() const { return mask_; }
  bool empty() const { return mask_ == 0; }
  int count() const { return __builtin_popcountll(mask_); }

  bool Contains(int index) const { return (mask_ >> index) & 1; }
  bool ContainsAll(RelSet other) const { return (mask_ & other.mask_) == other.mask_; }
  bool Intersects(RelSet other) const { return (mask_ & other.mask_) != 0; }

  RelSet Union(RelSet other) const { return RelSet(mask_ | other.mask_); }
  RelSet Minus(RelSet other) const { return RelSet(mask_ & ~other.mask_); }

  void Add(int index) { mask_ |= uint64_t{1} << index; }

  /// Indices present, ascending.
  std::vector<int> Indices() const;

  bool operator==(const RelSet& other) const { return mask_ == other.mask_; }
  bool operator!=(const RelSet& other) const { return mask_ != other.mask_; }
  bool operator<(const RelSet& other) const { return mask_ < other.mask_; }

  /// "{0,2,3}" style rendering (indices only; callers map to aliases).
  std::string ToString() const;

 private:
  uint64_t mask_;
};

}  // namespace monsoon

#endif  // MONSOON_QUERY_RELSET_H_
