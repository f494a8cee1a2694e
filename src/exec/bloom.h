#ifndef MONSOON_EXEC_BLOOM_H_
#define MONSOON_EXEC_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace monsoon {

/// Register-blocked Bloom filter over 64-bit join-key hashes: one word per
/// expected build row (rounded up to a power of two), two probe bits per
/// key inside that word. A probe is a single cache-line touch, so the hash
/// join can reject a miss before the index's chain walk.
///
/// The filter is purely a fast path and is invisible to the cost model: it
/// stores exactly the hashes inserted into the build index, so a reject
/// implies the index holds no candidate for `h` — zero candidates are
/// charged either way, and a false positive falls through to the index
/// and behaves exactly like any other probe. Deterministic by construction
/// (no RNG, no addresses), so results and accounting are bit-identical
/// across runs and thread counts.
///
/// Bit usage: the word index reads bits [21, 21+log2(words)) and the two
/// probe bits read bits [0,6) and [6,12). The join index's buckets read
/// the top bits; overlap with those would only cost independence, not
/// correctness.
class JoinBloomFilter {
 public:
  explicit JoinBloomFilter(size_t expected_keys) {
    size_t words = 16;
    while (words < expected_keys) words <<= 1;
    words_.assign(words, 0);
    word_mask_ = words - 1;
  }

  void AddHash(uint64_t h) { words_[WordIndex(h)] |= Mask(h); }

  /// False means `h` was never inserted (no false negatives).
  bool MayContain(uint64_t h) const {
    uint64_t m = Mask(h);
    return (words_[WordIndex(h)] & m) == m;
  }

  size_t ApproxBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t WordIndex(uint64_t h) const {
    return static_cast<size_t>((h >> 21) & word_mask_);
  }
  static uint64_t Mask(uint64_t h) {
    return (uint64_t{1} << (h & 63)) | (uint64_t{1} << ((h >> 6) & 63));
  }

  std::vector<uint64_t> words_;
  uint64_t word_mask_ = 0;
};

}  // namespace monsoon

#endif  // MONSOON_EXEC_BLOOM_H_
