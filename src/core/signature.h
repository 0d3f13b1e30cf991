// I/O-node signatures and the distance metric (Sec. IV-B).
//
// Each data access carries a signature: one bit per I/O node, set when the
// access touches that node.  For two signatures over n nodes the paper
// defines
//
//   distance(g1, g2) = n - similarity(g1, g2) + difference(g1, g2)
//
// where `similarity` counts positions where both are 1 (active nodes that
// would be reused) and `difference` counts positions where they differ
// (additional nodes that would have to be turned on).  Smaller distance =
// better I/O-node reuse.
//
// Representation: the first 64 bits live inline in a single word, so the
// common configurations (Table II uses 8 I/O nodes) never touch the heap —
// constructing, copying and OR-ing signatures is allocation-free, and
// `similarity`/`difference`/`distance` are a couple of inline popcounts.
// Signatures over more than 64 nodes spill the remaining words into a
// vector sized once at construction.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace dasched {

/// Number of set bits in `w`, as the SWAR bit-trick.  The build targets
/// baseline x86-64, which has no POPCNT instruction, so `std::popcount`
/// there is a call into libgcc (`__popcountdi2`); this form stays a dozen
/// inline ALU operations on every target.
[[nodiscard]] constexpr int popcount_word(std::uint64_t w) {
  w -= (w >> 1) & 0x5555555555555555ULL;
  w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
  w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int>((w * 0x0101010101010101ULL) >> 56);
}

// dasched-lint: allow(hot-alloc): the copy constructor copies `rest_`,
// which is empty (never allocates) for clusters of <= 64 I/O nodes.
class Signature {
 public:
  Signature() = default;

  /// An all-zero signature over `num_nodes` I/O nodes.
  explicit Signature(int num_nodes);

  /// Parses "0110"-style bit strings (index 0 first, as in the paper's
  /// tables); characters other than '0'/'1' are rejected.
  [[nodiscard]] static Signature from_bits(std::string_view bits);

  /// A signature over `num_nodes` nodes with the given node indices set.
  [[nodiscard]] static Signature from_nodes(int num_nodes,
                                            std::initializer_list<int> nodes);

  void set(int node) {
    assert(node >= 0 && node < n_);
    if (node < kWordBits) {
      word0_ |= 1ULL << node;
    } else {
      rest_[static_cast<std::size_t>(node / kWordBits) - 1] |=
          1ULL << (node % kWordBits);
    }
  }

  void reset(int node) {
    assert(node >= 0 && node < n_);
    if (node < kWordBits) {
      word0_ &= ~(1ULL << node);
    } else {
      rest_[static_cast<std::size_t>(node / kWordBits) - 1] &=
          ~(1ULL << (node % kWordBits));
    }
  }

  [[nodiscard]] bool test(int node) const {
    assert(node >= 0 && node < n_);
    if (node < kWordBits) return (word0_ >> node) & 1ULL;
    return (rest_[static_cast<std::size_t>(node / kWordBits) - 1] >>
            (node % kWordBits)) &
           1ULL;
  }

  /// Zeroes every bit; keeps the node count and any spill storage.
  void clear() {
    word0_ = 0;
    for (std::uint64_t& w : rest_) w = 0;
  }

  /// Number of I/O nodes this signature ranges over (n).
  [[nodiscard]] int size() const { return n_; }

  /// Number of set bits.
  [[nodiscard]] int popcount() const {
    int total = popcount_word(word0_);
    for (std::uint64_t w : rest_) total += popcount_word(w);
    return total;
  }

  /// True when any bit is set — early-exits on the first nonzero word.
  [[nodiscard]] bool any() const {
    if (word0_ != 0) return true;
    for (std::uint64_t w : rest_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// ORs `other` in; true when that set at least one new bit.
  bool merge(const Signature& other) {
    assert(n_ == other.n_);
    std::uint64_t added = other.word0_ & ~word0_;
    word0_ |= other.word0_;
    for (std::size_t i = 0; i < rest_.size(); ++i) {
      added |= other.rest_[i] & ~rest_[i];
      rest_[i] |= other.rest_[i];
    }
    return added != 0;
  }

  Signature& operator|=(const Signature& other) {
    (void)merge(other);
    return *this;
  }

  [[nodiscard]] friend Signature operator|(Signature a, const Signature& b) {
    a |= b;
    return a;
  }

  bool operator==(const Signature&) const = default;

  /// A 64-bit mix of the bits: equal signatures hash equal.  For
  /// open-addressed tables; allocation-free.
  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = word0_ ^ static_cast<std::uint64_t>(n_);
    for (std::uint64_t w : rest_) {
      h = ((h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL) ^ w;
    }
    h ^= h >> 31;
    h *= 0x94d049bb133111ebULL;
    return h ^ (h >> 29);
  }

  /// Visits the index of every set bit in ascending order — the
  /// allocation-free replacement for `nodes()` on hot paths.
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    for (std::uint64_t w = word0_; w != 0; w &= w - 1) {
      fn(std::countr_zero(w));
    }
    for (std::size_t i = 0; i < rest_.size(); ++i) {
      const int base = (static_cast<int>(i) + 1) * kWordBits;
      for (std::uint64_t w = rest_[i]; w != 0; w &= w - 1) {
        fn(base + std::countr_zero(w));
      }
    }
  }

  /// Indices of the set bits, ascending.  Allocates; tests and cold paths
  /// only — hot paths use `for_each_node`.
  [[nodiscard]] std::vector<int> nodes() const;

  [[nodiscard]] std::string to_string() const;

  /// True when the two signatures share at least one set bit.
  [[nodiscard]] friend bool intersects(const Signature& a, const Signature& b) {
    assert(a.n_ == b.n_);
    if ((a.word0_ & b.word0_) != 0) return true;
    for (std::size_t i = 0; i < a.rest_.size(); ++i) {
      if ((a.rest_[i] & b.rest_[i]) != 0) return true;
    }
    return false;
  }

  /// Count of positions where both signatures have a 1.
  [[nodiscard]] friend int similarity(const Signature& a, const Signature& b) {
    assert(a.n_ == b.n_);
    int total = popcount_word(a.word0_ & b.word0_);
    for (std::size_t i = 0; i < a.rest_.size(); ++i)
      total += popcount_word(a.rest_[i] & b.rest_[i]);
    return total;
  }

  /// Count of positions where the signatures differ.
  [[nodiscard]] friend int difference(const Signature& a, const Signature& b) {
    assert(a.n_ == b.n_);
    int total = popcount_word(a.word0_ ^ b.word0_);
    for (std::size_t i = 0; i < a.rest_.size(); ++i)
      total += popcount_word(a.rest_[i] ^ b.rest_[i]);
    return total;
  }

  /// The paper's distance: n - similarity + difference.  Both signatures
  /// must range over the same number of nodes.  One fused pass: n ≤ 64
  /// costs two inline popcounts on a pair of inline words.
  [[nodiscard]] friend int distance(const Signature& a, const Signature& b) {
    assert(a.n_ == b.n_);
    int total = a.n_ - popcount_word(a.word0_ & b.word0_) +
                popcount_word(a.word0_ ^ b.word0_);
    for (std::size_t i = 0; i < a.rest_.size(); ++i) {
      total += popcount_word(a.rest_[i] ^ b.rest_[i]) -
               popcount_word(a.rest_[i] & b.rest_[i]);
    }
    return total;
  }

 private:
  static constexpr int kWordBits = 64;

  int n_ = 0;
  /// Bits 0..63 — the whole signature when n ≤ 64.
  std::uint64_t word0_ = 0;
  /// Bits 64.. in 64-bit words; empty (never allocated) when n ≤ 64.
  std::vector<std::uint64_t> rest_;
};

}  // namespace dasched
