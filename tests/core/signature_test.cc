#include "core/signature.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dasched {
namespace {

TEST(Signature, FromBitsRoundTrips) {
  const Signature s = Signature::from_bits("0110");
  EXPECT_EQ(s.size(), 4);
  EXPECT_FALSE(s.test(0));
  EXPECT_TRUE(s.test(1));
  EXPECT_TRUE(s.test(2));
  EXPECT_FALSE(s.test(3));
  EXPECT_EQ(s.to_string(), "0110");
}

TEST(Signature, FromBitsRejectsGarbage) {
  EXPECT_THROW((void)Signature::from_bits("01x0"), std::invalid_argument);
}

TEST(Signature, FromNodesSetsGivenBits) {
  const Signature s = Signature::from_nodes(16, {2, 10});
  EXPECT_EQ(s.popcount(), 2);
  EXPECT_TRUE(s.test(2));
  EXPECT_TRUE(s.test(10));
}

TEST(Signature, SetResetTest) {
  Signature s(8);
  s.set(3);
  EXPECT_TRUE(s.test(3));
  s.reset(3);
  EXPECT_FALSE(s.test(3));
  EXPECT_FALSE(s.any());
}

TEST(Signature, OrMergesNodeSets) {
  const Signature a = Signature::from_nodes(8, {0, 1});
  const Signature b = Signature::from_nodes(8, {1, 2});
  const Signature c = a | b;
  EXPECT_EQ(c.nodes(), (std::vector<int>{0, 1, 2}));
}

// merge() is |= that also reports whether any bit was new, in either word.
TEST(Signature, MergeReportsNewBits) {
  for (int n : {8, 100}) {
    Signature g = Signature::from_nodes(n, {1, n - 1});
    EXPECT_FALSE(g.merge(Signature::from_nodes(n, {n - 1}))) << n;
    EXPECT_FALSE(g.merge(Signature(n))) << n;
    EXPECT_TRUE(g.merge(Signature::from_nodes(n, {1, n - 2}))) << n;
    EXPECT_EQ(g, Signature::from_nodes(n, {1, n - 2, n - 1})) << n;
  }
}

TEST(Signature, HashIsEqualForEqualSignatures) {
  for (int n : {8, 100}) {
    const Signature a = Signature::from_nodes(n, {2, n - 1});
    Signature b(n);
    b.set(n - 1);
    b.set(2);
    EXPECT_EQ(a.hash(), b.hash()) << n;
    EXPECT_NE(a.hash(), Signature::from_nodes(n, {2}).hash()) << n;
  }
}

TEST(Signature, WorksBeyondOneWord) {
  Signature s(100);
  s.set(0);
  s.set(63);
  s.set(64);
  s.set(99);
  EXPECT_EQ(s.popcount(), 4);
  EXPECT_EQ(s.nodes(), (std::vector<int>{0, 63, 64, 99}));
}

TEST(Signature, ForEachNodeVisitsAscending) {
  const Signature s = Signature::from_nodes(16, {3, 0, 11});
  std::vector<int> seen;
  s.for_each_node([&seen](int node) { seen.push_back(node); });
  EXPECT_EQ(seen, (std::vector<int>{0, 3, 11}));
}

TEST(Signature, ForEachNodeCrossesWordBoundaries) {
  const Signature s = Signature::from_nodes(200, {0, 63, 64, 127, 128, 199});
  std::vector<int> seen;
  s.for_each_node([&seen](int node) { seen.push_back(node); });
  EXPECT_EQ(seen, s.nodes());
  EXPECT_EQ(seen, (std::vector<int>{0, 63, 64, 127, 128, 199}));
}

TEST(Signature, AnyChecksEveryWord) {
  Signature s(200);
  EXPECT_FALSE(s.any());
  s.set(0);  // first word: the early-exit case
  EXPECT_TRUE(s.any());
  s.reset(0);
  EXPECT_FALSE(s.any());
  s.set(199);  // only the last spill word is nonzero
  EXPECT_TRUE(s.any());
}

TEST(Signature, IntersectsDetectsSharedNodesAcrossWords) {
  const Signature a = Signature::from_nodes(200, {5, 130});
  const Signature b = Signature::from_nodes(200, {6, 130});
  const Signature c = Signature::from_nodes(200, {6, 131});
  EXPECT_TRUE(intersects(a, b));   // share node 130 (spill word)
  EXPECT_TRUE(intersects(b, c));   // share node 6 (first word)
  EXPECT_FALSE(intersects(a, c));  // disjoint
  EXPECT_FALSE(intersects(a, Signature(200)));
}

TEST(Signature, ClearEmptiesAllWords) {
  Signature s = Signature::from_nodes(200, {1, 64, 199});
  ASSERT_TRUE(s.any());
  s.clear();
  EXPECT_FALSE(s.any());
  EXPECT_EQ(s.popcount(), 0);
  EXPECT_EQ(s, Signature(200));
}

TEST(Signature, EqualityComparesContent) {
  EXPECT_EQ(Signature::from_bits("0101"), Signature::from_bits("0101"));
  EXPECT_NE(Signature::from_bits("0101"), Signature::from_bits("0100"));
}

// --- The distance metric (Sec. IV-B) ---------------------------------------

TEST(Distance, IdenticalSignatures) {
  // Same set: similarity = popcount, difference = 0 -> d = n - |set|.
  const Signature g = Signature::from_nodes(16, {2, 10});
  EXPECT_EQ(similarity(g, g), 2);
  EXPECT_EQ(difference(g, g), 0);
  EXPECT_EQ(distance(g, g), 14);
}

TEST(Distance, DisjointSignaturesOfKBitsEach) {
  // "if the number of different bits between two signatures is n, the two
  // data accesses are accessing disjoint I/O nodes"
  const Signature a = Signature::from_nodes(16, {1, 9});
  const Signature b = Signature::from_nodes(16, {2, 10});
  EXPECT_EQ(similarity(a, b), 0);
  EXPECT_EQ(difference(a, b), 4);
  EXPECT_EQ(distance(a, b), 20);
}

TEST(Distance, SupersetWithTwoExtraBits) {
  // Group contains the access's nodes plus two more: d = n - 2 + 2 = n.
  const Signature g = Signature::from_nodes(16, {1, 9});
  const Signature group = Signature::from_nodes(16, {1, 9, 3, 11});
  EXPECT_EQ(distance(g, group), 16);
}

TEST(Distance, EmptyGroupSignature) {
  const Signature g = Signature::from_nodes(16, {1, 9});
  const Signature empty(16);
  EXPECT_EQ(distance(g, empty), 16 - 0 + 2);
}

TEST(Distance, SmallerDistanceMeansBetterReuse) {
  // Reusing exactly the active set beats adding one node, which beats
  // touching a disjoint set.
  const Signature g = Signature::from_nodes(8, {0, 1});
  const Signature same = Signature::from_nodes(8, {0, 1});
  const Signature overlap = Signature::from_nodes(8, {1, 2});
  const Signature disjoint = Signature::from_nodes(8, {4, 5});
  EXPECT_LT(distance(g, same), distance(g, overlap));
  EXPECT_LT(distance(g, overlap), distance(g, disjoint));
}

TEST(Distance, Symmetric) {
  const Signature a = Signature::from_nodes(8, {0, 3, 5});
  const Signature b = Signature::from_nodes(8, {3, 6});
  EXPECT_EQ(distance(a, b), distance(b, a));
}

// --- Inline popcount and the distance definition ----------------------------

static_assert(popcount_word(0) == 0);
static_assert(popcount_word(~0ULL) == 64);
static_assert(popcount_word(0x8000000000000001ULL) == 2);

TEST(PopcountWord, MatchesStdPopcountOnEdgeAndRandomWords) {
  std::vector<std::uint64_t> words = {0, ~0ULL, 0x5555555555555555ULL,
                                      0xaaaaaaaaaaaaaaaaULL,
                                      0x00000000ffffffffULL,
                                      0xffffffff00000000ULL};
  for (int b = 0; b < 64; ++b) {
    words.push_back(1ULL << b);             // single bit
    words.push_back(~(1ULL << b));          // all but one bit
    words.push_back((1ULL << b) - 1);       // low run
  }
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    words.push_back(rng.next_u64());
    words.push_back(rng.next_u64() & rng.next_u64());  // sparse
    words.push_back(rng.next_u64() | rng.next_u64());  // dense
  }
  for (std::uint64_t w : words) {
    EXPECT_EQ(popcount_word(w), std::popcount(w)) << std::hex << w;
  }
}

/// The paper's definition, evaluated bit by bit through `test()`.
int distance_by_definition(const Signature& a, const Signature& b) {
  int sim = 0;
  int diff = 0;
  for (int i = 0; i < a.size(); ++i) {
    sim += a.test(i) && b.test(i) ? 1 : 0;
    diff += a.test(i) != b.test(i) ? 1 : 0;
  }
  return a.size() - sim + diff;
}

Signature full_signature(int n) {
  Signature s(n);
  for (int i = 0; i < n; ++i) s.set(i);
  return s;
}

TEST(Distance, MatchesDefinitionAcrossWidthsAndEdgeSignatures) {
  Rng rng(11);
  for (int n : {1, 8, 63, 64, 65, 256}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<Signature> sigs = {Signature(n), full_signature(n)};
    for (int b : {0, n / 2, n - 1}) {
      Signature one(n);
      one.set(b);
      sigs.push_back(one);
      Signature all_but_one = full_signature(n);
      all_but_one.reset(b);
      sigs.push_back(all_but_one);
    }
    for (int r = 0; r < 12; ++r) {
      Signature s(n);
      for (int i = 0; i < n; ++i) {
        if (rng.next_below(3) == 0) s.set(i);
      }
      sigs.push_back(s);
    }
    for (const Signature& a : sigs) {
      EXPECT_EQ(a.popcount(), static_cast<int>(a.nodes().size()));
      for (const Signature& b : sigs) {
        ASSERT_EQ(distance(a, b), distance_by_definition(a, b))
            << a.to_string() << " vs " << b.to_string();
        EXPECT_GE(distance(a, b), 0);
        EXPECT_LE(distance(a, b), 2 * n);
      }
    }
  }
}

}  // namespace
}  // namespace dasched
