#include "storage/striping.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/rng.h"

namespace dasched {
namespace {

/// The pieces `for_each_piece` visits, in file order.
std::vector<StripePiece> pieces_of(const StripingMap& m, FileId f, Bytes offset,
                                   Bytes size) {
  std::vector<StripePiece> out;
  m.for_each_piece(f, offset, size,
                   [&out](const StripePiece& p) { out.push_back(p); });
  return out;
}

TEST(StripingMap, RoundRobinNodeAssignment) {
  StripingMap m(4, kib(64));
  const FileId f = m.create_file("a", kib(64) * 8);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(m.node_of_stripe(f, k), k % 4);
  }
}

TEST(StripingMap, SecondFileStartsAtNextBaseNode) {
  StripingMap m(4, kib(64));
  (void)m.create_file("a", kib(64));
  const FileId b = m.create_file("b", kib(64));
  EXPECT_EQ(m.node_of_stripe(b, 0), 1);
}

TEST(StripingMap, MapSplitsAtStripeBoundaries) {
  StripingMap m(8, kib(64));
  const FileId f = m.create_file("a", mib(4));
  const auto pieces = pieces_of(m, f, kib(32), kib(128));
  ASSERT_EQ(pieces.size(), 3u);  // 32K tail, 64K, 32K head
  EXPECT_EQ(pieces[0].length, kib(32));
  EXPECT_EQ(pieces[1].length, kib(64));
  EXPECT_EQ(pieces[2].length, kib(32));
  Bytes total = 0;
  for (const auto& p : pieces) total += p.length;
  EXPECT_EQ(total, kib(128));
}

TEST(StripingMap, PiecesLandOnConsecutiveNodes) {
  StripingMap m(8, kib(64));
  const FileId f = m.create_file("a", mib(4));
  const auto pieces = pieces_of(m, f, 0, kib(64) * 3);
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].io_node, 0);
  EXPECT_EQ(pieces[1].io_node, 1);
  EXPECT_EQ(pieces[2].io_node, 2);
}

TEST(StripingMap, NodeLocalOffsetsAreDisjointAcrossFiles) {
  StripingMap m(2, kib(64));
  const FileId a = m.create_file("a", kib(64) * 4);
  const FileId b = m.create_file("b", kib(64) * 4);
  const auto pa = pieces_of(m, a, 0, kib(64) * 4);
  const auto pb = pieces_of(m, b, 0, kib(64) * 4);
  for (const auto& x : pa) {
    for (const auto& y : pb) {
      if (x.io_node != y.io_node) continue;
      const bool overlap = x.node_offset < y.node_offset + y.length &&
                           y.node_offset < x.node_offset + x.length;
      EXPECT_FALSE(overlap);
    }
  }
}

TEST(StripingMap, SignatureSetsBitsOfTouchedNodesOnly) {
  StripingMap m(8, kib(64));
  const FileId f = m.create_file("a", mib(4));
  const Signature one = m.signature(f, 0, kib(64));
  EXPECT_EQ(one.popcount(), 1);
  EXPECT_TRUE(one.test(0));
  const Signature two = m.signature(f, 0, kib(128));
  EXPECT_EQ(two.popcount(), 2);
  const Signature all = m.signature(f, 0, kib(64) * 8);
  EXPECT_EQ(all.popcount(), 8);
}

TEST(StripingMap, SignatureMatchesMapPieces) {
  StripingMap m(5, kib(64));
  const FileId f = m.create_file("a", mib(2));
  const Bytes off = kib(96);
  const Bytes size = kib(200);
  const Signature sig = m.signature(f, off, size);
  for (const auto& piece : pieces_of(m, f, off, size)) {
    EXPECT_TRUE(sig.test(piece.io_node));
  }
}

// The closed-form signature (a cyclic run of min(stripes, nodes) bits) must
// agree with the definition: the union of node_of_stripe over every stripe
// the byte range touches.
TEST(StripingMap, SignatureMatchesBruteForceOnRandomRanges) {
  Rng rng(0x516a7);
  for (int trial = 0; trial < 2'000; ++trial) {
    const int nodes = static_cast<int>(rng.next_int(1, 33));
    const Bytes stripe = kib(std::int64_t{1} << rng.next_int(0, 6));  // 1K..64K
    StripingMap m(nodes, stripe);
    // A couple of files so base_node varies.
    const int nfiles = static_cast<int>(rng.next_int(1, 3));
    FileId f = 0;
    Bytes fsize = 0;
    for (int i = 0; i < nfiles; ++i) {
      fsize = stripe * rng.next_int(1, 3 * nodes) + rng.next_int(0, 1) * (stripe / 2);
      f = m.create_file(std::to_string(i), fsize);
    }
    const Bytes off = rng.next_int(0, fsize.count() - 1);
    const Bytes size = rng.next_int(1, (fsize - off).count());

    Signature brute(nodes);
    for (std::int64_t s = off / stripe; s <= (off + size - 1) / stripe; ++s) {
      brute.set(m.node_of_stripe(f, s));
    }
    ASSERT_EQ(m.signature(f, off, size), brute)
        << "nodes=" << nodes << " stripe=" << stripe << " off=" << off
        << " size=" << size;
  }
}

TEST(StripingMap, AllocationTracksStripesPerNode) {
  StripingMap m(4, kib(64));
  (void)m.create_file("a", kib(64) * 8);  // 2 stripes per node
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(m.allocated_on(d), kib(128));
  }
}

TEST(StripingMap, UnevenStripeCountAllocatesCeil) {
  StripingMap m(4, kib(64));
  (void)m.create_file("a", kib(64) * 5);  // stripes 0..4 -> nodes 0,1,2,3,0
  EXPECT_EQ(m.allocated_on(0), kib(128));
  EXPECT_EQ(m.allocated_on(1), kib(64));
  EXPECT_EQ(m.allocated_on(3), kib(64));
}

TEST(StripingMap, FileMetadataAccessors) {
  StripingMap m(4, kib(64));
  const FileId f = m.create_file("myfile", mib(1));
  EXPECT_EQ(m.file_name(f), "myfile");
  EXPECT_EQ(m.file_size(f), mib(1));
  EXPECT_EQ(m.num_io_nodes(), 4);
  EXPECT_EQ(m.stripe_size(), kib(64));
}

// Property sweep: every byte of every request maps to exactly one piece.
class StripingProperty
    : public ::testing::TestWithParam<std::tuple<int, Bytes>> {};

TEST_P(StripingProperty, MapCoversRequestExactlyOnce) {
  const auto [nodes, stripe] = GetParam();
  StripingMap m(nodes, stripe);
  const FileId f = m.create_file("a", stripe * nodes * 7);
  for (Bytes off : {Bytes{0}, stripe / 2, stripe * 3 + 17}) {
    for (Bytes size : {Bytes{1}, stripe - 1, stripe + 1, stripe * 4}) {
      const auto pieces = pieces_of(m, f, off, size);
      Bytes covered = 0;
      for (const auto& p : pieces) {
        EXPECT_GT(p.length, 0);
        EXPECT_LT(p.io_node, nodes);
        covered += p.length;
      }
      EXPECT_EQ(covered, size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, StripingProperty,
    ::testing::Combine(::testing::Values(2, 4, 8, 16, 32),
                       ::testing::Values(kib(16), kib(64), kib(256))));

}  // namespace
}  // namespace dasched
