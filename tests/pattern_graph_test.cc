#include "pattern/pattern_graph.h"

#include <gtest/gtest.h>

#include <set>

namespace coverage {
namespace {

TEST(PatternGraph, ThreeBinaryAttributesNodeCounts) {
  // §III-B worked example: (2+1)^3 = 27 nodes; 6 at level 1, 12 at level 2.
  const Schema schema = Schema::Binary(3);
  PatternGraph graph(schema);
  EXPECT_EQ(graph.NumNodes(), 27u);
  EXPECT_EQ(graph.NumNodesAtLevel(0), 1u);
  EXPECT_EQ(graph.NumNodesAtLevel(1), 6u);
  EXPECT_EQ(graph.NumNodesAtLevel(2), 12u);
  EXPECT_EQ(graph.NumNodesAtLevel(3), 8u);
}

TEST(PatternGraph, ThreeBinaryAttributesEdgeCount) {
  // §III-B closed form: c * d * (c+1)^(d-1) = 2 * 3 * 9 = 54 edges.
  PatternGraph graph(Schema::Binary(3));
  EXPECT_EQ(graph.NumEdges(), 54u);
}

TEST(PatternGraph, UniformCardinalityClosedForms) {
  // d attributes of cardinality c: level l holds C(d,l) * c^l nodes and the
  // graph holds c*d*(c+1)^(d-1) edges.
  for (int c : {2, 3}) {
    for (int d : {2, 4}) {
      PatternGraph graph(Schema::Uniform(std::vector<int>(
          static_cast<std::size_t>(d), c)));
      std::uint64_t binom = 1;
      std::uint64_t c_pow = 1;
      std::uint64_t total_nodes = 0;
      for (int l = 0; l <= d; ++l) {
        EXPECT_EQ(graph.NumNodesAtLevel(l), binom * c_pow)
            << "c=" << c << " d=" << d << " l=" << l;
        total_nodes += binom * c_pow;
        binom = binom * static_cast<std::uint64_t>(d - l) /
                static_cast<std::uint64_t>(l + 1);
        c_pow *= static_cast<std::uint64_t>(c);
      }
      EXPECT_EQ(graph.NumNodes(), total_nodes);
      std::uint64_t edges = static_cast<std::uint64_t>(c) *
                            static_cast<std::uint64_t>(d);
      for (int i = 0; i < d - 1; ++i) {
        edges *= static_cast<std::uint64_t>(c + 1);
      }
      EXPECT_EQ(graph.NumEdges(), edges);
    }
  }
}

TEST(PatternGraph, MixedCardinalityLevelSum) {
  // Levels must partition all nodes.
  const Schema schema = Schema::Uniform({2, 3, 4});
  PatternGraph graph(schema);
  std::uint64_t total = 0;
  for (int l = 0; l <= 3; ++l) total += graph.NumNodesAtLevel(l);
  EXPECT_EQ(total, graph.NumNodes());
  EXPECT_EQ(graph.NumNodes(), 3u * 4u * 5u);
}

TEST(PatternGraph, NodesUpToLevelIsAPrefixSum) {
  // What a level-capped search can visit: 1 + 9 + 26 + 24 at ℓ <= 3 for
  // cards {2,3,4}, all nodes once the cap reaches d.
  PatternGraph graph(Schema::Uniform({2, 3, 4}));
  EXPECT_EQ(graph.NumNodesUpToLevel(0), 1u);
  EXPECT_EQ(graph.NumNodesUpToLevel(1), 10u);
  EXPECT_EQ(graph.NumNodesUpToLevel(2), 36u);
  EXPECT_EQ(graph.NumNodesUpToLevel(3), graph.NumNodes());
  EXPECT_EQ(graph.NumNodesUpToLevel(9), graph.NumNodes());
  // 3^200 nodes saturate instead of wrapping; a shallow cap stays exact:
  // 1 + 2·200 + 4·C(200,2).
  PatternGraph huge(Schema::Binary(200));
  EXPECT_EQ(huge.NumNodesUpToLevel(200), Schema::kCombinationLimit);
  EXPECT_EQ(huge.NumNodesUpToLevel(2), 1u + 400u + 4u * 19900u);
}

TEST(PatternGraph, EnumerateAllMatchesCount) {
  const Schema schema = Schema::Uniform({2, 3});
  PatternGraph graph(schema);
  auto all = graph.EnumerateAll(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), graph.NumNodes());
  const std::set<Pattern> unique(all->begin(), all->end());
  EXPECT_EQ(unique.size(), all->size());
}

TEST(PatternGraph, EnumerateAllOrderedByLevel) {
  PatternGraph graph(Schema::Binary(3));
  auto all = graph.EnumerateAll(1000);
  ASSERT_TRUE(all.ok());
  int last_level = 0;
  for (const Pattern& p : *all) {
    EXPECT_GE(p.level(), last_level);
    last_level = p.level();
  }
}

TEST(PatternGraph, EnumerateLevelExact) {
  PatternGraph graph(Schema::Binary(3));
  auto level2 = graph.EnumerateLevel(2, 1000);
  ASSERT_TRUE(level2.ok());
  EXPECT_EQ(level2->size(), 12u);
  for (const Pattern& p : *level2) EXPECT_EQ(p.level(), 2);
}

TEST(PatternGraph, EnumerateRespectsLimit) {
  PatternGraph graph(Schema::Binary(20));
  EXPECT_EQ(graph.EnumerateAll(100).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(graph.EnumerateLevel(10, 100).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(PatternGraph, EnumerateLevelRejectsBadLevel) {
  PatternGraph graph(Schema::Binary(3));
  EXPECT_FALSE(graph.EnumerateLevel(-1, 10).ok());
  EXPECT_FALSE(graph.EnumerateLevel(4, 10).ok());
}

TEST(PatternGraph, BlueNileShapeHasWideBottom) {
  // §V-C1: the bottom level of the BlueNile pattern graph (cards
  // 10,4,7,8,3,3,5) has more than 100K nodes, vs 128 for 7 binary
  // attributes.
  PatternGraph bn(Schema::Uniform({10, 4, 7, 8, 3, 3, 5}));
  EXPECT_EQ(bn.NumNodesAtLevel(7), 100800u);
  PatternGraph binary(Schema::Binary(7));
  EXPECT_EQ(binary.NumNodesAtLevel(7), 128u);
}

}  // namespace
}  // namespace coverage
