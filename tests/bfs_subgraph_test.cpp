// BFS ball extraction + Subgraph invariants, including the exactness
// preconditions MeLoPPR relies on (DESIGN.md invariant 2).
#include "graph/bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/paper_graphs.hpp"
#include "graph/update_streams.hpp"
#include "graph/visit_table.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace meloppr::graph {
namespace {

TEST(ExtractBall, PathGraphDepths) {
  Graph g = fixtures::path(10);
  Subgraph ball = extract_ball(g, 5, 2);
  EXPECT_EQ(ball.num_nodes(), 5u);  // 3,4,5,6,7
  EXPECT_EQ(ball.root_global(), 5u);
  EXPECT_EQ(ball.depth(0), 0u);
  EXPECT_EQ(ball.radius(), 2u);
  EXPECT_NO_THROW(ball.validate());
  // Depth-2 frontier: global nodes 3 and 7.
  EXPECT_EQ(ball.frontier_count(), 2u);
}

TEST(ExtractBall, RadiusZeroIsJustTheSeed) {
  Graph g = fixtures::star(5);
  Subgraph ball = extract_ball(g, 1, 0);
  EXPECT_EQ(ball.num_nodes(), 1u);
  EXPECT_EQ(ball.num_edges(), 0u);
  EXPECT_EQ(ball.global_degree(0), 1u);  // global degree preserved
}

TEST(ExtractBall, StarFromCenterCoversAll) {
  Graph g = fixtures::star(8);
  Subgraph ball = extract_ball(g, 0, 1);
  EXPECT_EQ(ball.num_nodes(), 8u);
  EXPECT_EQ(ball.num_edges(), 7u);
}

TEST(ExtractBall, RejectsBadSeeds) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  Graph g = b.build();
  EXPECT_THROW(extract_ball(g, 99, 2), std::invalid_argument);
  EXPECT_THROW(extract_ball(g, 3, 2), std::invalid_argument);  // isolated
}

TEST(ExtractBall, InteriorNodesKeepFullAdjacency) {
  Rng rng(7);
  Graph g = barabasi_albert(500, 2, 3, rng);
  Subgraph ball = extract_ball(g, 17, 3);
  for (NodeId local = 0; local < ball.num_nodes(); ++local) {
    if (ball.depth(local) < ball.radius()) {
      EXPECT_EQ(ball.local_degree(local), ball.global_degree(local))
          << "interior local " << local;
    } else {
      EXPECT_LE(ball.local_degree(local), ball.global_degree(local));
    }
  }
}

TEST(ExtractBall, MembershipMatchesBfsOracle) {
  Rng rng(8);
  Graph g = erdos_renyi(300, 900, rng);
  const NodeId seed = 42;
  for (unsigned radius : {0u, 1u, 2u, 3u}) {
    if (g.degree(seed) == 0) break;
    Subgraph ball = extract_ball(g, seed, radius);
    std::vector<NodeId> oracle = bfs_nodes(g, seed, radius);
    std::set<NodeId> oracle_set(oracle.begin(), oracle.end());
    ASSERT_EQ(ball.num_nodes(), oracle_set.size()) << "radius " << radius;
    for (NodeId local = 0; local < ball.num_nodes(); ++local) {
      EXPECT_TRUE(oracle_set.count(ball.to_global(local)) != 0);
    }
  }
}

TEST(ExtractBall, DepthMatchesBoundedDistance) {
  Rng rng(9);
  Graph g = barabasi_albert(400, 1, 2, rng);
  const NodeId seed = 11;
  Subgraph ball = extract_ball(g, seed, 4);
  for (NodeId local = 0; local < ball.num_nodes(); ++local) {
    const int dist = bounded_distance(g, seed, ball.to_global(local), 10);
    EXPECT_EQ(dist, static_cast<int>(ball.depth(local)));
  }
}

TEST(ExtractBall, EdgesAreInducedEdges) {
  Rng rng(10);
  Graph g = erdos_renyi(200, 600, rng);
  Subgraph ball = extract_ball(g, 5, 2);
  for (NodeId lu = 0; lu < ball.num_nodes(); ++lu) {
    const NodeId gu = ball.to_global(lu);
    for (NodeId lw : ball.neighbors(lu)) {
      EXPECT_TRUE(g.has_edge(gu, ball.to_global(lw)));
    }
  }
}

TEST(ExtractBall, StatsReportVisitedWork) {
  Graph g = fixtures::complete(6);
  BfsStats stats;
  Subgraph ball = extract_ball(g, 0, 1, &stats);
  EXPECT_EQ(stats.nodes_visited, 6u);
  EXPECT_EQ(stats.arcs_scanned, 5u);  // only the seed expands at radius 1
}

TEST(Subgraph, ToLocalRoundTripAndMisses) {
  Graph g = fixtures::path(10);
  Subgraph ball = extract_ball(g, 5, 2);
  for (NodeId local = 0; local < ball.num_nodes(); ++local) {
    EXPECT_EQ(ball.to_local(ball.to_global(local)), local);
  }
  EXPECT_EQ(ball.to_local(0), kInvalidNode);  // node 0 is outside radius 2
  EXPECT_FALSE(ball.contains(9));
  EXPECT_TRUE(ball.contains(4));
}

TEST(Subgraph, BytesGrowWithBallSize) {
  Graph g = fixtures::complete(20);
  Subgraph small = extract_ball(g, 0, 0);
  Subgraph large = extract_ball(g, 0, 1);
  EXPECT_LT(small.bytes(), large.bytes());
}

TEST(Subgraph, SummaryContainsRootAndSize) {
  Graph g = fixtures::cycle(8);
  Subgraph ball = extract_ball(g, 3, 2);
  const std::string s = ball.summary();
  EXPECT_NE(s.find("root=3"), std::string::npos);
  EXPECT_NE(s.find("|V|=5"), std::string::npos);
}

TEST(BoundedDistance, ReportsUnreachable) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  Graph g = b.build();
  EXPECT_EQ(bounded_distance(g, 0, 1, 5), 1);
  EXPECT_EQ(bounded_distance(g, 0, 3, 5), -1);
  EXPECT_EQ(bounded_distance(g, 0, 0, 5), 0);
}

TEST(BoundedDistance, RespectsRadiusCap) {
  Graph g = fixtures::path(10);
  EXPECT_EQ(bounded_distance(g, 0, 4, 3), -1);
  EXPECT_EQ(bounded_distance(g, 0, 4, 4), 4);
}

/// Every array of two Subgraphs, element by element, plus their allocated
/// footprint.
void expect_identical(const Subgraph& a, const Subgraph& b,
                      const std::string& context) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << context;
  ASSERT_EQ(a.num_arcs(), b.num_arcs()) << context;
  ASSERT_EQ(a.radius(), b.radius()) << context;
  EXPECT_EQ(a.bytes(), b.bytes()) << context;
  EXPECT_EQ(a.local_to_global(), b.local_to_global()) << context;
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.depth(v), b.depth(v)) << context << " local " << v;
    ASSERT_EQ(a.global_degree(v), b.global_degree(v)) << context;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << context << " local " << v;
  }
  const auto pa = a.depth_prefix();
  const auto pb = b.depth_prefix();
  EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
      << context;
}

TEST(VisitTable, ReuseAcrossGraphsMatchesFreshThreads) {
  // One thread's table serves a small graph, a large one and a
  // DynamicGraph in turn: it must grow when the graph does, and a stamp
  // left by one extraction must never leak into the next. Each extraction
  // is compared with the same one run on a fresh thread (a fresh table).
  Rng rng(29);
  const Graph small = erdos_renyi(120, 300, rng);
  const Graph large = barabasi_albert(6000, 3, 3, rng);
  const Graph mid = community_graph(2000, 20, 6.0, 1.5, rng);
  DynamicGraph dyn(mid);
  UpdateStreamConfig scfg;
  scfg.count = 200;
  Rng srng = rng.fork(1);
  for (const EdgeUpdate& u : make_update_stream(
           mid, UpdateWorkload::kRecommenderChurn, scfg, srng)) {
    dyn.apply(u);
  }

  enum class Source { kSmall, kLarge, kDynamic };
  const auto extract = [&](Source src, NodeId root, unsigned radius) {
    switch (src) {
      case Source::kSmall: return extract_ball(small, root, radius);
      case Source::kLarge: return extract_ball(large, root, radius);
      case Source::kDynamic: return dyn.extract_ball(root, radius);
    }
    return Subgraph();
  };
  const auto pick_root = [&](Source src) {
    const Graph& g = src == Source::kSmall   ? small
                     : src == Source::kLarge ? large
                                             : mid;
    NodeId root = static_cast<NodeId>(rng.below(g.num_nodes()));
    while (src == Source::kDynamic ? dyn.degree(root) == 0
                                   : g.degree(root) == 0) {
      root = static_cast<NodeId>(rng.below(g.num_nodes()));
    }
    return root;
  };

  const Source order[] = {Source::kSmall, Source::kLarge, Source::kSmall,
                          Source::kDynamic, Source::kLarge, Source::kDynamic,
                          Source::kSmall};
  for (int round = 0; round < 4; ++round) {
    for (const Source src : order) {
      const NodeId root = pick_root(src);
      const unsigned radius = 1 + static_cast<unsigned>(rng.below(3));
      const Subgraph reused = extract(src, root, radius);
      Subgraph fresh;
      std::thread([&] { fresh = extract(src, root, radius); }).join();
      expect_identical(reused, fresh,
                       "round " + std::to_string(round) + " source " +
                           std::to_string(static_cast<int>(src)) + " root " +
                           std::to_string(root) + " radius " +
                           std::to_string(radius));
    }
  }
}

TEST(VisitTable, EpochWrapRetiresEveryEntry) {
  VisitTable table(std::numeric_limits<std::uint32_t>::max() - 1);
  table.reset(8);  // the last epoch before the wrap
  EXPECT_TRUE(table.visit(1, 7));
  EXPECT_FALSE(table.visit(1, 9)) << "second visit in one traversal";
  EXPECT_EQ(table.slot(1), 7u);

  table.reset(8);  // wraps
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(table.slot(v), kInvalidNode) << "entry " << v;
  }
  EXPECT_TRUE(table.visit(1, 3));
  EXPECT_EQ(table.slot(1), 3u);
  table.reset(16);  // grows
  EXPECT_EQ(table.slot(1), kInvalidNode);
  EXPECT_EQ(table.slot(15), kInvalidNode);
}

/// Ball-growth sanity on paper-like graphs: the depth-3 ball must be much
/// smaller than the depth-6 ball — the memory gap MeLoPPR exploits.
class BallGrowth : public ::testing::TestWithParam<PaperGraphId> {};

TEST_P(BallGrowth, HalfDepthBallIsMuchSmaller) {
  Rng rng(13);
  Graph g = make_paper_graph(GetParam(), rng, 1.0);
  std::size_t shrink_wins = 0;
  const std::size_t trials = 5;
  for (std::size_t i = 0; i < trials; ++i) {
    const NodeId seed = random_seed_node(g, rng);
    Subgraph b3 = extract_ball(g, seed, 3);
    Subgraph b6 = extract_ball(g, seed, 6);
    EXPECT_LE(b3.num_nodes(), b6.num_nodes());
    if (b3.bytes() * 2 <= b6.bytes()) ++shrink_wins;
  }
  // At least most seeds should show a substantial gap on these graphs.
  EXPECT_GE(shrink_wins, trials - 1);
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, BallGrowth,
    ::testing::ValuesIn(small_paper_graphs()),
    [](const ::testing::TestParamInfo<PaperGraphId>& info) {
      return spec_for(info.param).label;
    });

}  // namespace
}  // namespace meloppr::graph
