// Unit tests for the node-shift neighborhood generators and tabu search.
#include <gtest/gtest.h>

#include <set>

#include "core/node_shift.h"
#include "core/tabu.h"

namespace carol::core {
namespace {

std::vector<bool> AllAlive(int n) { return std::vector<bool>(n, true); }

// Every LocalMoves record applied to `g`, in enumeration order.
std::vector<sim::Topology> MaterializeLocalMoves(
    const sim::Topology& g, const std::vector<bool>& alive,
    const NodeShiftOptions& options = {}) {
  const std::vector<LocalMove> moves = LocalMoves(g, alive, options);
  std::vector<sim::Topology> neighbors(moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    ApplyLocalMove(g, moves[i], neighbors[i]);
  }
  return neighbors;
}

// Drives a TabuSearchState over the node-shift neighborhood to
// completion, scoring one candidate at a time with `objective`.
template <typename Objective>
TabuSearchState RunTabu(const TabuConfig& config, const sim::Topology& start,
                        const std::vector<bool>& alive,
                        const Objective& objective) {
  TabuSearchState search(config, start, alive, NodeShiftOptions{});
  while (!search.done()) {
    std::vector<double> scores;
    for (const sim::Topology& g : search.ProposeFrontier()) {
      scores.push_back(objective(g));
    }
    search.Advance(scores);
  }
  return search;
}

TEST(NodeShiftTest, FailureNeighborsDemoteFailedBroker) {
  const sim::Topology g = sim::Topology::Initial(16, 4);  // brokers 0,4,8,12
  std::vector<bool> alive = AllAlive(16);
  alive[0] = false;
  const auto neighbors = FailureNeighbors(g, 0, alive);
  ASSERT_FALSE(neighbors.empty());
  for (const auto& t : neighbors) {
    EXPECT_TRUE(t.IsValid());
    EXPECT_FALSE(t.is_broker(0)) << t.ToString();
  }
}

TEST(NodeShiftTest, AllThreeTypesPresent) {
  const sim::Topology g = sim::Topology::Initial(16, 4);
  std::vector<bool> alive = AllAlive(16);
  alive[0] = false;
  const auto neighbors = FailureNeighbors(g, 0, alive);
  std::set<int> broker_counts;
  for (const auto& t : neighbors) broker_counts.insert(t.broker_count());
  // Type 2 -> 3 brokers, Type 3 -> 4, Type 1 -> 5.
  EXPECT_TRUE(broker_counts.count(3)) << "missing Type 2";
  EXPECT_TRUE(broker_counts.count(4)) << "missing Type 3";
  EXPECT_TRUE(broker_counts.count(5)) << "missing Type 1";
}

TEST(NodeShiftTest, DeadOrphansNeverPromoted) {
  const sim::Topology g = sim::Topology::Initial(8, 2);  // brokers 0,4
  std::vector<bool> alive = AllAlive(8);
  alive[0] = false;  // failed broker
  alive[1] = false;  // dead orphan
  const auto neighbors = FailureNeighbors(g, 0, alive);
  for (const auto& t : neighbors) {
    EXPECT_FALSE(t.is_broker(1)) << t.ToString();
  }
}

TEST(NodeShiftTest, NonBrokerInputYieldsNothing) {
  const sim::Topology g = sim::Topology::Initial(8, 2);
  EXPECT_TRUE(FailureNeighbors(g, 1, AllAlive(8)).empty());
}

TEST(NodeShiftTest, NoAliveTakeoverYieldsNothing) {
  // Single-LEI topology where everything except the broker is dead.
  const sim::Topology g = sim::Topology::Initial(4, 1);
  std::vector<bool> alive = {false, false, false, false};
  EXPECT_TRUE(FailureNeighbors(g, 0, alive).empty());
}

TEST(NodeShiftTest, Type1SplitsOrphansEvenly) {
  const sim::Topology g = sim::Topology::Initial(16, 2);  // brokers 0,8 with 7 workers each
  std::vector<bool> alive = AllAlive(16);
  alive[0] = false;
  const auto neighbors = FailureNeighbors(g, 0, alive);
  bool found_type1 = false;
  for (const auto& t : neighbors) {
    if (t.broker_count() != 3) continue;
    found_type1 = true;
    // The two new brokers split the orphans within one of each other.
    std::vector<int> sizes;
    for (sim::NodeId b : t.brokers()) {
      if (b == 8) continue;
      sizes.push_back(static_cast<int>(t.workers_of(b).size()));
    }
    ASSERT_EQ(sizes.size(), 2u);
    EXPECT_LE(std::abs(sizes[0] - sizes[1]), 1);
  }
  EXPECT_TRUE(found_type1);
}

TEST(NodeShiftTest, LocalNeighborsValidAndDiverse) {
  const sim::Topology g = sim::Topology::Initial(16, 4);
  const auto neighbors = MaterializeLocalMoves(g, AllAlive(16));
  ASSERT_GT(neighbors.size(), 10u);
  std::set<int> broker_counts;
  std::set<std::size_t> hashes;
  for (const auto& t : neighbors) {
    EXPECT_TRUE(t.IsValid());
    broker_counts.insert(t.broker_count());
    hashes.insert(t.Hash());
  }
  // Moves that increase, decrease and keep the broker count all appear.
  EXPECT_TRUE(broker_counts.count(3));
  EXPECT_TRUE(broker_counts.count(4));
  EXPECT_TRUE(broker_counts.count(5));
  // Neighbors are distinct topologies.
  EXPECT_EQ(hashes.size(), neighbors.size());
}

TEST(NodeShiftTest, LocalNeighborsRespectCaps) {
  NodeShiftOptions options;
  options.max_reassignments = 3;
  options.include_demotions = false;
  const sim::Topology g = sim::Topology::Initial(16, 4);
  const auto neighbors = MaterializeLocalMoves(g, AllAlive(16), options);
  int reassignments = 0;
  for (const auto& t : neighbors) {
    if (t.broker_count() == 4) ++reassignments;
    EXPECT_GE(t.broker_count(), 4);  // no demotions
  }
  EXPECT_LE(reassignments, 3);
}

TEST(TabuTest, FindsMinimumOfBrokerCountObjective) {
  // Objective: |brokers - 3|; from a 1-broker start the search should
  // reach exactly 3 brokers via promotions.
  const sim::Topology start = sim::Topology::Initial(12, 1);
  const auto alive = AllAlive(12);
  const TabuSearchState search =
      RunTabu(TabuConfig{.max_iterations = 8}, start, alive,
              [](const sim::Topology& g) {
                return std::abs(g.broker_count() - 3);
              });
  EXPECT_EQ(search.best().broker_count(), 3);
  EXPECT_GT(search.evaluations(), 1);
}

TEST(TabuTest, RespectsEvaluationBudget) {
  TabuConfig cfg;
  cfg.max_evaluations = 10;
  const sim::Topology start = sim::Topology::Initial(16, 4);
  const auto alive = AllAlive(16);
  const TabuSearchState search =
      RunTabu(cfg, start, alive,
              [](const sim::Topology& g) { return g.broker_count(); });
  EXPECT_LE(search.evaluations(), 10);
}

TEST(TabuTest, TabuListPreventsCycles) {
  // Two-state flip-flop objective: without the tabu list the search would
  // bounce between the same two topologies; with it, it must terminate.
  TabuConfig cfg;
  cfg.max_iterations = 50;
  cfg.tabu_list_size = 100;
  const sim::Topology start = sim::Topology::Initial(8, 2);
  const auto alive = AllAlive(8);
  const TabuSearchState search =
      RunTabu(cfg, start, alive, [](const sim::Topology& g) {
        return g.broker_count() % 2 == 0 ? 1.0 : 2.0;
      });
  EXPECT_TRUE(search.best().IsValid());
  // Bounded evaluations prove termination despite the cyclic landscape.
  EXPECT_LE(search.evaluations(), cfg.max_evaluations);
}

TEST(TabuTest, DeterministicAcrossRuns) {
  const sim::Topology start = sim::Topology::Initial(16, 4);
  const auto alive = AllAlive(16);
  auto run = [&]() {
    return RunTabu(TabuConfig{}, start, alive,
                   [](const sim::Topology& g) {
                     // Prefer balanced LEIs.
                     double imb = 0.0;
                     for (sim::NodeId b : g.brokers()) {
                       imb += std::abs(
                           static_cast<double>(g.workers_of(b).size()) -
                           3.0);
                     }
                     return imb;
                   })
        .best()
        .Hash();
  };
  EXPECT_EQ(run(), run());
}

TEST(TabuTest, BestScoreTracked) {
  const sim::Topology start = sim::Topology::Initial(8, 2);
  const auto alive = AllAlive(8);
  const TabuSearchState search =
      RunTabu(TabuConfig{}, start, alive,
              [](const sim::Topology& g) { return g.broker_count(); });
  EXPECT_LE(search.best_score(), 2.0);  // at least as good as the start
}

}  // namespace
}  // namespace carol::core
