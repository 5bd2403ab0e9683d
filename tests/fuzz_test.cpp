// Randomized fuzz tests: long random mutation/failure sequences must
// never corrupt topologies, neighborhoods or the repair pipeline.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/carol.h"
#include "core/node_shift.h"
#include "sim/topology.h"

namespace carol {
namespace {

class TopologyFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(TopologyFuzzTest, RandomMutationSequencePreservesValidity) {
  common::Rng rng(GetParam());
  sim::Topology topo = sim::Topology::Initial(16, 4);
  for (int step = 0; step < 300; ++step) {
    const int op = rng.UniformInt(0, 2);
    const auto workers = topo.workers();
    const auto brokers = topo.brokers();
    switch (op) {
      case 0:  // promote a random worker
        if (!workers.empty()) {
          topo.Promote(workers[rng.Choice(workers.size())]);
        }
        break;
      case 1:  // demote a random broker into another
        if (brokers.size() >= 2) {
          const sim::NodeId b = brokers[rng.Choice(brokers.size())];
          sim::NodeId target = b;
          while (target == b) {
            target = brokers[rng.Choice(brokers.size())];
          }
          topo.Demote(b, target);
        }
        break;
      default:  // reassign a random worker
        if (!workers.empty() && !brokers.empty()) {
          topo.Assign(workers[rng.Choice(workers.size())],
                      brokers[rng.Choice(brokers.size())]);
        }
        break;
    }
    ASSERT_TRUE(topo.IsValid()) << "step " << step;
    ASSERT_GE(topo.broker_count(), 1);
    // Round-trip through the assignment encoding.
    std::vector<sim::NodeId> assignment;
    for (sim::NodeId n = 0; n < topo.num_nodes(); ++n) {
      assignment.push_back(topo.broker_of(n));
    }
    ASSERT_TRUE(sim::Topology::FromAssignment(assignment) == topo);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

class NeighborhoodFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(NeighborhoodFuzzTest, NeighborhoodsValidUnderRandomLiveness) {
  common::Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const int nodes = rng.UniformInt(4, 24);
    const int brokers = rng.UniformInt(1, std::max(1, nodes / 2));
    sim::Topology topo = sim::Topology::Initial(nodes, brokers);
    std::vector<bool> alive(static_cast<std::size_t>(nodes));
    for (std::size_t i = 0; i < alive.size(); ++i) {
      alive[i] = rng.Bernoulli(0.8);
    }
    sim::Topology t;
    for (const core::LocalMove& move : core::LocalMoves(topo, alive)) {
      core::ApplyLocalMove(topo, move, t);
      ASSERT_TRUE(t.IsValid());
    }
    const auto bs = topo.brokers();
    const sim::NodeId failed = bs[rng.Choice(bs.size())];
    alive[static_cast<std::size_t>(failed)] = false;
    for (const auto& t : core::FailureNeighbors(topo, failed, alive)) {
      ASSERT_TRUE(t.IsValid());
      ASSERT_FALSE(t.is_broker(failed));
      // The repair never PROMOTES a dead node: any broker of the
      // neighbor that was not already a broker must be alive. (Brokers
      // that were already dead before this repair are handled by their
      // own FailureNeighbors pass, one per failed broker — see
      // CarolModel::Repair.)
      for (sim::NodeId b : t.brokers()) {
        if (!topo.is_broker(b)) {
          ASSERT_TRUE(alive[static_cast<std::size_t>(b)])
              << "dead node " << b << " promoted in " << t.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeighborhoodFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(RepairFuzzTest, CarolSurvivesMassFailures) {
  core::CarolConfig cfg;
  cfg.gon.hidden_width = 8;
  cfg.gon.num_layers = 1;
  cfg.gon.gat_width = 4;
  cfg.gon.generation_steps = 2;
  cfg.tabu.max_evaluations = 10;
  core::CarolModel model(cfg);
  common::Rng rng(77);
  for (int round = 0; round < 15; ++round) {
    sim::SystemSnapshot snap;
    snap.topology = sim::Topology::Initial(16, 4);
    snap.hosts.resize(16);
    snap.alive.assign(16, true);
    for (int i = 0; i < 16; ++i) {
      snap.hosts[static_cast<std::size_t>(i)].cpu_util = rng.Uniform(0, 1.5);
      snap.hosts[static_cast<std::size_t>(i)].is_broker =
          snap.topology.is_broker(i);
    }
    // Kill a random subset of brokers (possibly all of them).
    std::vector<sim::NodeId> failed;
    for (sim::NodeId b : snap.topology.brokers()) {
      if (rng.Bernoulli(0.6)) {
        failed.push_back(b);
        snap.alive[static_cast<std::size_t>(b)] = false;
        snap.hosts[static_cast<std::size_t>(b)].failed = true;
      }
    }
    const sim::Topology repaired =
        model.Repair(snap.topology, failed, snap);
    ASSERT_TRUE(repaired.IsValid());
    // Whatever survives, some broker exists and no failed broker keeps
    // workers unless nothing alive could take over.
    ASSERT_GE(repaired.broker_count(), 1);
  }
}

}  // namespace
}  // namespace carol
