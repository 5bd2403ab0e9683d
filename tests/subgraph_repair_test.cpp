// Pins the subgraph-extracted repair path (core/subgraph.h) to its three
// contracts:
//   * WHOLE-LEI extraction — a node is extracted iff its broker's whole
//     LEI is, so any valid sub-decision splices into a valid topology;
//   * covers-full bit-identity — when the extraction spans the whole
//     federation the scoped job proposes the SAME frontiers, consumes
//     the SAME rng draws and lands on the SAME decision as the plain
//     RepairJob, step for step (synthetic scorer AND GON end to end);
//   * splice-back consistency — spliced topologies keep the incremental
//     Zobrist hash exact and survive Federation::SetTopology +
//     AuditIncrementalState on a live federation, fuzzed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/carol.h"
#include "core/gon.h"
#include "core/subgraph.h"
#include "sim/federation.h"
#include "sim/scheduler.h"
#include "sim/topology.h"
#include "sim/types.h"
#include "simkern/stepper.h"

namespace carol {
namespace {

// Deterministic synthetic scorer, identical in full and sub space for a
// covers-full extraction (it reads only the assignment encoding).
double SyntheticScore(const sim::Topology& t) {
  double s = 0.0;
  const auto& asg = t.assignment();
  for (std::size_t i = 0; i < asg.size(); ++i) {
    s += static_cast<double>((asg[i] * 31 + static_cast<int>(i)) % 97);
  }
  return s / (97.0 * static_cast<double>(asg.size()));
}

std::vector<double> ScoreAll(const std::vector<sim::Topology>& frontier) {
  std::vector<double> out;
  out.reserve(frontier.size());
  for (const sim::Topology& t : frontier) out.push_back(SyntheticScore(t));
  return out;
}

// A random valid topology with every broker's LEI non-degenerate.
sim::Topology RandomTopology(int hosts, int brokers, common::Rng& rng) {
  std::vector<sim::NodeId> broker_ids;
  const auto perm = rng.Permutation(static_cast<std::size_t>(hosts));
  for (int b = 0; b < brokers; ++b) {
    broker_ids.push_back(static_cast<sim::NodeId>(perm[b]));
  }
  std::vector<sim::NodeId> assignment(static_cast<std::size_t>(hosts));
  for (sim::NodeId b : broker_ids) {
    assignment[static_cast<std::size_t>(b)] = b;
  }
  for (int i = 0; i < hosts; ++i) {
    if (std::find(broker_ids.begin(), broker_ids.end(), i) ==
        broker_ids.end()) {
      assignment[static_cast<std::size_t>(i)] =
          broker_ids[rng.Choice(broker_ids.size())];
    }
  }
  return sim::Topology::FromAssignment(assignment);
}

core::CarolConfig SmallSearchConfig() {
  core::CarolConfig cfg;
  cfg.tabu.max_iterations = 3;
  cfg.tabu.max_evaluations = 40;
  cfg.gon.hidden_width = 16;
  cfg.gon.num_layers = 1;
  cfg.gon.gat_width = 8;
  cfg.gon.generation_steps = 3;
  return cfg;
}

core::ScopedRepairOptions CoversFullOptions(int hosts) {
  core::ScopedRepairOptions opt;
  opt.enabled = true;
  opt.max_hosts = hosts;  // budget spans the whole federation
  opt.fill_to_budget = true;
  return opt;
}

TEST(RepairSubgraphTest, WholeLeiInvariantFuzz) {
  common::Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    const int hosts = 8 + static_cast<int>(rng.Choice(120));
    const int brokers =
        1 + static_cast<int>(rng.Choice(static_cast<std::size_t>(
                std::max(1, hosts / 4))));
    const sim::Topology full = RandomTopology(hosts, brokers, rng);
    std::vector<sim::NodeId> failed;
    for (sim::NodeId b : full.brokers()) {
      if (rng.Choice(3) == 0) failed.push_back(b);
    }
    std::vector<sim::NodeId> hints;
    for (int k = 0; k < 5; ++k) {
      hints.push_back(
          static_cast<sim::NodeId>(rng.Choice(static_cast<std::size_t>(hosts))));
    }
    core::ScopedRepairOptions opt;
    opt.enabled = true;
    opt.max_hosts = 1 + static_cast<int>(rng.Choice(
                            static_cast<std::size_t>(hosts)));
    opt.fill_to_budget = rng.Choice(2) == 0;
    const std::vector<bool> alive(static_cast<std::size_t>(hosts), true);
    const core::RepairSubgraph sub = core::RepairSubgraph::Extract(
        full, alive, failed, hints, opt);
    if (failed.empty() && sub.empty()) continue;
    ASSERT_FALSE(sub.empty());
    // Nodes ascending, ToSub/ToFull consistent.
    const auto& nodes = sub.nodes();
    ASSERT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(sub.ToSub(nodes[i]), static_cast<sim::NodeId>(i));
      EXPECT_EQ(sub.ToFull(static_cast<sim::NodeId>(i)), nodes[i]);
    }
    // Whole-LEI: every extracted node's broker is extracted too.
    const auto& asg = full.assignment();
    for (sim::NodeId n : nodes) {
      EXPECT_NE(sub.ToSub(asg[static_cast<std::size_t>(n)]), sim::kNoNode)
          << "node " << n << " extracted without its broker";
      // ...and the broker's whole LEI came along.
      const sim::NodeId b = asg[static_cast<std::size_t>(n)];
      for (sim::NodeId m = 0; m < hosts; ++m) {
        if (asg[static_cast<std::size_t>(m)] == b) {
          EXPECT_NE(sub.ToSub(m), sim::kNoNode)
              << "LEI of broker " << b << " only partially extracted";
        }
      }
    }
    // Every failed broker's LEI is mandatory, budget or not.
    for (sim::NodeId b : failed) {
      EXPECT_NE(sub.ToSub(b), sim::kNoNode);
    }
    // The remapped sub-topology is valid by construction.
    EXPECT_TRUE(sub.sub_topology().IsValid());
    // sub_failed preserves the input order (the rng-draw order).
    ASSERT_EQ(sub.sub_failed().size(), failed.size());
    for (std::size_t i = 0; i < failed.size(); ++i) {
      EXPECT_EQ(sub.sub_failed()[i], sub.ToSub(failed[i]));
    }
  }
}

TEST(RepairSubgraphTest, CoversFullIsIdentityRemap) {
  common::Rng rng(12);
  const sim::Topology full = RandomTopology(48, 12, rng);
  const std::vector<bool> alive(48, true);
  const std::vector<sim::NodeId> failed = {full.brokers().front()};
  const core::RepairSubgraph sub = core::RepairSubgraph::Extract(
      full, alive, failed, {}, CoversFullOptions(48));
  ASSERT_TRUE(sub.covers_full());
  EXPECT_EQ(sub.sub_hosts(), 48);
  for (sim::NodeId i = 0; i < 48; ++i) {
    EXPECT_EQ(sub.ToSub(i), i);
  }
  EXPECT_TRUE(sub.sub_topology() == full);
  EXPECT_EQ(sub.sub_topology().Hash(), full.Hash());
}

// Step-for-step lockstep: same frontiers, same rng stream, same decision.
TEST(RepairSubgraphTest, CoversFullBitIdenticalSyntheticScorer) {
  common::Rng seed_rng(13);
  for (int round = 0; round < 25; ++round) {
    const sim::Topology current = RandomTopology(32, 8, seed_rng);
    std::vector<sim::NodeId> failed;
    for (sim::NodeId b : current.brokers()) {
      if (failed.size() < 3 && seed_rng.Choice(2) == 0) failed.push_back(b);
    }
    if (failed.empty()) failed.push_back(current.brokers().front());
    const core::CarolConfig cfg = SmallSearchConfig();
    sim::SystemSnapshot snapshot;  // empty rows/alive: all-alive fallback

    const unsigned seed = 1000 + static_cast<unsigned>(round);
    common::Rng rng_full(seed);
    common::Rng rng_scoped(seed);
    core::RepairJob job(current, failed, snapshot, cfg, &rng_full);
    core::RepairJob scoped(current, failed, snapshot, {},
                           CoversFullOptions(32), cfg, &rng_scoped);
    ASSERT_TRUE(scoped.subgraph().covers_full());

    while (!job.done() || !scoped.done()) {
      ASSERT_EQ(job.done(), scoped.done());
      const auto& f1 = job.ProposeFrontier();
      const auto& f2 = scoped.ProposeFrontier();
      ASSERT_EQ(f1.size(), f2.size());
      for (std::size_t i = 0; i < f1.size(); ++i) {
        EXPECT_TRUE(f1[i] == f2[i]) << "frontier diverged at " << i;
        EXPECT_EQ(f1[i].Hash(), f2[i].Hash());
      }
      const std::vector<double> scores = ScoreAll(f1);
      job.Advance(scores);
      scoped.Advance(scores);
    }
    EXPECT_TRUE(job.result() == scoped.result());
    EXPECT_EQ(job.result().Hash(), scoped.result().Hash());
    // The searches consumed the SAME rng draws.
    EXPECT_EQ(rng_full.SaveState(), rng_scoped.SaveState());
  }
}

// End to end through the real decision path: GON scoring included.
TEST(RepairSubgraphTest, CoversFullBitIdenticalGonEndToEnd) {
  const core::CarolConfig cfg = SmallSearchConfig();
  // Two GON instances from one config share seeded-identical weights.
  core::GonModel gon_a(cfg.gon);
  core::GonModel gon_b(cfg.gon);
  core::FeatureEncoder encoder;

  sim::SimConfig sim_cfg;
  sim::Federation fed(sim::ScaledTestbedSpecs(32),
                      sim::Topology::Initial(32, 8), sim_cfg,
                      common::Rng(21));
  const sim::SystemSnapshot snapshot = fed.Snapshot();
  const sim::Topology current = fed.topology();
  const std::vector<sim::NodeId> failed = {current.brokers()[0],
                                           current.brokers()[2]};

  common::Rng rng_full(77);
  common::Rng rng_scoped(77);
  auto score_with = [&](core::GonModel& gon) -> core::TopologyBatchScoreFn {
    return [&](const std::vector<sim::Topology>& frontier,
               const sim::SystemSnapshot& scoring) {
      return core::ScoreTopologiesWith(gon, encoder, cfg.alpha, cfg.beta,
                                       frontier, scoring);
    };
  };
  const core::RepairScope scope{CoversFullOptions(32), {}};
  const sim::Topology full_decision = core::PlanDecision(
      current, failed, snapshot, cfg, rng_full, score_with(gon_a));
  const sim::Topology scoped_decision = core::PlanDecision(
      current, failed, snapshot, cfg, rng_scoped, score_with(gon_b), &scope);

  EXPECT_TRUE(full_decision == scoped_decision);
  EXPECT_EQ(full_decision.Hash(), scoped_decision.Hash());
  EXPECT_EQ(rng_full.SaveState(), rng_scoped.SaveState());
}

// Park/restore mid-search: the restored scoped job continues the stream.
TEST(RepairSubgraphTest, SaveRestoreMidSearchContinuesBitIdentically) {
  common::Rng seed_rng(14);
  const sim::Topology current = RandomTopology(64, 16, seed_rng);
  const std::vector<sim::NodeId> failed = {current.brokers()[1]};
  const core::CarolConfig cfg = SmallSearchConfig();
  sim::SystemSnapshot snapshot;
  core::ScopedRepairOptions opt;
  opt.enabled = true;
  opt.max_hosts = 32;

  // Reference: uninterrupted run.
  common::Rng rng_ref(5150);
  core::RepairJob ref(current, failed, snapshot, {}, opt, cfg, &rng_ref);
  while (!ref.done()) ref.Advance(ScoreAll(ref.ProposeFrontier()));

  // Interrupted run: one step, park, restore, finish.
  common::Rng rng_a(5150);
  core::RepairJobState parked;
  std::string rng_state;
  {
    core::RepairJob first(current, failed, snapshot, {}, opt, cfg, &rng_a);
    ASSERT_FALSE(first.done());
    first.Advance(ScoreAll(first.ProposeFrontier()));
    parked = first.SaveState();
    rng_state = rng_a.SaveState();
  }
  common::Rng rng_b(0);
  rng_b.LoadState(rng_state);
  const core::RepairScope scope{opt, {}};
  core::RepairJob resumed(current, failed, snapshot, cfg, &rng_b, &scope,
                          &parked);
  while (!resumed.done()) {
    resumed.Advance(ScoreAll(resumed.ProposeFrontier()));
  }
  EXPECT_TRUE(ref.result() == resumed.result());
  EXPECT_EQ(rng_ref.SaveState(), rng_b.SaveState());
}

TEST(ApplySpliceTest, MatchesFromAssignmentReference) {
  common::Rng rng(15);
  for (int round = 0; round < 300; ++round) {
    const int hosts = 4 + static_cast<int>(rng.Choice(60));
    const int brokers = 1 + static_cast<int>(rng.Choice(
                                static_cast<std::size_t>(
                                    std::max(1, hosts / 3))));
    const sim::Topology before = RandomTopology(hosts, brokers, rng);
    const sim::Topology after = RandomTopology(hosts, brokers, rng);
    std::vector<std::pair<sim::NodeId, sim::NodeId>> entries;
    for (int i = 0; i < hosts; ++i) {
      if (before.assignment()[static_cast<std::size_t>(i)] !=
          after.assignment()[static_cast<std::size_t>(i)]) {
        entries.emplace_back(
            static_cast<sim::NodeId>(i),
            after.assignment()[static_cast<std::size_t>(i)]);
      }
    }
    sim::Topology spliced = before;
    spliced.ApplySplice(entries);
    EXPECT_TRUE(spliced == after);
    // The incremental hash equals the from-scratch one — no full rehash
    // ever ran.
    EXPECT_EQ(spliced.Hash(), after.Hash());
    EXPECT_EQ(spliced.Hash(), spliced.RecomputeHash());
  }
}

TEST(ApplySpliceTest, InvalidSpliceThrowsAndRollsBack) {
  const sim::Topology before = sim::Topology::Initial(16, 4);
  const std::size_t hash_before = before.Hash();
  const std::vector<sim::NodeId> asg_before = before.assignment();
  sim::Topology t = before;
  // Point a worker at another worker: locally detectable violation.
  std::vector<std::pair<sim::NodeId, sim::NodeId>> bad;
  bad.emplace_back(1, 2);  // 2 is a worker of broker 0 in Initial(16,4)
  EXPECT_THROW(t.ApplySplice(bad), std::invalid_argument);
  EXPECT_EQ(t.Hash(), hash_before);
  EXPECT_EQ(t.assignment(), asg_before);
  EXPECT_EQ(t.Hash(), t.RecomputeHash());
}

// Splice a genuinely scoped (smaller-than-full) decision back into a
// LIVE federation and let the kernel's own audit judge it.
TEST(SpliceBackTest, FuzzedScopedRepairsSurviveFederationAudit) {
  sim::SimConfig cfg;
  cfg.network.num_sites = 8;
  const int hosts = 128;
  sim::Federation fed(sim::ScaledTestbedSpecs(hosts),
                      sim::Topology::Initial(hosts, 8), cfg,
                      common::Rng(31));
  sim::LeastUtilizationScheduler scheduler;
  simkern::IntervalHooks hooks;  // minimal protocol
  simkern::IntervalStepper stepper(fed, scheduler, hooks);
  stepper.Run(2);  // warm the incremental state

  const core::CarolConfig search_cfg = SmallSearchConfig();
  common::Rng fuzz(32);
  common::Rng plan_rng(33);
  for (int round = 0; round < 20; ++round) {
    const sim::Topology current = fed.topology();
    std::vector<sim::NodeId> brokers = current.brokers();
    ASSERT_FALSE(brokers.empty());
    std::vector<sim::NodeId> failed = {
        brokers[fuzz.Choice(brokers.size())]};
    const std::vector<sim::NodeId> hints =
        simkern::RepairScopeHints(fed, failed);
    core::ScopedRepairOptions opt;
    opt.enabled = true;
    opt.max_hosts = 16 + static_cast<int>(fuzz.Choice(48));
    opt.fill_to_budget = fuzz.Choice(2) == 0;

    core::RepairJob job(current, failed, fed.last_snapshot(), hints, opt,
                        search_cfg, &plan_rng);
    EXPECT_LT(job.subgraph().sub_hosts(), hosts)
        << "extraction unexpectedly covered the full federation";
    while (!job.done()) job.Advance(ScoreAll(job.ProposeFrontier()));
    const sim::Topology repaired = job.result();
    ASSERT_TRUE(repaired.IsValid());
    EXPECT_EQ(repaired.Hash(), repaired.RecomputeHash());

    fed.SetTopology(repaired);
    const std::string audit = fed.AuditIncrementalState();
    EXPECT_EQ(audit, "") << "audit diverged after splice-back: " << audit;
    stepper.Step(2 + round);  // keep the kernel evolving between rounds
  }
}

// A genuinely scoped extraction at larger H: budgeted size, validity,
// and a decision that only touches extracted hosts.
TEST(RepairSubgraphTest, ScopedExtractionAtH512) {
  const int hosts = 512;
  const sim::Topology current = sim::Topology::Initial(hosts, 32);
  const std::vector<bool> alive(static_cast<std::size_t>(hosts), true);
  const std::vector<sim::NodeId> failed = {current.brokers()[5]};
  core::ScopedRepairOptions opt;
  opt.enabled = true;
  opt.max_hosts = 128;
  const core::RepairSubgraph sub = core::RepairSubgraph::Extract(
      current, alive, failed, {}, opt);
  ASSERT_FALSE(sub.empty());
  EXPECT_FALSE(sub.covers_full());
  // Initial(512, 32) LEIs hold 16 hosts each: the budget admits at most
  // 8 of them, the mandatory one included.
  EXPECT_LE(sub.sub_hosts(), opt.max_hosts);
  EXPECT_GE(sub.sub_hosts(), 16);
  EXPECT_TRUE(sub.sub_topology().IsValid());

  // Drive a search and verify the spliced decision differs from the
  // input only inside the extracted region.
  const core::CarolConfig cfg = SmallSearchConfig();
  common::Rng rng(41);
  sim::SystemSnapshot snapshot;
  core::RepairJob job(current, failed, snapshot, {}, opt, cfg, &rng);
  while (!job.done()) job.Advance(ScoreAll(job.ProposeFrontier()));
  const sim::Topology decided = job.result();
  ASSERT_TRUE(decided.IsValid());
  for (int i = 0; i < hosts; ++i) {
    if (decided.assignment()[static_cast<std::size_t>(i)] !=
        current.assignment()[static_cast<std::size_t>(i)]) {
      EXPECT_NE(job.subgraph().ToSub(static_cast<sim::NodeId>(i)),
                sim::kNoNode)
          << "decision touched host " << i << " outside the extraction";
    }
  }
}

}  // namespace
}  // namespace carol
