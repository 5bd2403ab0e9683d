// Pins the resumable repair pipeline to the pre-refactor one-shot path.
// The references below are verbatim, from-scratch copies of the OLD
// eager implementations (batch tabu loop, eager neighborhood
// enumeration, blocking per-broker repair loop), so these tests are not
// circular: if the step-driven state machines ever drift from the
// original algorithm, they fail — regardless of what PlanDecision and
// the serving layer route through.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <unordered_set>

#include "core/carol.h"
#include "core/node_shift.h"
#include "core/tabu.h"
#include "sim/federation.h"

namespace carol::core {
namespace {

std::vector<bool> AllAlive(int n) { return std::vector<bool>(n, true); }

// Deterministic toy objective with enough structure for non-trivial
// search trajectories: LEI imbalance plus a hash-derived jitter that
// breaks ties differently per topology.
double ToyScore(const sim::Topology& g) {
  double imbalance = 0.0;
  for (sim::NodeId b : g.brokers()) {
    imbalance +=
        std::abs(static_cast<double>(g.workers_of(b).size()) - 3.0);
  }
  return imbalance + static_cast<double>(g.Hash() % 97) / 1000.0;
}

std::vector<double> ToyScores(const std::vector<sim::Topology>& frontier) {
  std::vector<double> scores;
  scores.reserve(frontier.size());
  for (const sim::Topology& g : frontier) scores.push_back(ToyScore(g));
  return scores;
}

// --- reference implementations (pre-refactor copies) --------------------

// The callback shapes of the OLD one-shot tabu search.
using ReferenceNeighborFn =
    std::function<std::vector<sim::Topology>(const sim::Topology&)>;
using ReferenceBatchObjectiveFn =
    std::function<std::vector<double>(const std::vector<sim::Topology>&)>;

// The OLD eager LocalNeighbors enumeration, copied from the seed
// node_shift.cpp (including its trailing validity filter).
std::vector<sim::Topology> ReferenceLocalNeighbors(
    const sim::Topology& g, const std::vector<bool>& alive,
    const NodeShiftOptions& options) {
  auto is_alive = [&](sim::NodeId node) {
    return node >= 0 && static_cast<std::size_t>(node) < alive.size() &&
           alive[static_cast<std::size_t>(node)];
  };
  std::vector<sim::Topology> neighbors;
  std::vector<sim::NodeId> live_brokers;
  for (sim::NodeId b : g.brokers()) {
    if (is_alive(b)) live_brokers.push_back(b);
  }
  int reassignments = 0;
  for (sim::NodeId w : g.workers()) {
    if (!is_alive(w)) continue;
    for (sim::NodeId b : live_brokers) {
      if (g.broker_of(w) == b) continue;
      if (reassignments >= options.max_reassignments) break;
      sim::Topology t = g;
      t.Assign(w, b);
      neighbors.push_back(std::move(t));
      ++reassignments;
    }
  }
  for (sim::NodeId w : g.workers()) {
    if (!is_alive(w)) continue;
    if (g.workers_of(g.broker_of(w)).size() < 2) continue;
    sim::Topology t = g;
    t.Promote(w);
    neighbors.push_back(std::move(t));
  }
  if (options.include_demotions && live_brokers.size() >= 2) {
    for (sim::NodeId b : live_brokers) {
      for (sim::NodeId b2 : live_brokers) {
        if (b == b2) continue;
        sim::Topology t = g;
        t.Demote(b, b2);
        neighbors.push_back(std::move(t));
      }
    }
  }
  std::erase_if(neighbors,
                [](const sim::Topology& t) { return !t.IsValid(); });
  return neighbors;
}

// The OLD run-to-completion batch tabu loop, copied from the seed
// tabu.cpp.
struct ReferenceTabuResult {
  sim::Topology best;
  double best_score = 0.0;
  int evaluations = 0;
};

ReferenceTabuResult ReferenceTabu(
    const TabuConfig& config, const sim::Topology& start,
    const ReferenceNeighborFn& neighbors,
    const ReferenceBatchObjectiveFn& objective) {
  std::deque<std::size_t> tabu_order;
  std::unordered_set<std::size_t> tabu_set;
  auto push_tabu = [&](std::size_t hash) {
    if (tabu_set.insert(hash).second) {
      tabu_order.push_back(hash);
      while (tabu_order.size() >
             static_cast<std::size_t>(std::max(1, config.tabu_list_size))) {
        tabu_set.erase(tabu_order.front());
        tabu_order.pop_front();
      }
    }
  };

  ReferenceTabuResult out;
  int evaluations = 0;
  sim::Topology current = start;
  double current_score = objective({current}).front();
  ++evaluations;
  out.best = current;
  out.best_score = current_score;
  push_tabu(current.Hash());

  std::vector<sim::Topology> eligible;
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    if (evaluations >= config.max_evaluations) break;
    std::vector<sim::Topology> frontier = neighbors(current);
    eligible.clear();
    const std::size_t budget =
        static_cast<std::size_t>(config.max_evaluations - evaluations);
    for (sim::Topology& candidate : frontier) {
      if (eligible.size() >= budget) break;
      if (tabu_set.contains(candidate.Hash())) continue;
      eligible.push_back(std::move(candidate));
    }
    if (eligible.empty()) break;
    const std::vector<double> scores = objective(eligible);
    evaluations += static_cast<int>(eligible.size());
    std::size_t chosen = 0;
    double chosen_score = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < eligible.size(); ++i) {
      if (scores[i] < chosen_score) {
        chosen_score = scores[i];
        chosen = i;
      }
    }
    current = std::move(eligible[chosen]);
    current_score = chosen_score;
    push_tabu(current.Hash());
    if (current_score < out.best_score) {
      out.best_score = current_score;
      out.best = current;
    }
  }
  out.evaluations = evaluations;
  return out;
}

// The OLD blocking per-broker repair loop, copied from the seed
// carol.cpp (driving the reference tabu above so nothing routes through
// the new state machines).
sim::Topology ReferencePlanRepair(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot, const CarolConfig& config,
    common::Rng& rng, const ReferenceBatchObjectiveFn& score) {
  sim::Topology topo = current;
  std::vector<bool> alive = snapshot.alive;
  if (alive.size() != static_cast<std::size_t>(topo.num_nodes())) {
    alive.assign(static_cast<std::size_t>(topo.num_nodes()), true);
  }
  for (sim::NodeId b : failed_brokers) {
    if (static_cast<std::size_t>(b) < alive.size()) {
      alive[static_cast<std::size_t>(b)] = false;
    }
  }
  for (sim::NodeId failed : failed_brokers) {
    if (!topo.is_broker(failed)) continue;
    std::vector<sim::Topology> repairs =
        FailureNeighbors(topo, failed, alive, config.node_shift);
    if (repairs.empty()) continue;
    const sim::Topology start = repairs[rng.Choice(repairs.size())];
    const ReferenceTabuResult result = ReferenceTabu(
        config.tabu, start,
        [&](const sim::Topology& g) {
          return ReferenceLocalNeighbors(g, alive, config.node_shift);
        },
        score);
    topo = result.best;
  }
  return topo;
}

sim::SystemSnapshot MakeSnapshot(int hosts, int brokers, double util = 0.5) {
  sim::SystemSnapshot snap;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    m.cpu_util = util;
    m.ram_util = util * 0.8;
    m.energy_kwh = util * 4e-4;
    m.is_broker = snap.topology.is_broker(i);
  }
  return snap;
}

sim::SystemSnapshot MakeFailureSnapshot(
    int hosts, int brokers, const std::vector<sim::NodeId>& failed) {
  sim::SystemSnapshot snap = MakeSnapshot(hosts, brokers);
  for (sim::NodeId f : failed) {
    snap.alive[static_cast<std::size_t>(f)] = false;
    snap.hosts[static_cast<std::size_t>(f)].failed = true;
  }
  return snap;
}

// --- move-record neighborhoods ------------------------------------------

// Every LocalMoves record applied to `g`, in enumeration order — the
// eager neighborhood the lazy frontier materializes one by one.
std::vector<sim::Topology> MaterializeLocalMoves(
    const sim::Topology& g, const std::vector<bool>& alive,
    const NodeShiftOptions& options) {
  const std::vector<LocalMove> moves = LocalMoves(g, alive, options);
  std::vector<sim::Topology> neighbors(moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    ApplyLocalMove(g, moves[i], neighbors[i]);
  }
  return neighbors;
}

TEST(LocalMovesTest, MaterializeToSeedStyleEnumeration) {
  const NodeShiftOptions options;
  for (const auto& [hosts, brokers] : std::vector<std::pair<int, int>>{
           {8, 2}, {12, 3}, {16, 4}, {16, 1}}) {
    sim::Topology g = sim::Topology::Initial(hosts, brokers);
    std::vector<bool> alive = AllAlive(hosts);
    if (hosts > 4) alive[static_cast<std::size_t>(hosts - 1)] = false;
    const std::vector<sim::Topology> expected =
        ReferenceLocalNeighbors(g, alive, options);
    const std::vector<sim::Topology> actual =
        MaterializeLocalMoves(g, alive, options);
    ASSERT_EQ(actual.size(), expected.size()) << hosts << "x" << brokers;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(actual[i] == expected[i])
          << "neighbor " << i << ": " << actual[i].ToString() << " vs "
          << expected[i].ToString();
    }
  }
}

TEST(LocalMovesTest, RespectsCapsLikeSeedEnumeration) {
  NodeShiftOptions options;
  options.max_reassignments = 5;
  options.include_demotions = false;
  const sim::Topology g = sim::Topology::Initial(16, 4);
  const auto alive = AllAlive(16);
  const auto expected = ReferenceLocalNeighbors(g, alive, options);
  const auto actual = MaterializeLocalMoves(g, alive, options);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(actual[i] == expected[i]) << i;
  }
}

TEST(LocalMovesTest, LazyMaterializationBuildsOnlyRequestedCandidates) {
  const sim::Topology g = sim::Topology::Initial(12, 3);
  const auto alive = AllAlive(12);
  const NodeShiftOptions options;
  const std::vector<LocalMove> moves = LocalMoves(g, alive, options);
  const auto eager = MaterializeLocalMoves(g, alive, options);
  ASSERT_EQ(moves.size(), eager.size());
  // Materialize a sparse subset out of a reused scratch topology.
  sim::Topology scratch;
  for (std::size_t i = 0; i < moves.size(); i += 3) {
    ApplyLocalMove(g, moves[i], scratch);
    EXPECT_TRUE(scratch == eager[i]) << i;
  }
}

// --- resumable tabu search ----------------------------------------------

TEST(TabuStateTest, StepByStepReproducesReferenceRun) {
  for (const TabuConfig config :
       {TabuConfig{}, TabuConfig{.tabu_list_size = 3, .max_iterations = 12},
        TabuConfig{.max_iterations = 4, .max_evaluations = 30},
        TabuConfig{.max_iterations = 0}}) {
    const sim::Topology start = sim::Topology::Initial(12, 2);
    const auto alive = AllAlive(12);
    const auto neighbor_fn = [&](const sim::Topology& g) {
      return ReferenceLocalNeighbors(g, alive, NodeShiftOptions{});
    };
    const ReferenceTabuResult expected =
        ReferenceTabu(config, start, neighbor_fn, ToyScores);

    // Drive the state machine by hand, one frontier at a time.
    TabuSearchState state(config, start, alive, NodeShiftOptions{});
    int steps = 0;
    while (!state.done()) {
      state.Advance(ToyScores(state.ProposeFrontier()));
      ++steps;
    }
    EXPECT_GE(steps, 1);
    EXPECT_TRUE(state.best() == expected.best)
        << "list=" << config.tabu_list_size
        << " iters=" << config.max_iterations;
    EXPECT_EQ(state.best_score(), expected.best_score);
    EXPECT_EQ(state.evaluations(), expected.evaluations);
  }
}

TEST(TabuStateTest, FirstFrontierIsTheIncumbent) {
  const sim::Topology start = sim::Topology::Initial(8, 2);
  const auto alive = AllAlive(8);
  TabuSearchState state(TabuConfig{}, start, alive, NodeShiftOptions{});
  ASSERT_EQ(state.ProposeFrontier().size(), 1u);
  EXPECT_TRUE(state.ProposeFrontier().front() == start);
}

TEST(TabuStateTest, RejectsMalformedDriving) {
  const sim::Topology start = sim::Topology::Initial(8, 2);
  const auto alive = AllAlive(8);
  TabuSearchState state(TabuConfig{.max_iterations = 1}, start, alive,
                        NodeShiftOptions{});
  const std::vector<double> wrong_count = {1.0, 2.0};
  EXPECT_THROW(state.Advance(wrong_count), std::logic_error);
  while (!state.done()) state.Advance(ToyScores(state.ProposeFrontier()));
  const std::vector<double> one = {1.0};
  EXPECT_THROW(state.Advance(one), std::logic_error);
}

// --- resumable repair jobs ----------------------------------------------

TEST(RepairJobTest, ReproducesReferencePlanRepair) {
  // Two simultaneous broker failures: the job must chain two tabu
  // searches (second start depends on the first repair) and consume the
  // rng stream exactly like the reference loop.
  const CarolConfig config;
  const std::vector<sim::NodeId> failed = {0, 4};
  const sim::SystemSnapshot snap = MakeFailureSnapshot(16, 4, failed);

  common::Rng reference_rng(config.seed);
  const sim::Topology expected = ReferencePlanRepair(
      snap.topology, failed, snap, config, reference_rng, ToyScores);

  common::Rng job_rng(config.seed);
  RepairJob job(snap.topology, failed, snap, config, &job_rng);
  int steps = 0;
  while (!job.done()) {
    job.Advance(ToyScores(job.ProposeFrontier()));
    ++steps;
  }
  EXPECT_GT(steps, 2);  // at least two searches' worth of frontiers
  EXPECT_TRUE(job.result() == expected);
  // The rng streams must coincide after the run, not just the decisions:
  // a job that drew more (or fewer) starts would desynchronize every
  // later decision of the session.
  EXPECT_EQ(job_rng.Choice(1000), reference_rng.Choice(1000));
}

TEST(RepairJobTest, CopiesATemporaryFailedBrokerList) {
  // A job built from a temporary two-broker list reads the list again
  // after its first search ends; it must plan exactly like a job built
  // from a named list, decision and rng stream alike.
  const CarolConfig config;
  const std::vector<sim::NodeId> failed = {0, 4};
  const sim::SystemSnapshot snap = MakeFailureSnapshot(16, 4, failed);

  common::Rng named_rng(config.seed);
  RepairJob named(snap.topology, failed, snap, config, &named_rng);
  while (!named.done()) named.Advance(ToyScores(named.ProposeFrontier()));

  common::Rng temp_rng(config.seed);
  RepairJob temp(snap.topology, std::vector<sim::NodeId>{0, 4}, snap, config,
                 &temp_rng);
  while (!temp.done()) temp.Advance(ToyScores(temp.ProposeFrontier()));

  EXPECT_TRUE(temp.result() == named.result());
  EXPECT_EQ(temp_rng.Choice(1000), named_rng.Choice(1000));
}

TEST(RepairJobTest, PlanDecisionMatchesStepDriving) {
  const CarolConfig config;
  const std::vector<sim::NodeId> failed = {0};
  const sim::SystemSnapshot snap = MakeFailureSnapshot(16, 4, failed);

  common::Rng rng_a(11);
  const sim::Topology via_plan =
      PlanDecision(snap.topology, failed, snap, config, rng_a,
                   [](const std::vector<sim::Topology>& frontier,
                      const sim::SystemSnapshot&) {
                     return ToyScores(frontier);
                   });

  common::Rng rng_b(11);
  RepairJob job(snap.topology, failed, snap, config, &rng_b);
  while (!job.done()) job.Advance(ToyScores(job.ProposeFrontier()));

  EXPECT_TRUE(via_plan == job.result());
}

TEST(RepairJobTest, InterleavedJobsMatchSoloRuns) {
  // Two federations' jobs advanced in adversarial interleavings (solo
  // driving, strict round-robin, A-heavy bursts) must produce exactly
  // the solo results: all search state is self-contained per job.
  const CarolConfig config;
  const std::vector<sim::NodeId> failed_a = {0};
  const std::vector<sim::NodeId> failed_b = {4};
  const sim::SystemSnapshot snap_a = MakeFailureSnapshot(16, 4, failed_a);
  const sim::SystemSnapshot snap_b = MakeFailureSnapshot(12, 3, failed_b);

  auto solo = [&](const sim::SystemSnapshot& snap,
                  const std::vector<sim::NodeId>& failed, unsigned seed) {
    common::Rng rng(seed);
    RepairJob job(snap.topology, failed, snap, config, &rng);
    while (!job.done()) job.Advance(ToyScores(job.ProposeFrontier()));
    return job.result();
  };
  const sim::Topology expected_a = solo(snap_a, failed_a, 21);
  const sim::Topology expected_b = solo(snap_b, failed_b, 22);

  for (int burst : {1, 2, 5}) {
    common::Rng rng_a(21), rng_b(22);
    RepairJob job_a(snap_a.topology, failed_a, snap_a, config, &rng_a);
    RepairJob job_b(snap_b.topology, failed_b, snap_b, config, &rng_b);
    while (!job_a.done() || !job_b.done()) {
      for (int k = 0; k < burst && !job_a.done(); ++k) {
        job_a.Advance(ToyScores(job_a.ProposeFrontier()));
      }
      if (!job_b.done()) job_b.Advance(ToyScores(job_b.ProposeFrontier()));
    }
    EXPECT_TRUE(job_a.result() == expected_a) << "burst " << burst;
    EXPECT_TRUE(job_b.result() == expected_b) << "burst " << burst;
  }
}

TEST(RepairJobTest, LargeFederationRepairMatchesSingleModelPath) {
  // H=64 end-to-end: a step-driven RepairJob scored by one GON must
  // reproduce the reference pre-refactor repair loop scored by a second
  // GON with the same seed, exactly. This chains every piece of the
  // large-H hot path — incremental-hash tabu filtering, move-record
  // enumeration and stacked generation scoring — against the
  // single-model reference.
  CarolConfig config;
  config.gon.hidden_width = 12;
  config.gon.num_layers = 2;
  config.gon.gat_width = 6;
  config.gon.generation_steps = 3;
  config.tabu.max_iterations = 2;
  config.tabu.max_evaluations = 40;

  const std::vector<sim::NodeId> failed = {0};
  const sim::SystemSnapshot snap = MakeFailureSnapshot(64, 16, failed);

  GonModel job_gon(config.gon);
  GonModel reference_gon(config.gon);  // same seed => same weights
  FeatureEncoder encoder;

  common::Rng reference_rng(config.seed);
  const sim::Topology expected = ReferencePlanRepair(
      snap.topology, failed, snap, config, reference_rng,
      [&](const std::vector<sim::Topology>& frontier) {
        return ScoreTopologiesWith(reference_gon, encoder, config.alpha,
                                   config.beta, frontier, snap);
      });

  common::Rng job_rng(config.seed);
  RepairJob job(snap.topology, failed, snap, config, &job_rng);
  while (!job.done()) {
    job.Advance(ScoreTopologiesWith(job_gon, encoder, config.alpha,
                                    config.beta, job.ProposeFrontier(),
                                    snap));
  }
  EXPECT_TRUE(job.result() == expected)
      << job.result().ToString() << " vs " << expected.ToString();
  EXPECT_FALSE(job.result().is_broker(0));
  EXPECT_EQ(job_rng.Choice(1000), reference_rng.Choice(1000));
}

TEST(RepairJobTest, NoFailureNoProactiveFinishesImmediately) {
  const CarolConfig config;  // proactive off
  const sim::SystemSnapshot snap = MakeSnapshot(12, 3);
  common::Rng rng(7);
  RepairJob job(snap.topology, {}, snap, config, &rng);
  EXPECT_TRUE(job.done());
  EXPECT_TRUE(job.ProposeFrontier().empty());
  EXPECT_TRUE(job.result() == snap.topology);
  EXPECT_FALSE(job.proactive_acted());
}

TEST(RepairJobTest, ProactiveMatchesReferenceGate) {
  // Overloaded fleet, no failure: the job runs a proactive search from
  // the incumbent, then re-scores the incumbent and only moves on a real
  // improvement — byte-for-byte the old PlanProactive sequence.
  CarolConfig config;
  config.proactive = true;
  sim::SystemSnapshot snap = MakeSnapshot(12, 3, 0.6);
  snap.hosts[2].cpu_util = 1.3;  // above proactive_util_threshold

  // Reference: old-style search + gate over the reference tabu.
  const ReferenceTabuResult search = ReferenceTabu(
      config.tabu, snap.topology,
      [&](const sim::Topology& g) {
        return ReferenceLocalNeighbors(g, AllAlive(12),
                                       config.node_shift);
      },
      ToyScores);
  const double incumbent_score = ToyScore(snap.topology);
  const sim::Topology expected =
      search.best_score < incumbent_score - 0.01 ? search.best
                                                 : snap.topology;

  common::Rng rng(7);
  RepairJob job(snap.topology, {}, snap, config, &rng);
  EXPECT_FALSE(job.done());
  while (!job.done()) job.Advance(ToyScores(job.ProposeFrontier()));
  EXPECT_TRUE(job.proactive_acted());
  EXPECT_TRUE(job.result() == expected);

  // Below the precursor threshold nothing runs at all.
  sim::SystemSnapshot calm = MakeSnapshot(12, 3, 0.4);
  RepairJob idle(calm.topology, {}, calm, config, &rng);
  EXPECT_TRUE(idle.done());
  EXPECT_FALSE(idle.proactive_acted());
}

}  // namespace
}  // namespace carol::core
