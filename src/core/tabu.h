// Deterministic tabu search over the topology space (paper §III-B: chosen
// "due to its deterministic nature and empirically faster convergence").
// Minimizes an arbitrary objective Omega(G) over the node-shift
// neighborhood (core/node_shift.h), with a fixed-size tabu list of
// topology hashes (list size L is the Fig. 6(c) sensitivity knob).
//
// TabuSearchState is the one implementation, and it is step-driven: the
// search yields its pending candidate frontier (ProposeFrontier), the
// caller scores it with whatever machinery it likes (one stacked GON
// pass, a cross-session batcher, a toy objective) and feeds the scores
// back (Advance). This is what lets the serving layer stack frontiers
// from many concurrently-repairing federations into shared kernel passes
// without any wall-clock lingering (src/serve). A caller with a blocking
// objective drives it with a three-line loop (see the protocol below).
//
// Each frontier enumerates the current topology's moves as compact
// records (LocalMoves) and materializes them one at a time into a reused
// scratch topology (ApplyLocalMove): candidates past the evaluation
// budget are never built, a tabu-filtered one costs a scratch rebuild but
// no allocation, and only eligible candidates are copied into the
// frontier.
#ifndef CAROL_CORE_TABU_H_
#define CAROL_CORE_TABU_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/node_shift.h"
#include "sim/topology.h"

namespace carol::core {

struct TabuConfig {
  // L — maximum number of remembered topologies (paper default: 100).
  int tabu_list_size = 100;
  int max_iterations = 10;
  // Hard cap on objective evaluations per search, keeping repair
  // latency bounded in latency-critical settings (§III-B).
  int max_evaluations = 160;
};

// Complete serializable state of a TabuSearchState, captured BETWEEN
// steps (frontier proposed, scores not yet supplied — the natural park
// point of the serving layer's pipeline). Topologies are stored as
// their assignment encodings (Topology::FromAssignment round-trips and
// recomputes the identical deterministic Zobrist hash, so the saved
// tabu hashes stay comparable after a restore). The neighborhood inputs
// are NOT part of the state: the restoring caller re-supplies the alive
// mask and options (the moves are a pure function of them).
struct TabuSearchSnapshot {
  std::vector<sim::NodeId> current;
  std::vector<sim::NodeId> best;
  double best_score = 0.0;
  // Tabu hashes, oldest first (the derived lookup set is rebuilt).
  std::vector<std::uint64_t> tabu;
  // The pending frontier awaiting scores, as assignment encodings.
  std::vector<std::vector<sim::NodeId>> frontier;
  int evaluations = 0;
  int iter = 0;
  bool start_pending = true;
  bool done = false;
};

// The resumable search. Protocol:
//   TabuSearchState s(config, start, alive, node_shift_options);
//   while (!s.done()) s.Advance(scores_for(s.ProposeFrontier()));
//   use s.best();
// The first proposed frontier is {start} (the incumbent evaluation);
// every later one is the non-tabu, budget-truncated neighborhood of the
// current topology. State is self-contained, so many searches can be
// interleaved step by step in any order without affecting each other's
// results.
class TabuSearchState {
 public:
  // Neighbors are LocalMoves(current, alive, options); only alive nodes
  // become brokers or targets. `alive` is borrowed and must outlive the
  // search.
  TabuSearchState(const TabuConfig& config, sim::Topology start,
                  const std::vector<bool>& alive, NodeShiftOptions options);
  // Restores a search captured by Snapshot(). `alive` and `options` must
  // equal the original ones (same moves, same order) for the resumed
  // search to be bit-identical.
  TabuSearchState(const TabuConfig& config, const std::vector<bool>& alive,
                  NodeShiftOptions options,
                  const TabuSearchSnapshot& snapshot);

  // Captures the full search state between steps; resuming a restored
  // copy evaluates exactly the candidates (in the same order) that the
  // uninterrupted search would have.
  TabuSearchSnapshot Snapshot() const;

  // Candidates awaiting scores, in evaluation order. Non-empty unless
  // done(). The reference stays valid until the next Advance call.
  const std::vector<sim::Topology>& ProposeFrontier() const {
    return frontier_;
  }
  // Supplies one score per proposed candidate and advances the search to
  // its next frontier (or completion). Throws std::logic_error on a
  // count mismatch or when the search is already done.
  void Advance(std::span<const double> scores);

  bool done() const { return done_; }
  // Best topology / score seen so far (the final answer once done()).
  const sim::Topology& best() const { return best_; }
  double best_score() const { return best_score_; }
  int evaluations() const { return evaluations_; }

 private:
  void PushTabu(std::size_t hash);
  bool IsTabu(std::size_t hash) const;
  // Fills frontier_ with the next iteration's eligible candidates, or
  // flags completion (iteration/evaluation budget spent, neighborhood
  // exhausted or fully tabu).
  void BuildNextFrontier();

  TabuConfig config_;
  const std::vector<bool>* alive_;
  NodeShiftOptions options_;
  sim::Topology current_;
  sim::Topology best_;
  double best_score_ = 0.0;
  std::deque<std::size_t> tabu_order_;
  std::unordered_set<std::size_t> tabu_set_;
  std::vector<sim::Topology> frontier_;
  int evaluations_ = 0;
  int iter_ = 0;
  bool start_pending_ = true;  // the first Advance scores the incumbent
  bool done_ = false;
};

}  // namespace carol::core

#endif  // CAROL_CORE_TABU_H_
