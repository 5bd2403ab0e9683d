#include "core/tabu.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace carol::core {

// --- TabuSearchState ----------------------------------------------------

TabuSearchState::TabuSearchState(const TabuConfig& config,
                                 sim::Topology start,
                                 const std::vector<bool>& alive,
                                 NodeShiftOptions options)
    : config_(config),
      alive_(&alive),
      options_(options),
      current_(std::move(start)),
      best_(current_) {
  // The first proposal is the incumbent itself: its score seeds
  // best_score_ on the first Advance.
  frontier_.push_back(current_);
}

TabuSearchState::TabuSearchState(const TabuConfig& config,
                                 const std::vector<bool>& alive,
                                 NodeShiftOptions options,
                                 const TabuSearchSnapshot& snapshot)
    : config_(config),
      alive_(&alive),
      options_(options),
      current_(sim::Topology::FromAssignment(snapshot.current)),
      best_(sim::Topology::FromAssignment(snapshot.best)),
      best_score_(snapshot.best_score),
      evaluations_(snapshot.evaluations),
      iter_(snapshot.iter),
      start_pending_(snapshot.start_pending),
      done_(snapshot.done) {
  // The lookup set is derived state: rebuild it from the ordered list.
  for (std::uint64_t hash : snapshot.tabu) {
    const auto h = static_cast<std::size_t>(hash);
    tabu_order_.push_back(h);
    tabu_set_.insert(h);
  }
  frontier_.reserve(snapshot.frontier.size());
  for (const std::vector<sim::NodeId>& assignment : snapshot.frontier) {
    frontier_.push_back(sim::Topology::FromAssignment(assignment));
  }
}

TabuSearchSnapshot TabuSearchState::Snapshot() const {
  TabuSearchSnapshot s;
  s.current = current_.assignment();
  s.best = best_.assignment();
  s.best_score = best_score_;
  s.tabu.assign(tabu_order_.begin(), tabu_order_.end());
  s.frontier.reserve(frontier_.size());
  for (const sim::Topology& g : frontier_) {
    s.frontier.push_back(g.assignment());
  }
  s.evaluations = evaluations_;
  s.iter = iter_;
  s.start_pending = start_pending_;
  s.done = done_;
  return s;
}

void TabuSearchState::PushTabu(std::size_t hash) {
  if (tabu_set_.insert(hash).second) {
    tabu_order_.push_back(hash);
    while (tabu_order_.size() >
           static_cast<std::size_t>(std::max(1, config_.tabu_list_size))) {
      tabu_set_.erase(tabu_order_.front());
      tabu_order_.pop_front();
    }
  }
}

bool TabuSearchState::IsTabu(std::size_t hash) const {
  return tabu_set_.contains(hash);
}

void TabuSearchState::BuildNextFrontier() {
  frontier_.clear();
  if (iter_ >= config_.max_iterations ||
      evaluations_ >= config_.max_evaluations) {
    done_ = true;
    return;
  }
  const std::vector<LocalMove> moves = LocalMoves(current_, *alive_, options_);
  // Non-tabu candidates in enumeration order, truncated to the remaining
  // evaluation budget — exactly the set the sequential loop scores.
  // Over-budget candidates are never built; candidates before the cutoff
  // materialize once into the reused scratch (a tabu-filtered candidate
  // costs no allocation) and only the eligible ones are copied out for
  // scoring. The Hash() lookup itself is O(1): Topology maintains a
  // Zobrist hash incrementally under every mutation, so filtering a
  // candidate never rehashes the full assignment (the H>=64 enumeration
  // cost the ROADMAP flagged).
  const std::size_t budget =
      static_cast<std::size_t>(config_.max_evaluations - evaluations_);
  sim::Topology scratch;
  for (const LocalMove& move : moves) {
    if (frontier_.size() >= budget) break;
    ApplyLocalMove(current_, move, scratch);
    if (IsTabu(scratch.Hash())) continue;
    frontier_.push_back(scratch);
  }
  if (frontier_.empty()) done_ = true;  // exhausted or all tabu
}

void TabuSearchState::Advance(std::span<const double> scores) {
  if (done_) {
    throw std::logic_error("TabuSearchState: Advance on a finished search");
  }
  if (scores.size() != frontier_.size()) {
    throw std::logic_error(
        "TabuSearchState: score count does not match the proposed frontier");
  }
  if (start_pending_) {
    start_pending_ = false;
    evaluations_ = 1;
    best_score_ = scores[0];
    PushTabu(current_.Hash());
    BuildNextFrontier();
    return;
  }
  evaluations_ += static_cast<int>(frontier_.size());
  // Aspiration: among eligibles pick the best (ties keep the first for
  // determinism).
  std::size_t chosen = 0;
  double chosen_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    if (scores[i] < chosen_score) {
      chosen_score = scores[i];
      chosen = i;
    }
  }
  current_ = std::move(frontier_[chosen]);
  PushTabu(current_.Hash());
  if (chosen_score < best_score_) {
    best_score_ = chosen_score;
    best_ = current_;
  }
  ++iter_;
  BuildNextFrontier();
}

}  // namespace carol::core
