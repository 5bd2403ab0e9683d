#include "core/node_shift.h"

#include <algorithm>

namespace carol::core {

namespace {

bool IsAlive(const std::vector<bool>& alive, sim::NodeId node) {
  return node >= 0 && static_cast<std::size_t>(node) < alive.size() &&
         alive[static_cast<std::size_t>(node)];
}

}  // namespace

std::vector<sim::Topology> FailureNeighbors(
    const sim::Topology& g, sim::NodeId failed_broker,
    const std::vector<bool>& alive, const NodeShiftOptions& options) {
  std::vector<sim::Topology> neighbors;
  if (!g.is_broker(failed_broker)) return neighbors;

  std::vector<sim::NodeId> orphans;
  for (sim::NodeId w : g.workers_of(failed_broker)) {
    if (IsAlive(alive, w)) orphans.push_back(w);
  }
  std::vector<sim::NodeId> other_brokers;
  for (sim::NodeId b : g.brokers()) {
    if (b != failed_broker && IsAlive(alive, b)) other_brokers.push_back(b);
  }
  // The neighborhood size is known up front; one reservation keeps the
  // repair path from reallocating topology vectors mid-enumeration.
  neighbors.reserve(orphans.size() + other_brokers.size() +
                    static_cast<std::size_t>(
                        std::max(0, options.max_type1_pairs)));

  // Type 3 (same broker count): one orphan becomes the broker of its
  // siblings (and inherits the failed broker as a worker-to-be).
  for (sim::NodeId w : orphans) {
    sim::Topology t = g;
    t.Promote(w);
    t.Demote(failed_broker, w);
    neighbors.push_back(std::move(t));
  }

  // Type 2 (-1 broker): all orphans move to an existing broker.
  for (sim::NodeId b : other_brokers) {
    sim::Topology t = g;
    t.Demote(failed_broker, b);
    neighbors.push_back(std::move(t));
  }

  // Type 1 (+1 broker): promote two orphans, distribute the remaining
  // orphans (and the failed broker) evenly between them.
  int pairs = 0;
  for (std::size_t i = 0; i < orphans.size() && pairs < options.max_type1_pairs;
       ++i) {
    for (std::size_t j = i + 1;
         j < orphans.size() && pairs < options.max_type1_pairs; ++j) {
      sim::Topology t = g;
      const sim::NodeId w1 = orphans[i];
      const sim::NodeId w2 = orphans[j];
      t.Promote(w1);
      t.Promote(w2);
      t.Demote(failed_broker, w1);
      // Even split: greedily assign the remaining orphans (and the
      // demoted, currently-dead broker node) to the smaller LEI.
      std::vector<sim::NodeId> to_assign;
      for (sim::NodeId w : orphans) {
        if (w != w1 && w != w2) to_assign.push_back(w);
      }
      to_assign.push_back(failed_broker);
      int c1 = 0, c2 = 0;
      for (sim::NodeId w : to_assign) {
        if (c1 <= c2) {
          t.Assign(w, w1);
          ++c1;
        } else {
          t.Assign(w, w2);
          ++c2;
        }
      }
      neighbors.push_back(std::move(t));
      ++pairs;
    }
  }

  // Keep only valid repairs that actually demote the failed broker.
  std::erase_if(neighbors, [&](const sim::Topology& t) {
    return !t.IsValid() || t.is_broker(failed_broker);
  });
  return neighbors;
}

std::vector<LocalMove> LocalMoves(const sim::Topology& g,
                                  const std::vector<bool>& alive,
                                  const NodeShiftOptions& options) {
  std::vector<LocalMove> moves;
  std::vector<sim::NodeId> live_brokers;
  for (sim::NodeId b : g.brokers()) {
    if (IsAlive(alive, b)) live_brokers.push_back(b);
  }
  const std::vector<sim::NodeId> workers = g.workers();
  moves.reserve(
      static_cast<std::size_t>(std::max(0, options.max_reassignments)) +
      workers.size() + live_brokers.size() * live_brokers.size());

  // Worker reassignments across LEIs.
  int reassignments = 0;
  for (sim::NodeId w : workers) {
    if (!IsAlive(alive, w)) continue;
    for (sim::NodeId b : live_brokers) {
      if (g.broker_of(w) == b) continue;
      if (reassignments >= options.max_reassignments) break;
      moves.push_back({LocalMove::Kind::kAssign, w, b});
      ++reassignments;
    }
  }

  // Worker-to-broker shifts (promotions) — increases the broker count.
  for (sim::NodeId w : workers) {
    if (!IsAlive(alive, w)) continue;
    // Only promote out of LEIs that keep at least one worker.
    if (g.workers_of(g.broker_of(w)).size() < 2) continue;
    moves.push_back({LocalMove::Kind::kPromote, w, 0});
  }

  // Broker-to-worker shifts (demotions) — decreases the broker count.
  if (options.include_demotions && live_brokers.size() >= 2) {
    for (sim::NodeId b : live_brokers) {
      for (sim::NodeId b2 : live_brokers) {
        if (b == b2) continue;
        moves.push_back({LocalMove::Kind::kDemote, b, b2});
      }
    }
  }
  return moves;
}

void ApplyLocalMove(const sim::Topology& base, const LocalMove& move,
                    sim::Topology& out) {
  out = base;
  switch (move.kind) {
    case LocalMove::Kind::kAssign:
      out.Assign(move.node, move.target);
      break;
    case LocalMove::Kind::kPromote:
      out.Promote(move.node);
      break;
    case LocalMove::Kind::kDemote:
      out.Demote(move.node, move.target);
      break;
  }
}

}  // namespace carol::core
