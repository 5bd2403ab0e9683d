// Node-shift topology operations (paper §III-B, Figure 1).
//
// When a broker b fails, its workers are "orphaned" and the topology must
// be repaired by one of three worker-to-broker shift types:
//   Type 1 (+1 broker): promote two orphans, split the rest between them;
//   Type 2 (-1 broker): hand all orphans to an existing broker;
//   Type 3 (same count): promote one orphan to manage its siblings.
// The respective broker-to-worker counterparts, together with single
// worker reassignments, form the general neighborhood the tabu search
// explores when optimizing QoS beyond the immediate repair.
//
// The general neighborhood has one enumeration: compact move records
// (LocalMoves) rather than materialized topologies, so enumeration is
// O(1) per neighbor instead of copying an H-sized assignment vector each
// (the ROADMAP's H>=64 repair bottleneck). LocalMoveNeighbors hands them
// to the tabu search, which materializes candidates one at a time into a
// reused scratch buffer (ApplyLocalMove) — over-budget candidates are
// never built, tabu-filtered ones cost a scratch rebuild but no
// allocation, and only eligible candidates are ever copied into a
// frontier.
#ifndef CAROL_CORE_NODE_SHIFT_H_
#define CAROL_CORE_NODE_SHIFT_H_

#include <cstdint>
#include <vector>

#include "core/tabu.h"
#include "sim/topology.h"

namespace carol::core {

struct NodeShiftOptions {
  // Cap on Type-1 promotions pairs enumerated per failed broker.
  int max_type1_pairs = 6;
  // Cap on worker reassignment neighbors in the general neighborhood.
  int max_reassignments = 24;
  // Include broker-to-worker counterpart shifts (demotions).
  bool include_demotions = true;
};

// One local node-shift move, recorded as a (kind, node, target) triple.
// Applying it to the base topology (ApplyLocalMove) yields one neighbor;
// every enumerated move produces a valid topology (the mutation
// primitives preserve validity and only alive nodes are used as
// brokers/targets).
struct LocalMove {
  enum class Kind : std::uint8_t {
    kAssign,   // reassign worker `node` to broker `target`
    kPromote,  // promote worker `node` to broker (target unused)
    kDemote,   // demote broker `node` into broker `target`
  };
  Kind kind = Kind::kAssign;
  sim::NodeId node = 0;
  sim::NodeId target = 0;
};

// N(G, b): repair neighborhoods for a failed broker `b` (Algorithm 2,
// line 7). Every returned topology is valid, demotes `b`, and only uses
// alive nodes as brokers/targets. Returns empty when no alive node can
// take over.
std::vector<sim::Topology> FailureNeighbors(
    const sim::Topology& g, sim::NodeId failed_broker,
    const std::vector<bool>& alive, const NodeShiftOptions& options = {});

// The general local neighborhood around `g` as move records: single
// worker reassignments, then promotions, then demotions, restricted to
// alive nodes.
std::vector<LocalMove> LocalMoves(const sim::Topology& g,
                                  const std::vector<bool>& alive,
                                  const NodeShiftOptions& options = {});

// Materializes one move: `out` becomes `base` with the move applied
// (out's buffer is reused; out must not alias base). The copied
// topology carries base's incrementally maintained hash, so the
// mutation updates it in O(changed entries) and the tabu filter's
// subsequent Hash() costs O(1) — no per-candidate rehash.
void ApplyLocalMove(const sim::Topology& base, const LocalMove& move,
                    sim::Topology& out);

// Tabu-ready lazy neighborhood over LocalMoves: each call enumerates
// move records (no topology copies at enumeration time) and the search
// materializes candidates one at a time into a reused scratch buffer at
// frontier-build time — over-budget candidates are never built at all.
// `alive` is borrowed and must outlive the returned callable; `options`
// is copied (so temporaries are fine).
LazyNeighborFn LocalMoveNeighbors(const std::vector<bool>& alive,
                                  NodeShiftOptions options);

}  // namespace carol::core

#endif  // CAROL_CORE_NODE_SHIFT_H_
