// Subgraph-extracted repair: the large-fleet decision path.
//
// A repair at H = 4096 cannot afford full-federation GON states (each
// candidate costs an H x H adjacency plus H-row features) — but CAROL's
// own decision is local by construction: Algorithm 2 repairs around the
// faulty broker's LEI. RepairSubgraph makes that locality explicit. It
// extracts the AFFECTED REGION of the federation — the failed brokers'
// LEIs, the LEIs of hinted hosts (latency-tie neighbor brokers, the
// simkern engaged/dirty sets) and, budget permitting, spare alive-broker
// LEIs — into a compact index-remapped view. A RepairJob (core/carol.h)
// given a RepairScope runs the extraction itself, plans with the
// unchanged TabuSearchState / GON scoring machinery on the H_sub <= ~128
// problem and splices the decision back into the full topology through
// the incremental Topology::ApplySplice (no full rehash, no full
// re-audit).
//
// Invariants that make this correct:
//   * WHOLE-LEI extraction: a node is extracted iff its broker's entire
//     LEI is. No node outside the region points INTO it (workers point
//     only at their own broker; the broker clique is implicit), so any
//     valid sub-decision splices back into a valid full topology, and
//     ApplySplice's O(changed) local validation is sufficient.
//   * ORDER-PRESERVING remap: extracted nodes keep their ascending id
//     order. When the extraction covers the whole federation the remap
//     is the identity, the sub-problem IS the full problem verbatim —
//     same FailureNeighbors enumeration, same rng draws, same tabu
//     frontiers — so a scoped job is bit-identical to an unscoped one
//     (pinned by tests/subgraph_repair_test.cpp).
//   * Frontier confinement: candidate moves come from LocalMoves over the
//     SUB topology, so the search can never touch a host outside the
//     extracted region; everything else is pinned boundary state carried
//     through the splice untouched.
//
// This header sits below core/carol.h: it knows topologies and
// snapshots, not jobs or configs.
#ifndef CAROL_CORE_SUBGRAPH_H_
#define CAROL_CORE_SUBGRAPH_H_

#include <optional>
#include <span>
#include <vector>

#include "sim/federation.h"
#include "sim/topology.h"

namespace carol::core {

// Extraction options of a scoped repair.
struct ScopedRepairOptions {
  // Read by CarolModel / serve sessions: plan repairs on the extracted
  // subgraph instead of the full topology. Extraction itself ignores it.
  bool enabled = false;
  // Extraction budget (hosts). A TARGET, not a hard cap: mandatory LEIs
  // (the failed brokers' own) are always extracted even when one alone
  // exceeds it, so correctness never depends on the budget.
  int max_hosts = 128;
  // After the mandatory and hinted LEIs, keep adding alive-broker LEIs in
  // ascending id order while the budget allows — gives the node-shift
  // search spare brokers to move work to even when no hints arrived.
  bool fill_to_budget = true;
};

// The optional input of a RepairJob that makes it scoped: the extraction
// options plus the hinted hosts (simkern::RepairScopeHints) whose LEIs
// join the failed brokers' own. Two scopes are equal when they extract
// the same region from the same request (`options.enabled` only selects
// the scoped path in configs, so it is not compared).
struct RepairScope {
  ScopedRepairOptions options;
  std::vector<sim::NodeId> hints;

  friend bool operator==(const RepairScope& a, const RepairScope& b) {
    return a.options.max_hosts == b.options.max_hosts &&
           a.options.fill_to_budget == b.options.fill_to_budget &&
           a.hints == b.hints;
  }
};

class RepairSubgraph {
 public:
  // A default-constructed subgraph is empty(): no nodes, no topology.
  RepairSubgraph() = default;

  // Extracts the affected region of `full`. `failed_brokers` seed
  // mandatory LEIs (always extracted, even past the budget);
  // `hints` seed optional LEIs (latency-tie neighbors, engaged/dirty
  // hosts — any node id marks its whole LEI), added in the given order
  // while the budget allows; options.fill_to_budget then pads with
  // ascending alive-broker LEIs. Extraction is a pure deterministic
  // function of its arguments — a parked scoped repair re-extracts on
  // resume and lands on the identical mapping.
  static RepairSubgraph Extract(const sim::Topology& full,
                                const std::vector<bool>& alive,
                                std::span<const sim::NodeId> failed_brokers,
                                std::span<const sim::NodeId> hints,
                                const ScopedRepairOptions& options);

  int sub_hosts() const { return static_cast<int>(nodes_.size()); }
  int full_hosts() const { return full_hosts_; }
  bool empty() const { return nodes_.empty(); }
  // True when every node of the full federation was extracted — the
  // bit-identity regime (the remap is then the identity).
  bool covers_full() const {
    return static_cast<int>(nodes_.size()) == full_hosts_;
  }

  // Extracted node ids, ascending (full-space).
  const std::vector<sim::NodeId>& nodes() const { return nodes_; }
  sim::NodeId ToFull(sim::NodeId sub) const {
    return nodes_[static_cast<std::size_t>(sub)];
  }
  // kNoNode when `full` was not extracted. O(log H_sub).
  sim::NodeId ToSub(sim::NodeId full) const;

  // The remapped sub-topology (valid by the whole-LEI invariant).
  const sim::Topology& sub_topology() const { return *sub_topology_; }
  // The failed list remapped to sub ids, preserving the input ORDER
  // (RepairJob consumes one rng draw per searchable broker in list
  // order — order preservation is part of the bit-identity argument).
  const std::vector<sim::NodeId>& sub_failed() const { return sub_failed_; }

  // H_sub-row view of a full snapshot: host rows and alive flags copied
  // by extracted index, topology = sub_topology(). The GON never sees a
  // full-H row or adjacency. Scalar fields pass through unchanged.
  sim::SystemSnapshot SubSnapshot(const sim::SystemSnapshot& full) const;

  // Splices a decided sub-topology back into `full_current`: only the
  // entries that differ from the extracted sub-state are written, via
  // the incremental Topology::ApplySplice. O(changed + H_sub).
  sim::Topology Splice(const sim::Topology& full_current,
                       const sim::Topology& sub_decided) const;

 private:
  int full_hosts_ = 0;
  std::vector<sim::NodeId> nodes_;  // ascending full-space ids
  std::optional<sim::Topology> sub_topology_;
  std::vector<sim::NodeId> sub_failed_;
};

}  // namespace carol::core

#endif  // CAROL_CORE_SUBGRAPH_H_
