// Interval-driven co-simulation of a federated edge environment
// (replaces the paper's Raspberry-Pi testbed; see DESIGN.md).
//
// Time advances in fixed scheduling intervals (5 simulated minutes by
// default, §IV-D). Within an interval the engine runs a piecewise-constant
// rate event loop: task processing rates stay constant between
// "breakpoints" (task completions, host failures/recoveries, management
// reconfiguration windows), which yields exact finish times and energy
// integrals without a packet-level DES.
//
// Per-interval protocol (mirrors Algorithm 2 of the paper):
//   1. BeginInterval()      — recoveries, failure detection
//   2. SetTopology(g)       — resilience model's repaired topology G_t
//   3. RouteQueuedTasks()   — gateway -> closest alive broker
//   4. <underlying scheduler produces a SchedulingDecision>
//   5. RunInterval(decision) — execute, measure, snapshot
#ifndef CAROL_SIM_FEDERATION_H_
#define CAROL_SIM_FEDERATION_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "sim/types.h"
#include "simkern/dirty.h"

namespace carol::sim {

struct SimConfig {
  double interval_seconds = 300.0;
  // Broker management overhead, as fractions of the broker's CPU capacity
  // (base + per managed worker + per active task in the LEI). The
  // per-task term is what makes low broker counts a bottleneck (paper
  // §I): an overloaded broker slows its whole LEI down.
  double broker_base_overhead_frac = 0.08;
  double broker_per_worker_overhead_frac = 0.015;
  double broker_per_task_overhead_frac = 0.035;
  // Node-shift costs: promoting/demoting initializes management containers
  // and synchronizes broker state (paper §III-B); reassignment only
  // refreshes the worker's broker IP (§IV-H).
  double role_change_overhead_s = 20.0;
  double reassign_overhead_s = 5.0;
  // Task migration penalty when its host changes (checkpoint transfer).
  double migration_delay_s = 8.0;
  // Memory thrashing: when resident RAM demand exceeds capacity the host
  // pages against (network-attached) swap and every task slows down.
  double ram_thrash_slowdown = 0.5;
  // Idle workers with no resident tasks drop to standby.
  double standby_power_frac = 0.6;
  // Retired and ignored: RunInterval always steps event-driven
  // (src/simkern/README.md). The field stays only so that code which
  // still assigns it keeps compiling.
  bool event_driven = false;
  NetworkConfig network;
};

// End-of-interval state of one host plus its measured metrics row.
struct HostRuntime {
  NodeSpec spec;
  // Failure window [fail_from_s, fail_until_s): the host is byzantine-
  // unresponsive inside it (set by the fault injector / SetFailed).
  double fail_from_s = -1.0;
  double fail_until_s = -1.0;
  // Management reconfiguration: tasks make no progress before this time.
  double reconfig_until_s = 0.0;
  // Injected resource contention (attack loads; §IV-F).
  double fault_cpu_mips = 0.0;
  double fault_ram_mb = 0.0;
  double fault_disk_mbps = 0.0;
  double fault_net_mbps = 0.0;
  // Measured during the last executed interval.
  HostMetricsRow metrics;

  bool FailedAt(double t) const {
    return fail_from_s >= 0.0 && t >= fail_from_s && t < fail_until_s;
  }
};

// Full observable state at the end of an interval — this is what resilience
// models, the GON feature encoder and the fault injector consume.
struct SystemSnapshot {
  int interval = 0;
  double time_s = 0.0;
  Topology topology;
  std::vector<HostMetricsRow> hosts;
  std::vector<bool> alive;
  double interval_energy_kwh = 0.0;
  double total_energy_kwh = 0.0;
  double avg_response_s = 0.0;  // over tasks completed this interval
  double slo_rate = 0.0;        // over tasks completed this interval
  int active_tasks = 0;
  int queued_tasks = 0;

  int num_hosts() const { return static_cast<int>(hosts.size()); }
};

struct IntervalResult {
  int interval = 0;
  double energy_kwh = 0.0;
  std::vector<double> response_times;
  std::vector<int> response_app_types;
  std::vector<double> response_deadlines;
  int completed = 0;
  int violated = 0;
  int arrivals = 0;
  int stranded = 0;  // tasks that could not be routed/placed
  SystemSnapshot snapshot;
};

// The underlying scheduler's output S_t: placement of unassigned tasks
// onto worker nodes.
struct SchedulingDecision {
  std::unordered_map<TaskId, NodeId> placement;
};

struct StepInfo {
  // Brokers detected as failed at the interval boundary (these were
  // unresponsive when the inter-broker pings last ran, §IV-G).
  std::vector<NodeId> failed_brokers;
  std::vector<NodeId> failed_workers;
  std::vector<NodeId> recovered;  // nodes whose failure window elapsed
};

class Federation {
 public:
  Federation(std::vector<NodeSpec> specs, Topology topology,
             SimConfig config, common::Rng rng);

  // --- per-interval protocol ---
  StepInfo BeginInterval();
  // Applies a (validated) topology; computes reconfiguration windows for
  // role changes and reassignments and migrates tasks off new brokers.
  // Invalid topologies are rejected with std::invalid_argument.
  void SetTopology(const Topology& topology);
  // Routes queued tasks to the closest alive broker. Tasks with no
  // reachable broker stay queued (stranded).
  void RouteQueuedTasks();
  // `build_snapshot = false` skips the O(H) SystemSnapshot gather at the
  // end of the interval AND leaves last_snapshot() untouched — only for
  // drivers whose hooks consume neither (no stochastic-organic fault
  // injection, no snapshot-reading repair model); the scalar fields of
  // result.snapshot (interval, time, energy, slo) are still filled.
  IntervalResult RunInterval(const SchedulingDecision& decision,
                             bool build_snapshot = true);

  // --- workload ---
  // Queues the tasks for routing. Throws std::invalid_argument, and
  // queues none of them, when a task's gateway_site is not a site of
  // this federation's network.
  void Submit(std::vector<Task> tasks);
  // Tasks routed to a broker but not yet placed on a worker; the
  // underlying scheduler places exactly these.
  std::vector<const Task*> UnplacedTasks() const;
  std::vector<const Task*> ActiveTasksOn(NodeId node) const;
  // Placed unfinished tasks on `node` — maintained incrementally, O(1).
  int resident_task_count(NodeId node) const {
    return resident_tasks_[static_cast<std::size_t>(node)];
  }
  int active_task_count() const;
  int queued_task_count() const;

  // --- faults (driven by carol::faults) ---
  // Marks a failure window. Extends an existing window if overlapping.
  // NOTE: failure windows and contention loads feed the incremental
  // fault/load host sets; mutate them only through these three calls
  // (never through mutable_host()).
  void SetFailed(NodeId node, double from_s, double until_s);
  void SetFaultLoad(NodeId node, double cpu_mips, double ram_mb,
                    double disk_mbps, double net_mbps);
  void ClearFaultLoad(NodeId node);
  // Hosts with a pending or open failure window, ascending. O(F) to
  // copy; the failure detector and BeginInterval iterate exactly these
  // instead of scanning all H hosts.
  std::vector<NodeId> FaultWindowHosts() const {
    return std::vector<NodeId>(fault_hosts_.begin(), fault_hosts_.end());
  }

  // --- accessors ---
  const Topology& topology() const { return topology_; }
  const Network& network() const { return network_; }
  // Scenario hook: partition/degradation mutations (SeverLink,
  // SetLinkDegradation, ...) between intervals. A severed host<->broker
  // link stalls the worker's tasks exactly like a hung broker, and
  // gateways cannot route across severed links; degradation multiplies
  // routing/transfer latencies. Mutate only at interval boundaries —
  // RunInterval assumes link state is constant within an interval.
  Network& mutable_network() { return network_; }
  const SimConfig& config() const { return config_; }
  int num_nodes() const { return static_cast<int>(hosts_.size()); }
  const HostRuntime& host(NodeId node) const;
  HostRuntime& mutable_host(NodeId node);
  double now_s() const { return now_s_; }
  int interval_index() const { return interval_; }
  bool IsAliveAt(NodeId node, double t) const;
  bool IsAliveNow(NodeId node) const { return IsAliveAt(node, now_s_); }
  std::vector<bool> AliveVector() const;
  const SystemSnapshot& last_snapshot() const { return last_snapshot_; }
  double total_energy_kwh() const { return total_energy_kwh_; }

  // --- planner hints (scoped repair; core/subgraph.h) -----------------
  // The engaged set of the last executed interval, ascending: every host
  // RunInterval actually stepped (task hosts and their brokers, open
  // fault windows, contention). Before the first interval it lists every
  // host. This is the "recently dirty" region a scoped repair should
  // extract around.
  const std::vector<NodeId>& engaged_hosts() const { return engaged_prev_; }
  // Hosts with injected contention load, ascending. O(L) to copy.
  std::vector<NodeId> LoadHosts() const {
    return std::vector<NodeId>(load_hosts_.begin(), load_hosts_.end());
  }
  // Alive latency-tie broker candidates a gateway at `site` routes to —
  // the neighbor brokers a repair around that site should consider.
  // Computed over the cached site-grouped broker lists
  // (Network::BrokerCandidatesBySite); O(sites + winners + H) for the
  // alive gather.
  std::vector<NodeId> LatencyTieBrokers(int site) const;

  // Builds a snapshot of current state (used before the first interval and
  // by tests; RunInterval produces authoritative end-of-interval ones).
  SystemSnapshot Snapshot() const;

  // From-scratch recomputation of every incrementally maintained
  // aggregate (fault/load host sets, resident task counts, per-broker
  // worker counts, quiet powers and the power tree — the tree total is
  // compared bit-exactly against SumTree::ShapedSum). Returns an empty
  // string when everything matches; otherwise a description of the first
  // divergence. Fuzzed by tests/fleet_sparse_test.cpp.
  std::string AuditIncrementalState() const;

 private:
  // The dense reference engine of tests/fleet_sparse_test.cpp.
  friend class DenseReferenceEngine;

  double BrokerOverheadMips(NodeId broker) const;
  void ApplyPlacement(const SchedulingDecision& decision, double t0,
                      IntervalResult* result);
  void MigrateTasksOff(NodeId node, double extra_delay_s);

  // --- simkern incremental bookkeeping (src/simkern/README.md) ---
  // Rebuilds per-broker worker counts and quiet powers after a topology
  // change; marks hosts whose quiet profile shape changed as row-dirty.
  void RefreshTopologyDerived();
  // Power draw of `node` with no tasks, no faults, no contention: standby
  // for workers, management-overhead load for brokers. Mirrors the
  // per-segment power formula of RunSegments exactly.
  double QuietPowerW(NodeId node) const;
  // Engaged-set O(changed) segment loop of RunInterval.
  void RunSegments(double t0, double t1, const std::set<double>& breakset,
                   IntervalResult* result);
  // Per-segment processing rate of every unfinished placed task at time
  // t, evaluated only on `engaged` slots of the member scratch arrays.
  // Fills scr_rates_ / scr_task_runnable_ (indices aligned with `active`).
  void ComputeRates(double t, const std::vector<std::size_t>& active,
                    const std::vector<int>& engaged);

  std::vector<HostRuntime> hosts_;
  Topology topology_;
  SimConfig config_;
  common::Rng rng_;
  Network network_;

  std::vector<Task> tasks_;
  // Indices into tasks_ of tasks not yet placed (queued or routed).
  std::vector<std::size_t> queued_;
  // Indices of placed, unfinished tasks.
  std::vector<std::size_t> active_;

  double now_s_ = 0.0;
  int interval_ = 0;
  double total_energy_kwh_ = 0.0;
  SystemSnapshot last_snapshot_;

  // --- simkern incremental state (invariants in src/simkern/README.md).
  // Owned exclusively by Federation; mutated only at the named points.
  std::set<NodeId> fault_hosts_;     // SetFailed / BeginInterval-clear
  std::set<NodeId> load_hosts_;      // SetFaultLoad (nonzero <-> member)
  std::set<NodeId> reconfig_hosts_;  // SetTopology; lazily pruned when
                                     // the window has elapsed
  std::vector<int> resident_tasks_;  // ApplyPlacement / MigrateTasksOff /
                                     // completion sweep
  std::vector<int> broker_worker_counts_;  // RefreshTopologyDerived
  std::vector<std::vector<NodeId>> site_brokers_;  // RefreshTopologyDerived;
                                                   // brokers grouped by
                                                   // gateway site, each
                                                   // group ascending
  std::vector<double> quiet_power_w_;      // RefreshTopologyDerived
  simkern::SumTree quiet_power_tree_;      // leaves == quiet_power_w_
  std::vector<int> prev_worker_counts_;    // scratch for the refresh diff

  // Engaged-set scratch (all H-sized, touched only on engaged slots per
  // interval) and row-refresh bookkeeping.
  simkern::HostSet engaged_;
  std::vector<NodeId> engaged_prev_;  // engaged set of the last interval
  std::set<NodeId> rows_dirty_;       // quiet hosts needing a row rewrite
  std::vector<double> scr_task_cpu_, scr_ram_, scr_disk_, scr_net_;
  std::vector<int> scr_lei_tasks_;
  std::vector<double> scr_cpu_r_, scr_ram_r_, scr_disk_r_, scr_net_r_;
  std::vector<double> scr_share_, scr_slow_, scr_broker_ratio_;
  std::vector<double> scr_cpu_int_, scr_ram_int_, scr_disk_int_,
      scr_net_int_, scr_energy_j_;
  std::vector<int> scr_completed_, scr_violated_;
  std::vector<double> scr_rates_;
  std::vector<char> scr_task_runnable_;
};

}  // namespace carol::sim

#endif  // CAROL_SIM_FEDERATION_H_
