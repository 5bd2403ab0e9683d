// Pins the O(changed) event-driven engine of Federation::RunInterval
// against a dense reference engine, and the incremental bookkeeping
// against from-scratch recomputation — mirroring
// tests/topology_hash_test.cpp's incremental-vs-recompute discipline, but
// for the simulation kernel.
//
// The dense engine below (sim::DenseReferenceEngine) is the segment loop
// RunInterval ran before event-driven stepping became its only engine,
// kept as a test oracle: every per-segment loop walks all H hosts.
//
// Contract being enforced (src/simkern/README.md):
//   * task-visible outputs (rates, completions, response times, SLO
//     verdicts) are BIT-identical between the engines;
//   * federation-wide energy and quiet-host rows agree only to ULP level
//     (different, but still deterministic, summation orders);
//   * SumTree::Total() after any update sequence is bit-equal to a
//     from-scratch ShapedSum rebuild;
//   * AuditIncrementalState() stays empty under arbitrary fault/topology
//     /workload churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.h"
#include "sim/federation.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/topology.h"
#include "simkern/dirty.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace carol::sim {

// A friend of Federation that steps one interval of it through the
// dense engine instead of Federation::RunInterval. The protocol around
// it (BeginInterval, SetTopology, routing, scheduling) is the
// federation's own.
class DenseReferenceEngine {
 public:
  explicit DenseReferenceEngine(Federation& fed) : fed_(fed) {}

  IntervalResult RunInterval(const SchedulingDecision& decision,
                             bool build_snapshot = true);

 private:
  static constexpr double kEps = 1e-9;
  static constexpr double kMiEps = 1e-6;

  void RunSegments(double t0, double t1, const std::set<double>& breakset,
                   IntervalResult* result);
  std::vector<double> ComputeRates(double t,
                                   const std::vector<std::size_t>& active,
                                   std::vector<double>* host_cpu_ratio,
                                   std::vector<double>* host_ram_ratio,
                                   std::vector<double>* host_disk_ratio,
                                   std::vector<double>* host_net_ratio) const;

  Federation& fed_;
};

IntervalResult DenseReferenceEngine::RunInterval(
    const SchedulingDecision& decision, bool build_snapshot) {
  const double t0 = fed_.now_s_;
  const double t1 = t0 + fed_.config_.interval_seconds;
  IntervalResult result;
  result.interval = fed_.interval_;

  // Arrivals this interval = everything still unplaced before placement.
  result.arrivals = static_cast<int>(fed_.queued_.size());
  fed_.ApplyPlacement(decision, t0, &result);

  // Segment breakpoints: host state changes and task availability times.
  std::set<double> breakset = {t1};
  auto add_bp = [&](double t) {
    if (t > t0 + kEps && t < t1 - kEps) breakset.insert(t);
  };
  for (NodeId n : fed_.fault_hosts_) {
    const HostRuntime& h = fed_.hosts_[static_cast<std::size_t>(n)];
    add_bp(h.fail_from_s);
    add_bp(h.fail_until_s);
  }
  for (auto it = fed_.reconfig_hosts_.begin();
       it != fed_.reconfig_hosts_.end();) {
    const HostRuntime& h = fed_.hosts_[static_cast<std::size_t>(*it)];
    if (h.reconfig_until_s <= t0) {
      // Window elapsed; prune lazily (the value stays readable by the
      // runnable check, which compares against segment times directly).
      it = fed_.reconfig_hosts_.erase(it);
      continue;
    }
    add_bp(h.reconfig_until_s);
    ++it;
  }
  for (std::size_t idx : fed_.active_) {
    const Task& task = fed_.tasks_[idx];
    add_bp(task.placed_time_s + task.startup_delay_s);
  }

  RunSegments(t0, t1, breakset, &result);

  fed_.now_s_ = t1;
  ++fed_.interval_;

  if (build_snapshot) {
    result.snapshot = fed_.Snapshot();
  } else {
    result.snapshot.interval = fed_.interval_;
    result.snapshot.time_s = fed_.now_s_;
    result.snapshot.total_energy_kwh = fed_.total_energy_kwh_;
    result.snapshot.active_tasks = static_cast<int>(fed_.active_.size());
    result.snapshot.queued_tasks = static_cast<int>(fed_.queued_.size());
  }
  result.snapshot.interval_energy_kwh = result.energy_kwh;
  result.snapshot.avg_response_s =
      result.response_times.empty()
          ? 0.0
          : std::accumulate(result.response_times.begin(),
                            result.response_times.end(), 0.0) /
                static_cast<double>(result.response_times.size());
  result.snapshot.slo_rate =
      result.completed > 0
          ? static_cast<double>(result.violated) / result.completed
          : 0.0;
  if (build_snapshot) fed_.last_snapshot_ = result.snapshot;
  return result;
}

// Every per-segment loop walks all H hosts, and the interval energy is
// one left-to-right sum over all H hosts' integrals.
void DenseReferenceEngine::RunSegments(double t0, double t1,
                                       const std::set<double>& breakset,
                                       IntervalResult* out) {
  IntervalResult& result = *out;
  const std::size_t h_count = fed_.hosts_.size();
  std::vector<double> cpu_integral(h_count, 0.0), ram_integral(h_count, 0.0),
      disk_integral(h_count, 0.0), net_integral(h_count, 0.0),
      energy_j(h_count, 0.0);
  std::vector<int> host_completed(h_count, 0), host_violated(h_count, 0);

  double t = t0;
  while (t < t1 - kEps) {
    const double seg_end = *breakset.upper_bound(t + kEps);
    std::vector<double> cpu_r, ram_r, disk_r, net_r;
    const std::vector<double> rates =
        ComputeRates(t, fed_.active_, &cpu_r, &ram_r, &disk_r, &net_r);

    // Earliest completion inside this segment.
    double t_next = seg_end;
    for (std::size_t k = 0; k < fed_.active_.size(); ++k) {
      if (rates[k] > kEps) {
        const double eta =
            fed_.tasks_[fed_.active_[k]].remaining_mi / rates[k];
        t_next = std::min(t_next, t + eta);
      }
    }
    t_next = std::min(std::max(t_next, t + kEps), seg_end);
    const double dt = t_next - t;

    // Integrate utilization and energy over [t, t_next).
    for (std::size_t i = 0; i < h_count; ++i) {
      const HostRuntime& h = fed_.hosts_[i];
      cpu_integral[i] += cpu_r[i] * dt;
      ram_integral[i] += ram_r[i] * dt;
      disk_integral[i] += disk_r[i] * dt;
      net_integral[i] += net_r[i] * dt;
      double power = 0.0;
      if (h.FailedAt(t)) {
        power = h.spec.idle_power_w;  // hung or rebooting
      } else if (cpu_r[i] <= kEps &&
                 !fed_.topology_.is_broker(static_cast<NodeId>(i))) {
        power = h.spec.idle_power_w * fed_.config_.standby_power_frac;
      } else {
        power = h.spec.idle_power_w +
                (h.spec.peak_power_w - h.spec.idle_power_w) *
                    std::min(1.0, cpu_r[i]);
      }
      energy_j[i] += power * dt;
    }

    // Advance progress; collect completions. Erasure is deferred so the
    // `rates` indices stay aligned with `active_` during the sweep.
    for (std::size_t k = 0; k < fed_.active_.size(); ++k) {
      Task& task = fed_.tasks_[fed_.active_[k]];
      if (rates[k] <= kEps) continue;
      task.remaining_mi -= rates[k] * dt;
      if (task.remaining_mi > kMiEps) continue;
      task.remaining_mi = 0.0;
      task.finish_time_s = t_next;
      const NodeId hostid = task.assigned_host;
      const auto hidx = static_cast<std::size_t>(hostid);
      const double out_transfer =
          task.output_mb / std::max(1.0, fed_.hosts_[hidx].spec.net_bw_mbps);
      const double out_latency =
          2.0 *
          (fed_.network_.LatencyBetween(hostid, task.broker) +
           fed_.network_.LatencyFromSite(task.gateway_site, task.broker));
      const double response = task.finish_time_s - task.arrival_time_s +
                              out_transfer + out_latency;
      result.response_times.push_back(response);
      result.response_app_types.push_back(task.app_type);
      result.response_deadlines.push_back(task.slo_deadline_s);
      ++result.completed;
      ++host_completed[hidx];
      --fed_.resident_tasks_[hidx];
      if (response > task.slo_deadline_s) {
        ++result.violated;
        ++host_violated[hidx];
      }
    }
    fed_.active_.erase(std::remove_if(fed_.active_.begin(),
                                      fed_.active_.end(),
                                      [this](std::size_t idx) {
                                        return fed_.tasks_[idx].finished();
                                      }),
                       fed_.active_.end());

    t = t_next;
  }

  // Interval accounting.
  const double interval_kwh =
      std::accumulate(energy_j.begin(), energy_j.end(), 0.0) / 3.6e6;
  fed_.total_energy_kwh_ += interval_kwh;
  result.energy_kwh = interval_kwh;

  // Per-host metric rows (this becomes M_t).
  const double inv_dt = 1.0 / fed_.config_.interval_seconds;
  for (std::size_t i = 0; i < h_count; ++i) {
    HostRuntime& h = fed_.hosts_[i];
    HostMetricsRow& m = h.metrics;
    m = HostMetricsRow{};
    m.cpu_util = cpu_integral[i] * inv_dt;
    m.ram_util = ram_integral[i] * inv_dt;
    m.disk_util = disk_integral[i] * inv_dt;
    m.net_util = net_integral[i] * inv_dt;
    m.energy_kwh = energy_j[i] / 3.6e6;
    m.slo_violation_rate =
        host_completed[i] > 0
            ? static_cast<double>(host_violated[i]) / host_completed[i]
            : 0.0;
    m.is_broker = fed_.topology_.is_broker(static_cast<NodeId>(i));
    m.failed = h.FailedAt(t1 - kEps);
  }
  for (std::size_t idx : fed_.active_) {
    const Task& task = fed_.tasks_[idx];
    const auto hidx = static_cast<std::size_t>(task.assigned_host);
    HostMetricsRow& m = fed_.hosts_[hidx].metrics;
    m.task_cpu_demand_mips += task.mips_demand;
    m.task_ram_demand_mb += task.ram_mb;
    m.avg_deadline_s += task.slo_deadline_s;
  }
  for (std::size_t i = 0; i < h_count; ++i) {
    HostMetricsRow& m = fed_.hosts_[i].metrics;
    const int n = fed_.resident_tasks_[i];
    if (n > 0) m.avg_deadline_s /= static_cast<double>(n);
  }
  for (std::size_t idx : fed_.active_) {
    const Task& task = fed_.tasks_[idx];
    if (task.placed_time_s == t0) {
      const auto hidx = static_cast<std::size_t>(task.assigned_host);
      fed_.hosts_[hidx].metrics.sched_cpu_demand_mips += task.mips_demand;
      fed_.hosts_[hidx].metrics.sched_task_count += 1.0;
    }
  }
}

// Per-segment processing rate of every unfinished placed task at time t,
// plus every host's utilization ratios, computed over all H hosts.
std::vector<double> DenseReferenceEngine::ComputeRates(
    double t, const std::vector<std::size_t>& active,
    std::vector<double>* host_cpu_ratio, std::vector<double>* host_ram_ratio,
    std::vector<double>* host_disk_ratio,
    std::vector<double>* host_net_ratio) const {
  const std::size_t h_count = fed_.hosts_.size();
  std::vector<double> task_cpu(h_count, 0.0), ram(h_count, 0.0),
      disk(h_count, 0.0), net(h_count, 0.0);

  auto runnable = [&](const Task& task) {
    if (task.assigned_host == kNoNode) return false;
    const auto hidx = static_cast<std::size_t>(task.assigned_host);
    const HostRuntime& h = fed_.hosts_[hidx];
    if (h.FailedAt(t) || t < h.reconfig_until_s) return false;
    if (t < task.placed_time_s + task.startup_delay_s) return false;
    const NodeId broker = fed_.topology_.broker_of(task.assigned_host);
    if (fed_.hosts_[static_cast<std::size_t>(broker)].FailedAt(t)) {
      return false;
    }
    if (!fed_.network_.SiteReachable(
            fed_.network_.site_of(task.assigned_host), broker)) {
      return false;
    }
    return true;
  };

  std::vector<char> task_runnable(active.size(), 0);
  std::vector<int> lei_tasks(h_count, 0);  // active tasks per broker
  for (std::size_t k = 0; k < active.size(); ++k) {
    const Task& task = fed_.tasks_[active[k]];
    if (!runnable(task)) continue;
    task_runnable[k] = 1;
    const auto hidx = static_cast<std::size_t>(task.assigned_host);
    task_cpu[hidx] += task.mips_demand;
    ram[hidx] += task.ram_mb;
    disk[hidx] += task.disk_mbps;
    net[hidx] += task.net_mbps;
    ++lei_tasks[static_cast<std::size_t>(
        fed_.topology_.broker_of(task.assigned_host))];
  }

  host_cpu_ratio->assign(h_count, 0.0);
  host_ram_ratio->assign(h_count, 0.0);
  host_disk_ratio->assign(h_count, 0.0);
  host_net_ratio->assign(h_count, 0.0);
  std::vector<double> share(h_count, 1.0), slow(h_count, 1.0);
  std::vector<double> broker_ratio(h_count, 0.0);
  for (std::size_t i = 0; i < h_count; ++i) {
    const HostRuntime& h = fed_.hosts_[i];
    const NodeId node = static_cast<NodeId>(i);
    double overhead = 0.0;
    if (fed_.topology_.is_broker(node)) {
      overhead = fed_.BrokerOverheadMips(node) +
                 h.spec.cpu_capacity_mips *
                     fed_.config_.broker_per_task_overhead_frac *
                     static_cast<double>(lei_tasks[i]);
      broker_ratio[i] = (overhead + h.fault_cpu_mips + task_cpu[i]) /
                        h.spec.cpu_capacity_mips;
    }
    const double cap_total = h.spec.cpu_capacity_mips;
    const double cap_tasks = std::max(1.0, cap_total - overhead);
    const double contended = task_cpu[i] + h.fault_cpu_mips;
    (*host_cpu_ratio)[i] = (contended + overhead) / cap_total;
    (*host_ram_ratio)[i] = (ram[i] + h.fault_ram_mb) / h.spec.ram_mb;
    (*host_disk_ratio)[i] =
        (disk[i] + h.fault_disk_mbps) / h.spec.disk_bw_mbps;
    (*host_net_ratio)[i] = (net[i] + h.fault_net_mbps) / h.spec.net_bw_mbps;
    share[i] = contended > cap_tasks ? cap_tasks / contended : 1.0;
    double s = 1.0;
    if ((*host_ram_ratio)[i] > 1.0) s *= fed_.config_.ram_thrash_slowdown;
    if ((*host_disk_ratio)[i] > 1.0) s /= (*host_disk_ratio)[i];
    if ((*host_net_ratio)[i] > 1.0) s /= (*host_net_ratio)[i];
    slow[i] = s;
  }

  std::vector<double> rates(active.size(), 0.0);
  for (std::size_t k = 0; k < active.size(); ++k) {
    if (!task_runnable[k]) continue;
    const Task& task = fed_.tasks_[active[k]];
    const auto hidx = static_cast<std::size_t>(task.assigned_host);
    const auto bidx = static_cast<std::size_t>(
        fed_.topology_.broker_of(task.assigned_host));
    const double broker_slow =
        broker_ratio[bidx] > 1.0 ? 1.0 / broker_ratio[bidx] : 1.0;
    rates[k] = task.mips_demand * share[hidx] * slow[hidx] * broker_slow;
  }
  return rates;
}

}  // namespace carol::sim

namespace carol {
namespace {

// ---------------------------------------------------------------------------
// SumTree: incremental total == fixed-shape from-scratch rebuild, always.

TEST(SumTree, IncrementalTotalBitEqualsShapedSumUnderFuzz) {
  common::Rng rng(11);
  for (std::size_t n : {1u, 2u, 3u, 7u, 16u, 100u, 512u, 4096u}) {
    simkern::SumTree tree(n);
    std::vector<double> leaves(n, 0.0);
    EXPECT_EQ(tree.Total(), simkern::SumTree::ShapedSum(leaves));
    for (int step = 0; step < 500; ++step) {
      const std::size_t i = rng.Choice(n);
      // Adversarial magnitudes: cancellation and wide exponent spread.
      const double v = rng.Uniform(-1.0, 1.0) *
                       std::pow(10.0, rng.Uniform(-8.0, 8.0));
      tree.Set(i, v);
      leaves[i] = v;
      ASSERT_EQ(tree.Total(), simkern::SumTree::ShapedSum(leaves))
          << "n=" << n << " step=" << step;
      ASSERT_EQ(tree.Get(i), v);
    }
  }
}

// ---------------------------------------------------------------------------
// Twin-federation helper: identical protocol on two federations, one
// stepped by the dense reference engine and one by RunInterval, with
// shared fault scripts and identical workloads.

struct Twin {
  sim::Federation dense;
  sim::Federation sparse;
  workload::WorkloadGenerator gen_d;
  workload::WorkloadGenerator gen_s;
  sim::LeastUtilizationScheduler sched_d;
  sim::LeastUtilizationScheduler sched_s;

  Twin(int hosts, int brokers, std::uint64_t seed, double lambda_per_site)
      : dense(sim::ScaledTestbedSpecs(hosts),
              sim::Topology::Initial(hosts, brokers), sim::SimConfig{},
              common::Rng(seed)),
        sparse(sim::ScaledTestbedSpecs(hosts),
               sim::Topology::Initial(hosts, brokers), sim::SimConfig{},
               common::Rng(seed)),
        gen_d(workload::AIoTBenchProfiles(), WorkloadCfg(lambda_per_site),
              common::Rng(seed + 7)),
        gen_s(workload::AIoTBenchProfiles(), WorkloadCfg(lambda_per_site),
              common::Rng(seed + 7)) {}

  static workload::WorkloadConfig WorkloadCfg(double lambda) {
    workload::WorkloadConfig wl;
    wl.lambda_per_site = lambda;
    return wl;
  }

  // One protocol interval on both federations; returns both results.
  std::pair<sim::IntervalResult, sim::IntervalResult> Step(int interval,
                                                           bool submit) {
    dense.BeginInterval();
    sparse.BeginInterval();
    if (submit) {
      dense.Submit(gen_d.Generate(interval, dense.now_s()));
      sparse.Submit(gen_s.Generate(interval, sparse.now_s()));
    }
    dense.RouteQueuedTasks();
    sparse.RouteQueuedTasks();
    const auto dd = sched_d.Schedule(dense);
    const auto ds = sched_s.Schedule(sparse);
    EXPECT_EQ(dd.placement, ds.placement) << "interval " << interval;
    return {sim::DenseReferenceEngine(dense).RunInterval(dd),
            sparse.RunInterval(ds)};
  }
};

void ExpectResultsMatch(const sim::IntervalResult& d,
                        const sim::IntervalResult& s, int interval) {
  // Task-visible outputs: bit-identical.
  EXPECT_EQ(d.completed, s.completed) << interval;
  EXPECT_EQ(d.violated, s.violated) << interval;
  EXPECT_EQ(d.stranded, s.stranded) << interval;
  ASSERT_EQ(d.response_times.size(), s.response_times.size()) << interval;
  for (std::size_t i = 0; i < d.response_times.size(); ++i) {
    EXPECT_EQ(d.response_times[i], s.response_times[i])
        << "interval " << interval << " completion " << i;
  }
  EXPECT_EQ(d.response_app_types, s.response_app_types) << interval;
  // Energy: same deterministic value up to summation order (ULP level).
  EXPECT_NEAR(s.energy_kwh, d.energy_kwh,
              1e-9 * std::max(1.0, std::abs(d.energy_kwh)))
      << interval;
}

void ExpectRowsMatch(const sim::Federation& dense,
                     const sim::Federation& sparse, int interval) {
  for (sim::NodeId n = 0; n < dense.num_nodes(); ++n) {
    const auto& md = dense.host(n).metrics;
    const auto& ms = sparse.host(n).metrics;
    const double tol = 1e-9;
    EXPECT_NEAR(ms.cpu_util, md.cpu_util,
                tol * std::max(1.0, std::abs(md.cpu_util)))
        << "n=" << n << " i=" << interval;
    EXPECT_NEAR(ms.ram_util, md.ram_util,
                tol * std::max(1.0, std::abs(md.ram_util)))
        << "n=" << n;
    EXPECT_NEAR(ms.energy_kwh, md.energy_kwh,
                tol * std::max(1.0, std::abs(md.energy_kwh)))
        << "n=" << n;
    EXPECT_EQ(ms.slo_violation_rate, md.slo_violation_rate) << "n=" << n;
    EXPECT_EQ(ms.task_cpu_demand_mips, md.task_cpu_demand_mips)
        << "n=" << n;
    EXPECT_EQ(ms.task_ram_demand_mb, md.task_ram_demand_mb) << "n=" << n;
    EXPECT_EQ(ms.avg_deadline_s, md.avg_deadline_s) << "n=" << n;
    EXPECT_EQ(ms.sched_cpu_demand_mips, md.sched_cpu_demand_mips)
        << "n=" << n;
    EXPECT_EQ(ms.sched_task_count, md.sched_task_count) << "n=" << n;
    EXPECT_EQ(ms.is_broker, md.is_broker) << "n=" << n;
    EXPECT_EQ(ms.failed, md.failed) << "n=" << n;
  }
}

TEST(SparseEngine, TwinMatchesDenseUnderFaultChurn) {
  for (std::uint64_t seed : {3ull, 29ull}) {
    Twin twin(64, 16, seed, 1.5);
    common::Rng script(seed * 31 + 1);
    for (int interval = 0; interval < 30; ++interval) {
      // Scripted churn applied identically to both federations.
      if (script.Bernoulli(0.35)) {
        const auto n =
            static_cast<sim::NodeId>(script.Choice(64));
        const double from = twin.dense.now_s() + script.Uniform(5.0, 200.0);
        const double until = from + script.Uniform(100.0, 700.0);
        twin.dense.SetFailed(n, from, until);
        twin.sparse.SetFailed(n, from, until);
      }
      if (script.Bernoulli(0.35)) {
        const auto n =
            static_cast<sim::NodeId>(script.Choice(64));
        const double cpu = script.Uniform(0.0, 3000.0);
        const double ram = script.Uniform(0.0, 2048.0);
        twin.dense.SetFaultLoad(n, cpu, ram, 0.0, 0.0);
        twin.sparse.SetFaultLoad(n, cpu, ram, 0.0, 0.0);
      }
      if (script.Bernoulli(0.15)) {
        const auto n =
            static_cast<sim::NodeId>(script.Choice(64));
        twin.dense.ClearFaultLoad(n);
        twin.sparse.ClearFaultLoad(n);
      }
      // Disengage wave: stop arrivals after interval 18 so hosts drain
      // back to quiet and the engaged_prev_ row-refresh path runs.
      const bool submit = interval < 18;
      const auto [rd, rs] = twin.Step(interval, submit);
      ExpectResultsMatch(rd, rs, interval);
      ExpectRowsMatch(twin.dense, twin.sparse, interval);
      ASSERT_EQ(twin.sparse.AuditIncrementalState(), "") << interval;
    }
    // Cumulative energy stays pinned after the whole run.
    EXPECT_NEAR(twin.sparse.total_energy_kwh(), twin.dense.total_energy_kwh(),
                1e-9 * std::max(1.0, twin.dense.total_energy_kwh()));
  }
}

TEST(SparseEngine, AdversarialAllNodesDirtyInterval) {
  // Every host carries injected contention: the engaged set is the whole
  // fleet and the sparse engine degenerates to dense-shaped work. The
  // outputs must still line up (this is the worst case the dirty-set
  // design has to survive, not a fast path).
  Twin twin(32, 8, 101, 2.0);
  for (sim::NodeId n = 0; n < 32; ++n) {
    twin.dense.SetFaultLoad(n, 500.0, 128.0, 5.0, 2.0);
    twin.sparse.SetFaultLoad(n, 500.0, 128.0, 5.0, 2.0);
  }
  for (int interval = 0; interval < 5; ++interval) {
    const auto [rd, rs] = twin.Step(interval, true);
    ExpectResultsMatch(rd, rs, interval);
    ExpectRowsMatch(twin.dense, twin.sparse, interval);
    ASSERT_EQ(twin.sparse.AuditIncrementalState(), "") << interval;
  }
}

TEST(SparseEngine, SparseRunIsDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    sim::Federation fed(sim::ScaledTestbedSpecs(64),
                        sim::Topology::Initial(64, 16), sim::SimConfig{},
                        common::Rng(seed));
    workload::WorkloadConfig wl;
    wl.lambda_per_site = 1.5;
    workload::WorkloadGenerator gen(workload::AIoTBenchProfiles(), wl,
                                    common::Rng(seed + 1));
    sim::LeastUtilizationScheduler sched;
    std::vector<double> energies;
    std::vector<double> responses;
    for (int interval = 0; interval < 15; ++interval) {
      fed.BeginInterval();
      if (interval == 3) fed.SetFailed(5, fed.now_s() + 10.0, 900.0);
      fed.Submit(gen.Generate(interval, fed.now_s()));
      fed.RouteQueuedTasks();
      const auto r = fed.RunInterval(sched.Schedule(fed));
      energies.push_back(r.energy_kwh);
      responses.insert(responses.end(), r.response_times.begin(),
                       r.response_times.end());
    }
    return std::pair(energies, responses);
  };
  const auto a = run_once(9);
  const auto b = run_once(9);
  ASSERT_EQ(a.first.size(), b.first.size());
  for (std::size_t i = 0; i < a.first.size(); ++i) {
    EXPECT_EQ(a.first[i], b.first[i]) << i;
  }
  ASSERT_EQ(a.second.size(), b.second.size());
  for (std::size_t i = 0; i < a.second.size(); ++i) {
    EXPECT_EQ(a.second[i], b.second[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Incremental bookkeeping audited against from-scratch recomputation
// under random operation sequences (fault windows opening AND elapsing,
// contention toggling, topology churn, placements draining).

TEST(IncrementalState, AuditStaysCleanUnderRandomOps) {
  for (int hosts : {16, 64, 256}) {
    const int brokers = hosts / 4;
    common::Rng rng(static_cast<std::uint64_t>(hosts) * 17 + 3);
    sim::Federation fed(sim::ScaledTestbedSpecs(hosts),
                        sim::Topology::Initial(hosts, brokers),
                        sim::SimConfig{},
                        common::Rng(static_cast<std::uint64_t>(hosts)));
    workload::WorkloadConfig wl;
    wl.lambda_per_site = 1.0;
    workload::WorkloadGenerator gen(
        workload::DeFogProfiles(), wl,
        common::Rng(static_cast<std::uint64_t>(hosts) + 5));
    sim::LeastUtilizationScheduler sched;
    ASSERT_EQ(fed.AuditIncrementalState(), "") << "fresh h=" << hosts;
    for (int interval = 0; interval < 20; ++interval) {
      fed.BeginInterval();
      ASSERT_EQ(fed.AuditIncrementalState(), "")
          << "post-begin h=" << hosts << " i=" << interval;
      // Short fault windows so recovery (set erasure) is exercised.
      if (rng.Bernoulli(0.5)) {
        const auto n = static_cast<sim::NodeId>(
            rng.Choice(static_cast<std::size_t>(hosts)));
        const double from = fed.now_s() + rng.Uniform(0.0, 150.0);
        fed.SetFailed(n, from, from + rng.Uniform(50.0, 400.0));
      }
      if (rng.Bernoulli(0.5)) {
        const auto n = static_cast<sim::NodeId>(
            rng.Choice(static_cast<std::size_t>(hosts)));
        fed.SetFaultLoad(n, rng.Uniform(0.0, 2000.0), 0.0, 0.0, 0.0);
      }
      if (rng.Bernoulli(0.3)) {
        const auto n = static_cast<sim::NodeId>(
            rng.Choice(static_cast<std::size_t>(hosts)));
        fed.ClearFaultLoad(n);
      }
      // Topology churn: demote a random broker's LEI into another, or
      // promote a worker — worker-count and quiet-power updates.
      if (rng.Bernoulli(0.25)) {
        sim::Topology topo = fed.topology();
        const auto bs = topo.brokers();
        if (bs.size() >= 2) {
          const sim::NodeId from = bs[rng.Choice(bs.size())];
          sim::NodeId to = from;
          while (to == from) to = bs[rng.Choice(bs.size())];
          topo.Demote(from, to);
          fed.SetTopology(topo);
        }
      }
      ASSERT_EQ(fed.AuditIncrementalState(), "")
          << "post-ops h=" << hosts << " i=" << interval;
      fed.Submit(gen.Generate(interval, fed.now_s()));
      fed.RouteQueuedTasks();
      fed.RunInterval(sched.Schedule(fed));
      ASSERT_EQ(fed.AuditIncrementalState(), "")
          << "post-run h=" << hosts << " i=" << interval;
    }
  }
}

// ---------------------------------------------------------------------
// Routing: the site-grouped candidate path must reproduce the per-broker
// scan exactly — same set, same order — for every gateway site, under
// random broker placements, dead nodes, and severed links. The order
// matters because the tie-break Choice indexes into the list.

// The oracle: a per-broker scan over every alive broker reachable from
// `site`, in the given ascending order, keeping those within 1e-12 of the
// best gateway latency.
std::vector<sim::NodeId> BrokerCandidatesByScan(
    const sim::Network& net, int site,
    const std::vector<sim::NodeId>& brokers,
    const std::vector<bool>& alive) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<sim::NodeId> candidates;
  for (sim::NodeId b : brokers) {
    if (!alive[static_cast<std::size_t>(b)]) continue;
    if (!net.SiteReachable(site, b)) continue;
    const double lat = net.LatencyFromSite(site, b);
    if (lat < best - 1e-12) {
      best = lat;
      candidates = {b};
    } else if (lat < best + 1e-12) {
      candidates.push_back(b);
    }
  }
  return candidates;
}

TEST(Routing, SiteGroupedCandidatesMatchPerBrokerScanUnderFuzz) {
  common::Rng fuzz(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const int hosts = 8 + static_cast<int>(fuzz.Choice(120));
    const int num_sites = 1 + static_cast<int>(fuzz.Choice(12));
    sim::NetworkConfig ncfg;
    ncfg.num_sites = num_sites;
    common::Rng net_rng(static_cast<std::uint64_t>(trial) * 31 + 7);
    sim::Network net(hosts, ncfg, net_rng);

    // Random broker subset (possibly empty), grouped by site the way
    // Federation::RefreshTopologyDerived builds site_brokers_.
    std::vector<sim::NodeId> brokers;
    std::vector<std::vector<sim::NodeId>> site_brokers(
        static_cast<std::size_t>(num_sites));
    for (sim::NodeId n = 0; n < hosts; ++n) {
      if (fuzz.Bernoulli(0.25)) {
        brokers.push_back(n);
        site_brokers[static_cast<std::size_t>(net.site_of(n))].push_back(n);
      }
    }
    std::vector<bool> alive(static_cast<std::size_t>(hosts));
    for (auto&& a : alive) a = fuzz.Bernoulli(0.8);
    // Random severed links, occasionally a fully cut site.
    for (int k = 0; k < num_sites; ++k) {
      if (fuzz.Bernoulli(0.2)) {
        net.SeverLink(static_cast<int>(fuzz.Choice(
                          static_cast<std::size_t>(num_sites))),
                      static_cast<int>(fuzz.Choice(
                          static_cast<std::size_t>(num_sites))));
      }
    }
    if (num_sites > 1 && fuzz.Bernoulli(0.1)) {
      net.SeverSite(
          static_cast<int>(fuzz.Choice(static_cast<std::size_t>(num_sites))));
    }

    for (int site = 0; site < num_sites; ++site) {
      const auto scan = BrokerCandidatesByScan(net, site, brokers, alive);
      const auto grouped =
          net.BrokerCandidatesBySite(site, site_brokers, alive);
      ASSERT_EQ(grouped, scan)
          << "trial=" << trial << " hosts=" << hosts
          << " sites=" << num_sites << " gateway_site=" << site;
    }
  }
}

// Large-H partitions: the site-grouped path at fleet scale, with cuts
// opening, NESTING (refcounted) and healing while broker liveness churns.
// This is the configuration the scoped-repair scenarios run (H=512,
// sites = H/64), where BrokerCandidatesBySite carries all routing.

TEST(Routing, SiteGroupedCandidatesAtH512UnderActivePartitions) {
  const int hosts = 512;
  const int num_sites = hosts / 64;  // the RescaleScenario site density
  sim::NetworkConfig ncfg;
  ncfg.num_sites = num_sites;
  common::Rng net_rng(81);
  sim::Network net(hosts, ncfg, net_rng);

  // One broker per 16 hosts, grouped by site as Federation caches them.
  std::vector<sim::NodeId> brokers;
  std::vector<std::vector<sim::NodeId>> site_brokers(
      static_cast<std::size_t>(num_sites));
  for (sim::NodeId n = 0; n < hosts; n += 16) {
    brokers.push_back(n);
    site_brokers[static_cast<std::size_t>(net.site_of(n))].push_back(n);
  }
  std::vector<bool> alive(static_cast<std::size_t>(hosts), true);

  auto expect_paths_agree = [&](const char* stage) {
    for (int site = 0; site < num_sites; ++site) {
      const auto scan = BrokerCandidatesByScan(net, site, brokers, alive);
      const auto grouped =
          net.BrokerCandidatesBySite(site, site_brokers, alive);
      ASSERT_EQ(grouped, scan) << stage << " gateway_site=" << site;
    }
  };
  expect_paths_agree("healthy");

  common::Rng churn(82);
  // Phase 1: open partitions while brokers churn. Two overlapping cuts
  // land on the 0-1 link (a storm window nested inside a maintenance
  // window), plus a fully dark site.
  net.SeverLink(0, 1);
  net.SeverLink(0, 1);  // nested second window on the same link
  net.SeverSite(num_sites - 1);
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 6; ++k) {
      const auto b = brokers[churn.Choice(brokers.size())];
      alive[static_cast<std::size_t>(b)] = churn.Bernoulli(0.7);
    }
    expect_paths_agree("partitioned");
  }
  for (int site = 0; site + 1 < num_sites; ++site) {
    EXPECT_TRUE(net.IsSevered(num_sites - 1, site));
  }
  // Intra-site links never sever: the dark site's gateways still reach
  // the site's OWN alive brokers, and nothing else.
  const int dark = num_sites - 1;
  for (sim::NodeId c :
       net.BrokerCandidatesBySite(dark, site_brokers, alive)) {
    EXPECT_EQ(net.site_of(c), dark);
  }

  // Phase 2: the inner window closes — the link must STAY severed (the
  // outer window still holds its refcount).
  net.HealLink(0, 1);
  EXPECT_TRUE(net.IsSevered(0, 1));
  expect_paths_agree("inner-heal");

  // Phase 3: full heal. Connectivity and both candidate paths recover.
  net.HealLink(0, 1);
  net.HealSite(num_sites - 1);
  EXPECT_FALSE(net.IsSevered(0, 1));
  std::fill(alive.begin(), alive.end(), true);
  expect_paths_agree("healed");
  for (int site = 0; site < num_sites; ++site) {
    EXPECT_FALSE(
        net.BrokerCandidatesBySite(site, site_brokers, alive).empty())
        << "site " << site << " found no candidates after full heal";
  }
}

}  // namespace
}  // namespace carol
