// Integration-level tests of the federation simulator: task execution,
// contention, failures, energy accounting and the per-interval protocol.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "sim/federation.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/types.h"

namespace carol::sim {
namespace {

SimConfig FastConfig() {
  SimConfig cfg;
  cfg.interval_seconds = 300.0;
  return cfg;
}

Federation MakeFederation(int nodes = 8, int brokers = 2,
                          unsigned seed = 1) {
  std::vector<NodeSpec> specs;
  for (int i = 0; i < nodes; ++i) {
    specs.push_back(i % 4 < 2 ? RaspberryPi4B8GB() : RaspberryPi4B4GB());
  }
  return Federation(std::move(specs), Topology::Initial(nodes, brokers),
                    FastConfig(), common::Rng(seed));
}

Task MakeTask(TaskId id, double mi, double mips = 1000.0,
              double ram = 300.0, double deadline = 600.0) {
  Task t;
  t.id = id;
  t.total_mi = mi;
  t.remaining_mi = mi;
  t.mips_demand = mips;
  t.ram_mb = ram;
  t.slo_deadline_s = deadline;
  t.arrival_time_s = 0.0;
  t.gateway_site = 0;
  return t;
}

// Routes one task from a gateway at `site` the way
// Federation::RouteQueuedTasks does: the latency-tie candidates over
// site-grouped brokers, then one uniform tie-break draw (kNoNode when no
// broker is reachable).
NodeId RouteFromSite(const Network& net, int site, const Topology& topo,
                     const std::vector<bool>& alive, common::Rng& rng) {
  std::vector<std::vector<NodeId>> site_brokers(
      static_cast<std::size_t>(net.num_sites()));
  for (NodeId b : topo.brokers()) {
    site_brokers[static_cast<std::size_t>(net.site_of(b))].push_back(b);
  }
  const std::vector<NodeId> candidates =
      net.BrokerCandidatesBySite(site, site_brokers, alive);
  if (candidates.empty()) return kNoNode;
  return candidates[rng.Choice(candidates.size())];
}

// Runs one full interval with explicit placement.
IntervalResult RunOne(Federation& fed, const SchedulingDecision& d) {
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  return fed.RunInterval(d);
}

TEST(FederationTest, ConstructionValidation) {
  EXPECT_THROW(Federation({}, Topology(1), FastConfig(), common::Rng(1)),
               std::invalid_argument);
  std::vector<NodeSpec> two = {RaspberryPi4B4GB(), RaspberryPi4B4GB()};
  EXPECT_THROW(
      Federation(two, Topology::Initial(4, 2), FastConfig(), common::Rng(1)),
      std::invalid_argument);
}

TEST(FederationTest, TaskCompletesWithExpectedTiming) {
  Federation fed = MakeFederation();
  // 60000 MI at 1000 MIPS -> 60 s of pure compute.
  Task t = MakeTask(1, 60e3, 1000.0);
  fed.Submit({t});
  SchedulingDecision d;
  d.placement[1] = 1;  // worker of broker 0
  const IntervalResult r = RunOne(fed, d);
  ASSERT_EQ(r.completed, 1);
  // Response = compute + startup transfer/latency; must be 60s + small.
  EXPECT_GT(r.response_times[0], 60.0);
  EXPECT_LT(r.response_times[0], 75.0);
  EXPECT_EQ(r.violated, 0);
}

TEST(FederationTest, UnplacedTaskStaysQueued) {
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 60e3)});
  const IntervalResult r = RunOne(fed, SchedulingDecision{});
  EXPECT_EQ(r.completed, 0);
  EXPECT_EQ(r.stranded, 1);
  EXPECT_EQ(fed.queued_task_count(), 1);
}

TEST(FederationTest, PlacementOnBrokerRejected) {
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 60e3)});
  SchedulingDecision d;
  d.placement[1] = 0;  // node 0 is a broker
  const IntervalResult r = RunOne(fed, d);
  EXPECT_EQ(r.completed, 0);
  EXPECT_EQ(r.stranded, 1);
}

TEST(FederationTest, CpuContentionSlowsTasks) {
  Federation fed = MakeFederation();
  // Two tasks of 120000 MI each at 4000 MIPS demand on one 4800-MIPS
  // worker: combined demand 8000 vs capacity 4800 -> each runs at 2400.
  fed.Submit({MakeTask(1, 120e3, 4000.0), MakeTask(2, 120e3, 4000.0)});
  SchedulingDecision d;
  d.placement[1] = 1;
  d.placement[2] = 1;
  const IntervalResult r = RunOne(fed, d);
  // Each task alone: 30 s. Shared: ~50 s, both done within the interval.
  ASSERT_EQ(r.completed, 2);
  EXPECT_GT(r.response_times[0], 45.0);
  EXPECT_GT(r.response_times[1], 45.0);
}

TEST(FederationTest, RamThrashingSlowsExecution) {
  Federation fed = MakeFederation();
  // Single light-CPU task with RAM beyond the 4 GB worker's capacity.
  Task t = MakeTask(1, 60e3, 1000.0, /*ram=*/9000.0);
  fed.Submit({t});
  SchedulingDecision d;
  d.placement[1] = 2;  // 4 GB node
  const IntervalResult r = RunOne(fed, d);
  ASSERT_EQ(r.completed, 1);
  // Thrashing halves the rate: ~120 s rather than ~60.
  EXPECT_GT(r.response_times[0], 115.0);
}

TEST(FederationTest, FailedWorkerStallsTask) {
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 60e3)});
  SchedulingDecision d;
  d.placement[1] = 1;
  fed.SetFailed(1, 0.0, 10'000.0);  // worker 1 down the whole interval
  const IntervalResult r = RunOne(fed, d);
  EXPECT_EQ(r.completed, 0);
}

TEST(FederationTest, FailedBrokerStallsWholeLei) {
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 60e3)});
  SchedulingDecision d;
  d.placement[1] = 1;  // worker of broker 0
  // Broker fails mid-interval at t=30; the task (60s of work) is unfinished.
  fed.SetFailed(0, 30.0, 10'000.0);
  const IntervalResult r = RunOne(fed, d);
  EXPECT_EQ(r.completed, 0);
  EXPECT_EQ(fed.active_task_count(), 1);
}

TEST(FederationTest, BrokerRecoveryMidIntervalResumesWork) {
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 60e3)});
  SchedulingDecision d;
  d.placement[1] = 1;
  // Broker goes down at t=30 and recovers at t=100: the task (60 s of
  // compute) stalls for the 70 s outage and finishes around t=131.
  fed.SetFailed(0, 30.0, 100.0);
  const IntervalResult r = RunOne(fed, d);
  ASSERT_EQ(r.completed, 1);
  EXPECT_GT(r.response_times[0], 125.0);
  EXPECT_LT(r.response_times[0], 145.0);
}

TEST(FederationTest, BeginIntervalDetectsFailuresAndRecoveries) {
  Federation fed = MakeFederation();
  fed.SetFailed(0, 0.0, 100.0);  // broker, recovers within interval 0
  fed.SetFailed(1, 0.0, 10'000.0);
  StepInfo info = fed.BeginInterval();
  EXPECT_EQ(info.failed_brokers, (std::vector<NodeId>{0}));
  EXPECT_EQ(info.failed_workers, (std::vector<NodeId>{1}));
  fed.RouteQueuedTasks();
  fed.RunInterval(SchedulingDecision{});
  info = fed.BeginInterval();
  // Broker 0's window elapsed -> recovered; worker 1 still down.
  EXPECT_EQ(info.recovered, (std::vector<NodeId>{0}));
  EXPECT_EQ(info.failed_workers, (std::vector<NodeId>{1}));
}

TEST(FederationTest, FailedWorkerTasksRequeuedNextInterval) {
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 500e3)});  // long task, won't finish
  SchedulingDecision d;
  d.placement[1] = 1;
  RunOne(fed, d);
  EXPECT_EQ(fed.active_task_count(), 1);
  fed.SetFailed(1, fed.now_s(), fed.now_s() + 10'000.0);
  fed.BeginInterval();
  // Task migrated back to the queue for rescheduling.
  EXPECT_EQ(fed.active_task_count(), 0);
  EXPECT_EQ(fed.queued_task_count(), 1);
}

TEST(FederationTest, EnergyAccountingPositiveAndBounded) {
  Federation fed = MakeFederation();
  const IntervalResult r = RunOne(fed, SchedulingDecision{});
  // All 8 idle-ish nodes for 300 s: energy between standby and peak.
  const double max_kwh = 8 * 7.3 * 300.0 / 3.6e6;
  EXPECT_GT(r.energy_kwh, 0.0);
  EXPECT_LT(r.energy_kwh, max_kwh);
  EXPECT_NEAR(fed.total_energy_kwh(), r.energy_kwh, 1e-12);
}

TEST(FederationTest, BusyNodeConsumesMoreEnergyThanIdle) {
  Federation idle_fed = MakeFederation();
  const double idle_kwh = RunOne(idle_fed, SchedulingDecision{}).energy_kwh;

  Federation busy_fed = MakeFederation();
  std::vector<Task> tasks;
  for (TaskId i = 1; i <= 6; ++i) tasks.push_back(MakeTask(i, 900e3, 1500));
  busy_fed.Submit(tasks);
  SchedulingDecision d;
  for (TaskId i = 1; i <= 6; ++i) {
    d.placement[i] = 1 + static_cast<NodeId>(i % 3);
  }
  const double busy_kwh = RunOne(busy_fed, d).energy_kwh;
  EXPECT_GT(busy_kwh, idle_kwh * 1.1);
}

TEST(FederationTest, SloViolationCountsDeadlineMisses) {
  Federation fed = MakeFederation();
  Task t = MakeTask(1, 120e3, 1000.0, 300.0, /*deadline=*/60.0);
  fed.Submit({t});
  SchedulingDecision d;
  d.placement[1] = 1;
  const IntervalResult r = RunOne(fed, d);
  ASSERT_EQ(r.completed, 1);
  EXPECT_EQ(r.violated, 1);
  EXPECT_DOUBLE_EQ(r.snapshot.slo_rate, 1.0);
}

TEST(FederationTest, SetTopologyValidationAndOverhead) {
  Federation fed = MakeFederation();
  Topology bad(4);
  EXPECT_THROW(fed.SetTopology(bad), std::invalid_argument);

  Topology promoted = fed.topology();
  promoted.Promote(1);
  fed.SetTopology(promoted);
  // Role change sets a reconfiguration window on node 1.
  EXPECT_GT(fed.host(1).reconfig_until_s, fed.now_s());
  EXPECT_EQ(fed.topology().broker_count(), 3);
}

TEST(FederationTest, PromotionMigratesResidentTasks) {
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 500e3)});
  SchedulingDecision d;
  d.placement[1] = 1;
  RunOne(fed, d);
  ASSERT_EQ(fed.active_task_count(), 1);
  fed.BeginInterval();
  Topology promoted = fed.topology();
  promoted.Promote(1);  // node 1 hosts the task
  fed.SetTopology(promoted);
  EXPECT_EQ(fed.active_task_count(), 0);
  EXPECT_EQ(fed.queued_task_count(), 1);
}

TEST(FederationTest, ReassignmentGetsSmallOverheadWindow) {
  Federation fed = MakeFederation();  // brokers 0 and 4
  fed.BeginInterval();
  Topology topo = fed.topology();
  topo.Assign(1, 4);
  fed.SetTopology(topo);
  const double window = fed.host(1).reconfig_until_s - fed.now_s();
  EXPECT_GT(window, 0.0);
  EXPECT_LE(window, fed.config().reassign_overhead_s + 1e-9);
}

TEST(FederationTest, RouteQueuedTasksPrefersAliveBroker) {
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 10e3)});
  fed.SetFailed(0, 0.0, 10'000.0);  // broker 0 (site 0) is down
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  const auto unplaced = fed.UnplacedTasks();
  ASSERT_EQ(unplaced.size(), 1u);
  EXPECT_EQ(unplaced[0]->broker, 4);  // routed to the other broker
}

TEST(FederationTest, NoAliveBrokerStrandsTasks) {
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 10e3)});
  fed.SetFailed(0, 0.0, 10'000.0);
  fed.SetFailed(4, 0.0, 10'000.0);
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  EXPECT_TRUE(fed.UnplacedTasks().empty());
  EXPECT_EQ(fed.queued_task_count(), 1);
}

TEST(FederationTest, SnapshotMetricsRowsPopulated) {
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 900e3, 1500.0)});
  SchedulingDecision d;
  d.placement[1] = 1;
  const IntervalResult r = RunOne(fed, d);
  const SystemSnapshot& snap = r.snapshot;
  ASSERT_EQ(snap.hosts.size(), 8u);
  EXPECT_TRUE(snap.hosts[0].is_broker);
  EXPECT_FALSE(snap.hosts[1].is_broker);
  // Worker 1 was busy; its cpu util reflects the demand ratio.
  EXPECT_GT(snap.hosts[1].cpu_util, 0.2);
  // Broker overhead shows up as broker cpu utilization.
  EXPECT_GT(snap.hosts[0].cpu_util, 0.05);
  // The long task is still resident: demand features populated.
  EXPECT_GT(snap.hosts[1].task_cpu_demand_mips, 0.0);
  EXPECT_GT(snap.hosts[1].sched_task_count, 0.0);
  EXPECT_EQ(snap.active_tasks, 1);
}

TEST(FederationTest, FaultLoadRaisesUtilization) {
  Federation fed = MakeFederation();
  const auto& spec = fed.host(1).spec;
  fed.SetFaultLoad(1, spec.cpu_capacity_mips * 1.5, 0, 0, 0);
  const IntervalResult r = RunOne(fed, SchedulingDecision{});
  EXPECT_GT(r.snapshot.hosts[1].cpu_util, 1.2);
  fed.ClearFaultLoad(1);
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  const IntervalResult r2 = fed.RunInterval(SchedulingDecision{});
  EXPECT_LT(r2.snapshot.hosts[1].cpu_util, 0.1);
}

TEST(FederationTest, IntervalClockAdvances) {
  Federation fed = MakeFederation();
  EXPECT_EQ(fed.interval_index(), 0);
  RunOne(fed, SchedulingDecision{});
  EXPECT_EQ(fed.interval_index(), 1);
  EXPECT_DOUBLE_EQ(fed.now_s(), 300.0);
}

TEST(NetworkTest, SiteAssignmentAndLatencies) {
  common::Rng rng(1);
  Network net(16, NetworkConfig{}, rng);
  EXPECT_EQ(net.site_of(0), 0);
  EXPECT_EQ(net.site_of(3), 0);
  EXPECT_EQ(net.site_of(4), 1);
  EXPECT_EQ(net.site_of(15), 3);
  // LAN within a site; WAN across sites.
  EXPECT_DOUBLE_EQ(net.LatencyBetween(0, 3), 0.002);
  EXPECT_GE(net.LatencyBetween(0, 4), 0.020);
  EXPECT_LE(net.LatencyBetween(0, 4), 0.080);
  // Symmetry.
  EXPECT_DOUBLE_EQ(net.LatencyBetween(0, 4), net.LatencyBetween(4, 0));
}

TEST(NetworkTest, RoutePrefersLocalSite) {
  common::Rng rng(2);
  Network net(16, NetworkConfig{}, rng);
  Topology topo = Topology::Initial(16, 4);  // brokers 0,4,8,12
  std::vector<bool> alive(16, true);
  EXPECT_EQ(RouteFromSite(net, 0, topo, alive, rng), 0);
  EXPECT_EQ(RouteFromSite(net, 2, topo, alive, rng), 8);
  alive[0] = false;
  const NodeId rerouted = RouteFromSite(net, 0, topo, alive, rng);
  EXPECT_NE(rerouted, 0);
  EXPECT_TRUE(topo.is_broker(rerouted));
}

TEST(NetworkTest, RouteReturnsNoNodeWhenAllDead) {
  common::Rng rng(3);
  Network net(8, NetworkConfig{}, rng);
  Topology topo = Topology::Initial(8, 2);
  std::vector<bool> alive(8, false);
  EXPECT_EQ(RouteFromSite(net, 0, topo, alive, rng), kNoNode);
}

TEST(FederationTest, SubmitRejectsOutOfRangeGatewaySite) {
  // Routing indexes per-site state by the gateway site: a batch holding
  // a site the network does not have is refused whole, before any of its
  // tasks is queued.
  Federation fed = MakeFederation();
  fed.Submit({MakeTask(1, 100e3)});
  ASSERT_EQ(fed.queued_task_count(), 1);
  Task bad = MakeTask(3, 100e3);
  bad.gateway_site = fed.network().num_sites();
  EXPECT_THROW(fed.Submit({MakeTask(2, 100e3), bad}),
               std::invalid_argument);
  EXPECT_EQ(fed.queued_task_count(), 1);
  bad.gateway_site = -1;
  EXPECT_THROW(fed.Submit({bad}), std::invalid_argument);
  EXPECT_EQ(fed.queued_task_count(), 1);
}

TEST(SchedulerTest, LeastUtilizationBalancesLoad) {
  Federation fed = MakeFederation();
  std::vector<Task> tasks;
  for (TaskId i = 1; i <= 6; ++i) tasks.push_back(MakeTask(i, 100e3));
  fed.Submit(tasks);
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  LeastUtilizationScheduler sched;
  const SchedulingDecision d = sched.Schedule(fed);
  EXPECT_EQ(d.placement.size(), 6u);
  // No single worker gets everything.
  std::map<NodeId, int> counts;
  for (const auto& [id, node] : d.placement) ++counts[node];
  for (const auto& [node, count] : counts) {
    EXPECT_FALSE(fed.topology().is_broker(node));
    EXPECT_LE(count, 3);
  }
}

TEST(SchedulerTest, SkipsDeadWorkers) {
  Federation fed = MakeFederation();
  // Kill all workers of broker 0's LEI except node 3.
  fed.SetFailed(1, 0.0, 1e6);
  fed.SetFailed(2, 0.0, 1e6);
  fed.Submit({MakeTask(1, 10e3)});
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  LeastUtilizationScheduler sched;
  const SchedulingDecision d = sched.Schedule(fed);
  ASSERT_EQ(d.placement.size(), 1u);
  const NodeId target = d.placement.begin()->second;
  EXPECT_NE(target, 1);
  EXPECT_NE(target, 2);
}

TEST(SchedulerTest, RoundRobinCyclesWorkers) {
  Federation fed = MakeFederation();
  std::vector<Task> tasks;
  for (TaskId i = 1; i <= 12; ++i) tasks.push_back(MakeTask(i, 10e3));
  fed.Submit(tasks);
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  RoundRobinScheduler sched;
  const SchedulingDecision d = sched.Schedule(fed);
  std::map<NodeId, int> counts;
  for (const auto& [id, node] : d.placement) ++counts[node];
  // 12 tasks over 6 workers -> exactly 2 each.
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [node, count] : counts) EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace carol::sim
