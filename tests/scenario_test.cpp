// Scenario engine tests: compile determinism, schedule round-trips,
// network partition + recovery semantics (incl. byzantine-hang overlap),
// the built-in library, and the headline guarantee — bit-identical
// scorecards across {1, 2, 4} service workers for a fixed seed.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/rng.h"
#include "faults/detector.h"
#include "scenario/compile.h"
#include "scenario/driver.h"
#include "scenario/library.h"
#include "scenario/scorecard.h"
#include "serve/service.h"
#include "sim/federation.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "simkern/stepper.h"

namespace carol::scenario {
namespace {

// --- shared fixtures ------------------------------------------------------

core::CarolConfig LightSession() {
  core::CarolConfig cfg;
  cfg.tabu.max_iterations = 2;
  cfg.tabu.max_evaluations = 24;
  return cfg;
}

serve::ServiceConfig SmallService(int workers) {
  serve::ServiceConfig cfg;
  cfg.gon.hidden_width = 24;
  cfg.gon.num_layers = 2;
  cfg.gon.gat_width = 12;
  cfg.gon.generation_steps = 3;
  cfg.num_workers = workers;
  return cfg;
}

// A short but eventful scenario: a broker cascade (guaranteed detected
// failure episodes — reboot windows span interval boundaries), a storm
// on site 0 and a partition of site 1, over two heterogeneous fleets
// (exercises mixed-H cross-session stacking).
ScenarioSpec TestScenario() {
  ScenarioSpec spec;
  spec.name = "test-mix";
  spec.seed = 31;
  spec.intervals = 8;
  spec.fault_defaults.reboot_min_s = 400.0;
  spec.fault_defaults.reboot_max_s = 650.0;
  spec.fleets.clear();
  FleetSpec a;
  a.name = "a16";
  spec.fleets.push_back(a);
  FleetSpec b;
  b.name = "b12";
  b.num_nodes = 12;
  b.num_brokers = 3;
  spec.fleets.push_back(b);
  ScenarioPhase cascade;
  cascade.kind = PhaseKind::kCascade;
  cascade.start = 1;
  cascade.duration = 4;
  cascade.spacing = 1.0;
  spec.phases.push_back(cascade);
  ScenarioPhase storm;
  storm.kind = PhaseKind::kFaultStorm;
  storm.start = 2;
  storm.duration = 2;
  storm.site = 0;
  storm.intensity = 2.0;
  spec.phases.push_back(storm);
  ScenarioPhase cut;
  cut.kind = PhaseKind::kPartition;
  cut.start = 5;
  cut.duration = 2;
  cut.site = 1;
  spec.phases.push_back(cut);
  return spec;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- compilation ----------------------------------------------------------

TEST(CompileTest, IsDeterministic) {
  const ScenarioSpec spec = TestScenario();
  const CompiledScenario a = CompileScenario(spec);
  const CompiledScenario b = CompileScenario(spec);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.fleets.size(), 2u);
  EXPECT_FALSE(a.fleets[0].schedule.events.empty());
  EXPECT_FALSE(a.fleets[0].network_events.empty());

  ScenarioSpec reseeded = spec;
  reseeded.seed = 32;
  EXPECT_NE(CompileScenario(reseeded), a);
}

TEST(CompileTest, ValidatesPhases) {
  ScenarioSpec spec = TestScenario();
  spec.phases[0].start = spec.intervals;  // out of range
  EXPECT_THROW(CompileScenario(spec), std::invalid_argument);
  spec = TestScenario();
  spec.phases[0].site = spec.sim.network.num_sites;
  EXPECT_THROW(CompileScenario(spec), std::invalid_argument);
  spec = TestScenario();
  spec.phases[0].fleet = 2;  // only fleets 0 and 1 exist
  EXPECT_THROW(CompileScenario(spec), std::invalid_argument);
  spec = TestScenario();
  spec.fleets.clear();
  EXPECT_THROW(CompileScenario(spec), std::invalid_argument);
}

TEST(CompileTest, StormTargetsRequestedSite) {
  ScenarioSpec spec;
  spec.seed = 11;
  spec.intervals = 10;
  ScenarioPhase storm;
  storm.kind = PhaseKind::kFaultStorm;
  storm.start = 1;
  storm.duration = 3;
  storm.site = 0;
  storm.intensity = 3.0;
  spec.phases.push_back(storm);
  const CompiledScenario compiled = CompileScenario(spec);
  const int num_sites = spec.sim.network.num_sites;
  ASSERT_FALSE(compiled.fleets[0].schedule.events.empty());
  for (const auto& e : compiled.fleets[0].schedule.events) {
    EXPECT_EQ(sim::NodeSiteOf(e.target, spec.fleets[0].num_nodes,
                              num_sites),
              0);
    EXPECT_GE(e.interval, 1);
    EXPECT_LT(e.interval, 4);
  }
}

TEST(CompileTest, RollingOutageCoversEverySiteInOrder) {
  ScenarioSpec spec;
  spec.seed = 5;
  spec.intervals = 16;
  ScenarioPhase wave;
  wave.kind = PhaseKind::kRollingOutage;
  wave.start = 2;
  wave.duration = 10;
  wave.outage_intervals = 2.0;
  spec.phases.push_back(wave);
  const CompiledScenario compiled = CompileScenario(spec);
  const auto& events = compiled.fleets[0].schedule.events;
  // 16 nodes, 4 sites -> one event per node, batched per site window.
  ASSERT_EQ(events.size(), 16u);
  int last_interval = -1;
  for (const auto& e : events) {
    EXPECT_TRUE(e.escalates);
    EXPECT_TRUE(e.organic);
    EXPECT_GE(e.interval, last_interval);
    last_interval = e.interval;
    EXPECT_DOUBLE_EQ(e.recover_at_s - e.hang_at_s,
                     2.0 * spec.sim.interval_seconds);
  }
  // First site dark at interval 2, last at 2 + 3*2 = 8.
  EXPECT_EQ(events.front().interval, 2);
  EXPECT_EQ(events.back().interval, 8);
}

TEST(CompileTest, SurgePhasesShapeSiteRates) {
  ScenarioSpec spec;
  spec.seed = 6;
  spec.intervals = 10;
  ScenarioPhase surge;
  surge.kind = PhaseKind::kFlashCrowd;
  surge.start = 3;
  surge.duration = 4;
  surge.site = 2;
  surge.rate_multiplier = 4.0;
  spec.phases.push_back(surge);
  const CompiledScenario compiled = CompileScenario(spec);
  const auto& rate = compiled.fleets[0].site_rate;
  EXPECT_DOUBLE_EQ(rate[2][2], 1.0);   // before the surge
  EXPECT_DOUBLE_EQ(rate[3][2], 4.0);   // surge window
  EXPECT_DOUBLE_EQ(rate[6][2], 4.0);
  EXPECT_DOUBLE_EQ(rate[7][2], 1.0);   // after
  EXPECT_DOUBLE_EQ(rate[4][1], 1.0);   // other sites untouched
}

TEST(CompileTest, DiurnalHonorsSiteTargeting) {
  ScenarioSpec spec;
  spec.seed = 7;
  spec.intervals = 8;
  ScenarioPhase diurnal;
  diurnal.kind = PhaseKind::kDiurnal;
  diurnal.start = 0;
  diurnal.duration = 8;
  diurnal.site = 1;
  diurnal.period = 8.0;
  diurnal.amplitude = 0.5;
  spec.phases.push_back(diurnal);
  const CompiledScenario compiled = CompileScenario(spec);
  const auto& rate = compiled.fleets[0].site_rate;
  bool modulated = false;
  for (int i = 0; i < 8; ++i) {
    modulated |= rate[static_cast<std::size_t>(i)][1] != 1.0;
    EXPECT_DOUBLE_EQ(rate[static_cast<std::size_t>(i)][0], 1.0);
    EXPECT_DOUBLE_EQ(rate[static_cast<std::size_t>(i)][2], 1.0);
  }
  EXPECT_TRUE(modulated);
}

TEST(CompileTest, DegradeWindowUnwindsWithInverseFactor) {
  ScenarioSpec spec;
  spec.seed = 8;
  spec.intervals = 12;
  ScenarioPhase brownout;
  brownout.kind = PhaseKind::kDegrade;
  brownout.start = 2;
  brownout.duration = 4;
  brownout.site = 1;
  brownout.latency_multiplier = 4.0;
  spec.phases.push_back(brownout);
  const CompiledScenario compiled = CompileScenario(spec);
  const auto& events = compiled.fleets[0].network_events;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].interval, 2);
  EXPECT_DOUBLE_EQ(events[0].latency_multiplier, 4.0);
  EXPECT_EQ(events[1].interval, 6);
  EXPECT_DOUBLE_EQ(events[1].latency_multiplier, 0.25);
}

TEST(CompileTest, CompiledScheduleRoundTripsThroughCsv) {
  const CompiledScenario compiled = CompileScenario(TestScenario());
  const faults::FaultSchedule& schedule = compiled.fleets[0].schedule;
  ASSERT_FALSE(schedule.events.empty());
  const std::string path = TempPath("carol_scenario_schedule.csv");
  schedule.Save(path);
  const faults::FaultSchedule loaded = faults::FaultSchedule::Load(path);
  EXPECT_EQ(loaded, schedule);
  std::remove(path.c_str());
}

// --- built-in library -----------------------------------------------------

TEST(LibraryTest, HasAtLeastSixCompilableScenarios) {
  const auto scenarios = BuiltinScenarios();
  EXPECT_GE(scenarios.size(), 6u);
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : scenarios) {
    SCOPED_TRACE(spec.name);
    EXPECT_FALSE(spec.description.empty());
    for (const std::string& seen : names) EXPECT_NE(seen, spec.name);
    names.push_back(spec.name);
    const CompiledScenario compiled = CompileScenario(spec);
    EXPECT_EQ(compiled.fleets.size(), spec.fleets.size());
    // Every scenario disturbs the fleet somehow: faults, link events or
    // a non-unit rate multiplier somewhere.
    bool eventful = false;
    for (const CompiledFleet& fleet : compiled.fleets) {
      eventful |= !fleet.schedule.events.empty();
      eventful |= !fleet.network_events.empty();
      for (const auto& row : fleet.site_rate) {
        for (double m : row) eventful |= m != 1.0;
      }
    }
    EXPECT_TRUE(eventful);
  }
}

TEST(LibraryTest, MultiFleetStormTargetsPhasesPerFleet) {
  // The storm phase targets fleet 0 and the partition fleet 1 — the
  // per-phase fleet selector must keep them apart.
  const auto spec = FindScenario("multi-fleet-storm");
  ASSERT_TRUE(spec.has_value());
  const CompiledScenario compiled = CompileScenario(*spec);
  ASSERT_EQ(compiled.fleets.size(), 2u);
  EXPECT_FALSE(compiled.fleets[0].schedule.events.empty());
  EXPECT_TRUE(compiled.fleets[0].network_events.empty());
  EXPECT_TRUE(compiled.fleets[1].schedule.events.empty());
  EXPECT_FALSE(compiled.fleets[1].network_events.empty());
}

TEST(CompileTest, CascadeTruncatesAtPhaseWindow) {
  ScenarioSpec spec;
  spec.seed = 12;
  spec.intervals = 32;
  ScenarioPhase cascade;
  cascade.kind = PhaseKind::kCascade;
  cascade.start = 0;
  cascade.duration = 2;   // only brokers hanging inside [0, 2) fire
  cascade.spacing = 4.0;  // 4 brokers would otherwise span 12 intervals
  spec.phases.push_back(cascade);
  const CompiledScenario compiled = CompileScenario(spec);
  ASSERT_EQ(compiled.fleets[0].schedule.events.size(), 1u);
  EXPECT_EQ(compiled.fleets[0].schedule.events[0].interval, 0);
}

TEST(LibraryTest, FindScenarioByName) {
  EXPECT_TRUE(FindScenario("cascade").has_value());
  EXPECT_EQ(FindScenario("cascade", 12)->intervals, 12);
  EXPECT_FALSE(FindScenario("no-such-scenario").has_value());
}

// --- partition + recovery semantics (sim layer) ---------------------------

// Routes one task from a gateway at `site` the way
// Federation::RouteQueuedTasks does: the latency-tie candidates over
// site-grouped brokers, then one uniform tie-break draw (kNoNode when no
// broker is reachable).
sim::NodeId RouteFromSite(const sim::Network& net, int site,
                          const sim::Topology& topo,
                          const std::vector<bool>& alive, common::Rng& rng) {
  std::vector<std::vector<sim::NodeId>> site_brokers(
      static_cast<std::size_t>(net.num_sites()));
  for (sim::NodeId b : topo.brokers()) {
    site_brokers[static_cast<std::size_t>(net.site_of(b))].push_back(b);
  }
  const std::vector<sim::NodeId> candidates =
      net.BrokerCandidatesBySite(site, site_brokers, alive);
  if (candidates.empty()) return sim::kNoNode;
  return candidates[rng.Choice(candidates.size())];
}

sim::Federation SingleBrokerFederation(int nodes = 16) {
  return sim::Federation(sim::ScaledTestbedSpecs(nodes),
                         sim::Topology(nodes), sim::SimConfig{},
                         common::Rng(3));
}

TEST(PartitionTest, SeveredSiteCannotRouteAndHealsBack) {
  sim::Federation fed = SingleBrokerFederation();  // broker 0 in site 0
  common::Rng rng(4);
  const auto alive = fed.AliveVector();
  sim::Network& net = fed.mutable_network();
  EXPECT_EQ(RouteFromSite(net, 1, fed.topology(), alive, rng), 0);
  net.SeverSite(1);
  EXPECT_FALSE(net.SiteReachable(1, 0));
  EXPECT_EQ(RouteFromSite(net, 1, fed.topology(), alive, rng),
            sim::kNoNode);
  // Intra-site routing is unaffected.
  EXPECT_EQ(RouteFromSite(net, 0, fed.topology(), alive, rng), 0);
  net.HealSite(1);
  EXPECT_EQ(RouteFromSite(net, 1, fed.topology(), alive, rng), 0);
}

TEST(PartitionTest, OverlappingCutsAreRefcounted) {
  sim::Federation fed = SingleBrokerFederation();
  sim::Network& net = fed.mutable_network();
  net.SeverSite(1);     // phase A cuts site 1 off entirely
  net.SeverLink(1, 2);  // phase B cuts the 1-2 link while A is active
  net.HealSite(1);      // A heals: B's cut must survive
  EXPECT_TRUE(net.IsSevered(1, 2));
  EXPECT_FALSE(net.IsSevered(1, 0));
  net.HealLink(1, 2);  // B heals: fully connected again
  EXPECT_FALSE(net.IsSevered(1, 2));
  net.HealLink(1, 2);  // surplus heal is a no-op
  EXPECT_FALSE(net.IsSevered(1, 2));
}

TEST(PartitionTest, OverlappingBrownoutsComposeMultiplicatively) {
  sim::Federation fed = SingleBrokerFederation();
  sim::Network& net = fed.mutable_network();
  const double nominal = net.LatencyBetween(0, 4);  // site 0 <-> site 1
  net.ScaleLinkDegradation(0, 1, 4.0);  // window A opens
  net.ScaleLinkDegradation(0, 1, 2.0);  // overlapping window B opens
  EXPECT_DOUBLE_EQ(net.LatencyBetween(0, 4), nominal * 8.0);
  net.ScaleLinkDegradation(0, 1, 1.0 / 4.0);  // A closes: B survives
  EXPECT_DOUBLE_EQ(net.LatencyBetween(0, 4), nominal * 2.0);
  net.ScaleLinkDegradation(0, 1, 1.0 / 2.0);  // B closes
  EXPECT_DOUBLE_EQ(net.LatencyBetween(0, 4), nominal);
}

TEST(PartitionTest, ScriptedReplayRejectsForeignFleetSchedule) {
  // A schedule compiled for 16 nodes replayed against a 12-node fleet
  // must fail fast, not silently drop the out-of-range events.
  sim::Federation fed(sim::ScaledTestbedSpecs(12),
                      sim::Topology::Initial(12, 3), sim::SimConfig{},
                      common::Rng(5));
  faults::FaultSchedule schedule;
  faults::FaultEvent e;
  e.interval = 0;
  e.target = 14;  // valid for H=16 only
  schedule.events.push_back(e);
  faults::FaultInjector injector(schedule);
  EXPECT_THROW(injector.Step(fed), std::invalid_argument);
}

TEST(PartitionTest, TasksStallAcrossSeveredLinkAndResumeOnHeal) {
  sim::Federation fed = SingleBrokerFederation();
  // One long task placed on node 4 (site 1), managed by broker 0 (site 0).
  sim::Task task;
  task.id = 1;
  task.total_mi = 1e7;  // will not finish within the test
  task.remaining_mi = task.total_mi;
  task.mips_demand = 1000.0;
  task.ram_mb = 100.0;
  task.slo_deadline_s = 1e6;
  task.gateway_site = 1;
  fed.Submit({task});
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  sim::SchedulingDecision place;
  place.placement[1] = 4;
  fed.RunInterval(place);
  ASSERT_EQ(fed.ActiveTasksOn(4).size(), 1u);
  const double after_first = fed.ActiveTasksOn(4)[0]->remaining_mi;
  EXPECT_LT(after_first, task.total_mi);

  // Partition site 1: broker 0 cannot manage node 4, the task stalls.
  fed.mutable_network().SeverSite(1);
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  fed.RunInterval(sim::SchedulingDecision{});
  EXPECT_DOUBLE_EQ(fed.ActiveTasksOn(4)[0]->remaining_mi, after_first);

  // Heal: progress resumes.
  fed.mutable_network().HealSite(1);
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  fed.RunInterval(sim::SchedulingDecision{});
  EXPECT_LT(fed.ActiveTasksOn(4)[0]->remaining_mi, after_first);
}

TEST(PartitionTest, PlacementAcrossSeveredLinkRejected) {
  sim::Federation fed = SingleBrokerFederation();
  fed.mutable_network().SeverSite(1);
  sim::Task task;
  task.id = 7;
  task.total_mi = 1000.0;
  task.remaining_mi = task.total_mi;
  task.mips_demand = 500.0;
  task.gateway_site = 0;  // routable: broker 0 is in site 0
  fed.Submit({task});
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  sim::SchedulingDecision place;
  place.placement[7] = 4;  // site 1: unreachable from its broker
  const sim::IntervalResult r = fed.RunInterval(place);
  EXPECT_EQ(fed.ActiveTasksOn(4).size(), 0u);
  EXPECT_EQ(r.stranded, 1);
}

TEST(PartitionTest, DegradationInflatesResponseTimes) {
  auto run_once = [](double multiplier) {
    sim::Federation fed = SingleBrokerFederation();
    if (multiplier != 1.0) {
      for (int s = 1; s < fed.network().num_sites(); ++s) {
        fed.mutable_network().SetLinkDegradation(0, s, multiplier);
      }
    }
    sim::Task task;
    task.id = 1;
    task.total_mi = 1000.0;
    task.remaining_mi = task.total_mi;
    task.mips_demand = 2000.0;
    task.input_mb = 10.0;
    task.output_mb = 10.0;
    task.gateway_site = 2;
    fed.Submit({task});
    fed.BeginInterval();
    fed.RouteQueuedTasks();
    sim::SchedulingDecision place;
    place.placement[1] = 1;  // site 0 worker: gateway latency is WAN
    const sim::IntervalResult r = fed.RunInterval(place);
    EXPECT_EQ(r.completed, 1);
    return r.response_times.at(0);
  };
  EXPECT_GT(run_once(50.0), run_once(1.0));
}

TEST(PartitionTest, ByzantineHangOverlappingPartition) {
  // Broker 0 hangs WHILE site 1 is partitioned: detection still fires,
  // the fallback repair still produces a valid topology, and after both
  // the heal and the reboot the federation routes again.
  sim::Federation fed = SingleBrokerFederation();
  fed.mutable_network().SeverSite(1);
  fed.SetFailed(0, 0.0, 450.0);
  fed.BeginInterval();
  fed.RouteQueuedTasks();
  fed.RunInterval(sim::SchedulingDecision{});  // now_s = 300, hang active

  faults::FailureDetector detector;
  const faults::DetectionReport report = detector.Detect(fed);
  ASSERT_EQ(report.failed_brokers, (std::vector<sim::NodeId>{0}));

  const sim::Topology repaired = simkern::FallbackRepair(
      fed.topology(), report.failed_brokers, fed);
  ASSERT_TRUE(repaired.IsValid());
  EXPECT_FALSE(repaired.is_broker(0));
  fed.SetTopology(repaired);

  // With the partition still up, severed gateways reach the new broker
  // only if it landed outside site... verify both router behaviors.
  common::Rng rng(9);
  const sim::NodeId new_broker = repaired.brokers().front();
  const int broker_site = fed.network().site_of(new_broker);
  const auto alive = fed.AliveVector();
  const sim::NodeId from_cut =
      RouteFromSite(fed.network(), 1, repaired, alive, rng);
  if (broker_site == 1) {
    EXPECT_EQ(from_cut, new_broker);
  } else {
    EXPECT_EQ(from_cut, sim::kNoNode);
  }

  // Heal + reboot: node 0 recovers, rejoins as a worker, routing works
  // from every site again.
  fed.mutable_network().HealSite(1);
  fed.BeginInterval();  // now_s=300: past 450? no — run one more interval
  fed.RouteQueuedTasks();
  fed.RunInterval(sim::SchedulingDecision{});
  const sim::StepInfo step = fed.BeginInterval();  // now_s=600 >= 450
  EXPECT_EQ(step.recovered, (std::vector<sim::NodeId>{0}));
  for (int site = 0; site < fed.network().num_sites(); ++site) {
    EXPECT_NE(RouteFromSite(fed.network(), site, repaired,
                            fed.AliveVector(), rng),
              sim::kNoNode);
  }
}

// --- the headline guarantee ----------------------------------------------

TEST(ScenarioDriverTest, ScorecardBitIdenticalAcrossWorkerCounts) {
  const ScenarioSpec spec = TestScenario();
  std::vector<Scorecard> cards;
  for (int workers : {1, 2, 4}) {
    serve::ResilienceService service(SmallService(workers));
    ScenarioDriver driver(service, {LightSession()});
    cards.push_back(driver.Run(spec));
  }
  ASSERT_EQ(cards.size(), 3u);
  for (std::size_t i = 1; i < cards.size(); ++i) {
    EXPECT_EQ(cards[i].DeterministicFingerprint(),
              cards[0].DeterministicFingerprint());
    // Field-level equality too, so a fingerprint bug cannot mask a
    // divergence (and a divergence is debuggable).
    ASSERT_EQ(cards[i].sessions.size(), cards[0].sessions.size());
    for (std::size_t s = 0; s < cards[0].sessions.size(); ++s) {
      const SessionScore& x = cards[i].sessions[s];
      const SessionScore& y = cards[0].sessions[s];
      EXPECT_EQ(x.qos.energy_kwh, y.qos.energy_kwh);
      EXPECT_EQ(x.qos.avg_response_s, y.qos.avg_response_s);
      EXPECT_EQ(x.qos.completed, y.qos.completed);
      EXPECT_EQ(x.qos.violated, y.qos.violated);
      EXPECT_EQ(x.qos.total_tasks, y.qos.total_tasks);
      EXPECT_EQ(x.qos.failures_injected, y.qos.failures_injected);
      EXPECT_EQ(x.recovery_times_s, y.recovery_times_s);
      EXPECT_EQ(x.gate.fired, y.gate.fired);
      EXPECT_EQ(x.gate.true_pos, y.gate.true_pos);
    }
  }
  // The scenario is eventful: failures were injected and decided on.
  EXPECT_GT(cards[0].failures_injected, 0);
  EXPECT_GT(cards[0].completed, 0);
}

// --- the restart drill ---------------------------------------------------

TEST(RestartDrillTest, RestartPhasesLeaveCompiledStreamsUntouched) {
  // kServiceRestart consumes no compile-side rng: adding drills to a
  // scenario must leave every fleet's compiled event stream byte-equal.
  ScenarioSpec spec = TestScenario();
  const CompiledScenario base = CompileScenario(spec);
  ScenarioPhase restart;
  restart.kind = PhaseKind::kServiceRestart;
  restart.start = 4;
  spec.phases.push_back(restart);
  restart.start = 2;
  spec.phases.push_back(restart);
  spec.phases.push_back(restart);  // duplicate: deduped

  const CompiledScenario with = CompileScenario(spec);
  EXPECT_EQ(with.service_restarts, (std::vector<int>{2, 4}));
  ASSERT_EQ(with.fleets.size(), base.fleets.size());
  for (std::size_t f = 0; f < base.fleets.size(); ++f) {
    EXPECT_EQ(with.fleets[f], base.fleets[f]) << "fleet " << f;
  }
}

TEST(RestartDrillTest, FingerprintPinnedEqualToNoRestartRun) {
  // The acceptance gate: a scenario torn down and restored from a
  // snapshot mid-run (twice) must produce the same deterministic
  // scorecard fingerprint as the uninterrupted run.
  ScenarioSpec spec = TestScenario();
  Scorecard baseline;
  {
    serve::ResilienceService service(SmallService(2));
    ScenarioDriver driver(service, {LightSession()});
    baseline = driver.Run(spec);
  }

  for (int start : {2, 5}) {
    ScenarioPhase restart;
    restart.kind = PhaseKind::kServiceRestart;
    restart.start = start;
    spec.phases.push_back(restart);
  }
  ScenarioDriver driver(SmallService(2), {LightSession()});
  const Scorecard drilled = driver.Run(spec);
  EXPECT_EQ(drilled.DeterministicFingerprint(),
            baseline.DeterministicFingerprint());
  // The drill really ran through a different code path, not a no-op:
  // both runs stay eventful.
  EXPECT_GT(drilled.failures_injected, 0);
  EXPECT_EQ(drilled.completed, baseline.completed);
}

TEST(RestartDrillTest, RestartPhaseRequiresOwnedService) {
  ScenarioSpec spec = TestScenario();
  ScenarioPhase restart;
  restart.kind = PhaseKind::kServiceRestart;
  restart.start = 3;
  spec.phases.push_back(restart);
  serve::ResilienceService service(SmallService(1));
  ScenarioDriver driver(service, {LightSession()});
  EXPECT_THROW(driver.Run(spec), std::invalid_argument);
}

TEST(ScenarioDriverTest, FingerprintChangesWithSeed) {
  serve::ResilienceService service(SmallService(2));
  ScenarioDriver driver(service, {LightSession()});
  ScenarioSpec spec = TestScenario();
  spec.fleets.resize(1);
  spec.intervals = 6;
  const Scorecard a = driver.Run(spec);
  spec.seed += 1;
  const Scorecard b = driver.Run(spec);
  EXPECT_NE(a.DeterministicFingerprint(), b.DeterministicFingerprint());
}

TEST(ScenarioDriverTest, PerSessionBreakdownFeedsScorecard) {
  serve::ResilienceService service(SmallService(2));
  ScenarioDriver driver(service, {LightSession()});
  const Scorecard card = driver.Run(TestScenario());
  ASSERT_EQ(card.sessions.size(), 2u);
  EXPECT_EQ(card.sessions[0].qos.name, "a16");
  EXPECT_EQ(card.sessions[1].qos.name, "b12");
  int completed = 0;
  for (const SessionScore& s : card.sessions) {
    EXPECT_EQ(s.qos.decisions, card.intervals);
    EXPECT_GT(s.qos.decision_p99_ms, 0.0);
    EXPECT_EQ(s.gate.total(), card.intervals);
    completed += s.qos.completed;
  }
  EXPECT_EQ(card.completed, completed);
  // Storm phase injected failures -> at least one recovery episode
  // measured somewhere in the fleet.
  int episodes = 0;
  for (const SessionScore& s : card.sessions) {
    episodes += s.failure_episodes;
    EXPECT_EQ(s.failure_episodes,
              static_cast<int>(s.recovery_times_s.size()));
  }
  EXPECT_GT(episodes, 0);
}

}  // namespace
}  // namespace carol::scenario
