#include "scenario/library.h"

#include <algorithm>
#include <string>

#include "sim/types.h"

namespace carol::scenario {

namespace {

constexpr int kDefaultIntervals = 32;

// Phase positions are fractions of the scenario length so the library
// scales from CI smoke lengths to long soaks without editing specs.
int At(int intervals, double frac) {
  return std::clamp(static_cast<int>(intervals * frac), 0, intervals - 1);
}
int Len(int intervals, double frac) {
  return std::max(1, static_cast<int>(intervals * frac));
}

ScenarioSpec Base(const std::string& name, std::uint64_t seed,
                  int intervals) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.intervals = intervals;
  return spec;
}

ScenarioSpec BrokerStorm(int T) {
  ScenarioSpec spec = Base("broker-storm", 1101, T);
  spec.description =
      "Correlated attack storm concentrated on site 0 (the initial "
      "brokers' site): the paper's broker-failure regime, spatially "
      "clustered.";
  ScenarioPhase storm;
  storm.kind = PhaseKind::kFaultStorm;
  storm.start = At(T, 0.15);
  storm.duration = Len(T, 0.35);
  storm.site = 0;
  storm.intensity = 2.5;
  storm.escalation_prob = 0.95;
  spec.phases.push_back(storm);
  return spec;
}

ScenarioSpec Cascade(int T) {
  ScenarioSpec spec = Base("cascade", 1102, T);
  spec.description =
      "Every broker of the fleet hangs in sequence, two intervals apart "
      "— the per-broker repair chain under sustained pressure.";
  ScenarioPhase cascade;
  cascade.kind = PhaseKind::kCascade;
  cascade.start = At(T, 0.2);
  cascade.duration = Len(T, 0.6);
  cascade.spacing = 2.0;
  spec.phases.push_back(cascade);
  return spec;
}

ScenarioSpec PartitionHeal(int T) {
  ScenarioSpec spec = Base("partition-heal", 1103, T);
  spec.description =
      "Site 1 is cut off from the WAN, strands its gateway traffic and "
      "stalls cross-site LEIs, then heals; a brownout (4x WAN latency) "
      "follows.";
  ScenarioPhase cut;
  cut.kind = PhaseKind::kPartition;
  cut.start = At(T, 0.2);
  cut.duration = Len(T, 0.25);
  cut.site = 1;
  spec.phases.push_back(cut);
  ScenarioPhase brownout;
  brownout.kind = PhaseKind::kDegrade;
  brownout.start = At(T, 0.55);
  brownout.duration = Len(T, 0.25);
  brownout.site = 1;
  brownout.latency_multiplier = 4.0;
  spec.phases.push_back(brownout);
  return spec;
}

ScenarioSpec FlashCrowd(int T) {
  ScenarioSpec spec = Base("flash-crowd", 1104, T);
  spec.description =
      "A 4x arrival surge at site 2 on top of background churn: overload "
      "precursors without a direct attack.";
  ScenarioPhase surge;
  surge.kind = PhaseKind::kFlashCrowd;
  surge.start = At(T, 0.3);
  surge.duration = Len(T, 0.3);
  surge.site = 2;
  surge.rate_multiplier = 4.0;
  spec.phases.push_back(surge);
  ScenarioPhase churn;
  churn.kind = PhaseKind::kChurn;
  churn.start = 0;
  churn.duration = T;
  churn.intensity = 0.3;
  spec.phases.push_back(churn);
  return spec;
}

ScenarioSpec RollingOutage(int T) {
  ScenarioSpec spec = Base("rolling-outage", 1105, T);
  spec.description =
      "Each geographic site goes fully dark for two intervals, in id "
      "order — a rolling maintenance/outage wave across the federation.";
  ScenarioPhase wave;
  wave.kind = PhaseKind::kRollingOutage;
  wave.start = At(T, 0.25);
  wave.duration = Len(T, 0.6);
  wave.outage_intervals = 2.0;
  spec.phases.push_back(wave);
  return spec;
}

ScenarioSpec Churn(int T) {
  ScenarioSpec spec = Base("churn", 1106, T);
  spec.description =
      "Continuous fleet churn (about one node rebooting per interval) "
      "under a diurnal load curve — the steady-state wear regime.";
  ScenarioPhase churn;
  churn.kind = PhaseKind::kChurn;
  churn.start = 0;
  churn.duration = T;
  churn.intensity = 1.0;
  spec.phases.push_back(churn);
  ScenarioPhase diurnal;
  diurnal.kind = PhaseKind::kDiurnal;
  diurnal.start = 0;
  diurnal.duration = T;
  diurnal.period = std::max(4.0, T * 0.75);
  diurnal.amplitude = 0.6;
  spec.phases.push_back(diurnal);
  return spec;
}

ScenarioSpec MultiFleetStorm(int T) {
  ScenarioSpec spec = Base("multi-fleet-storm", 1107, T);
  spec.description =
      "Two heterogeneous federations served concurrently while a storm "
      "hits one and a partition hits the other — cross-session stacking "
      "under correlated stress.";
  spec.fleets.clear();
  FleetSpec a;
  a.name = "fleet-a-h16";
  spec.fleets.push_back(a);
  FleetSpec b;
  b.name = "fleet-b-h24";
  b.num_nodes = 24;
  b.num_brokers = 6;
  b.lambda_scale = 1.5;
  spec.fleets.push_back(b);
  ScenarioPhase storm;
  storm.kind = PhaseKind::kFaultStorm;
  storm.start = At(T, 0.2);
  storm.duration = Len(T, 0.3);
  storm.intensity = 1.5;
  storm.fleet = 0;  // the storm hits fleet a only
  spec.phases.push_back(storm);
  ScenarioPhase cut;
  cut.kind = PhaseKind::kPartition;
  cut.start = At(T, 0.45);
  cut.duration = Len(T, 0.2);
  cut.site = 3;
  cut.fleet = 1;  // the partition hits fleet b only
  spec.phases.push_back(cut);
  return spec;
}

}  // namespace

std::vector<ScenarioSpec> BuiltinScenarios(int intervals) {
  const int T = intervals > 0 ? intervals : kDefaultIntervals;
  return {BrokerStorm(T),  Cascade(T),       PartitionHeal(T),
          FlashCrowd(T),   RollingOutage(T), Churn(T),
          MultiFleetStorm(T)};
}

std::optional<ScenarioSpec> FindScenario(const std::string& name,
                                         int intervals) {
  for (ScenarioSpec& spec : BuiltinScenarios(intervals)) {
    if (spec.name == name) return std::move(spec);
  }
  return std::nullopt;
}

void RescaleScenario(ScenarioSpec& spec, int num_nodes) {
  const int nodes = sim::RoundedFleetSize(num_nodes);
  for (FleetSpec& fleet : spec.fleets) {
    fleet.num_nodes = nodes;
    // One broker per 16 hosts keeps the testbed's 4:1 worker ratio at a
    // multi-broker-per-site density (512 -> 32, 4096 -> 256).
    fleet.num_brokers = std::max(1, nodes / 16);
  }
  // Grow the WAN with the fleet but keep sites chunky (64 hosts each at
  // H >= 256); the floor of 4 keeps every library phase's site targets
  // (0..3) valid.
  spec.sim.network.num_sites = std::max(4, nodes / 64);
  // The large-fleet decision regime: subgraph-extracted repair.
  spec.scoped_repair = true;
  spec.name += "-h" + std::to_string(nodes);
}

}  // namespace carol::scenario
