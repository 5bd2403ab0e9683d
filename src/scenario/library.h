// The built-in scenario library: named, ready-to-run ScenarioSpecs
// covering the failure conditions CAROL (DSN'22) and the resilient-FL
// literature care about — correlated storms, cascades, partitions, WAN
// brownouts, flash crowds, rolling outages and fleet churn. The soak
// suite (bench/scenario_suite) runs every one of these end to end
// through serve::ResilienceService.
#ifndef CAROL_SCENARIO_LIBRARY_H_
#define CAROL_SCENARIO_LIBRARY_H_

#include <optional>
#include <string>
#include <vector>

#include "scenario/spec.h"

namespace carol::scenario {

// All built-in scenarios (>= 6), each with a stable name and seed.
// `intervals` rescales every spec's timeline to roughly that many
// intervals (phases shift proportionally); pass 0 to keep the defaults.
std::vector<ScenarioSpec> BuiltinScenarios(int intervals = 0);

// Looks a built-in up by name; std::nullopt when unknown.
std::optional<ScenarioSpec> FindScenario(const std::string& name,
                                         int intervals = 0);

// Rescales a spec to a large fleet: every fleet gets ~`num_nodes` hosts
// (snapped by sim::RoundedFleetSize, brokers at num_nodes/16), the WAN
// grows to max(4, num_nodes/64) sites (phase site targets 0..3 stay
// valid) and the driver switches to scoped (subgraph-extracted) repair —
// the configuration the H in {512, 4096} rows of bench/scenario_suite
// and bench/fleet_scale run. The name gains a "-h<N>" suffix.
void RescaleScenario(ScenarioSpec& spec, int num_nodes);

}  // namespace carol::scenario

#endif  // CAROL_SCENARIO_LIBRARY_H_
