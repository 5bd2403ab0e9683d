// Pins the simkern extraction bit-for-bit.
//
// Every digest hashes the raw IEEE-754 bit patterns of the outputs
// (FNV-1a over each double's bits), so a single reordered floating-point
// operation anywhere in the protocol, the scheduler, or the event-driven
// engine fails these tests. Wall-clock metrics (avg_decision_time_s,
// total_finetune_s) are deliberately excluded.
//
// The digests were first captured from the tree BEFORE the shared
// IntervalStepper existed, when FederationRuntime::Run,
// CollectTrainingTrace and the scenario driver each carried their own
// copy of the per-interval protocol, running the dense engine. When the
// event-driven engine became the only sim engine and the dense one moved
// to tests/fleet_sparse_test.cpp as an oracle, the four ExperimentLoop*
// and TrainingTrace* digests were recaptured once. They were taken from
// the last tree that still had both engines (commit 6a47106), with
// GoldenConfig selecting the event-driven engine through its SimConfig.
// The two engines differ in federation-wide energy and quiet-host rows
// at ULP level (summation order), and those values feed the digests.
// ScenarioFingerprint came out equal under both engines and was not
// recaptured.
//
// Every capture (and every build since) uses -ffp-contract=off, pinned in
// CMakeLists.txt: under contract=fast the compiler's FMA layout — and
// therefore these digests — changes when a loop merely moves between
// functions.
//
// Also here: the lazy-memoized scheduler pinned against a frozen copy of
// the eager collect-then-scan implementation, ScaledTestbedSpecs
// validation, and ArrivalProcess chunk-invariance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/runtime.h"
#include "scenario/driver.h"
#include "scenario/spec.h"
#include "serve/service.h"
#include "sim/scheduler.h"
#include "sim/topology.h"
#include "workload/arrival.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/trace.h"

namespace carol {
namespace {

// ---------------------------------------------------------------------------
// Golden digest machinery — byte-for-byte the program that captured the
// constants (tools in the PR description), so the hashes are comparable.

class Digest {
 public:
  void Add(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    AddU64(bits);
  }
  void Add(int v) {
    AddU64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void Add(const std::vector<double>& v) {
    AddU64(v.size());
    for (double x : v) Add(x);
  }
  void Add(const std::vector<int>& v) {
    AddU64(v.size());
    for (int x : v) Add(x);
  }
  void AddU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t DigestRunResult(const harness::RunResult& r) {
  Digest d;
  d.Add(r.completed);
  d.Add(r.violated);
  d.Add(r.total_tasks);
  d.Add(r.failures_injected);
  d.Add(r.broker_failures_detected);
  d.Add(r.total_energy_kwh);
  d.Add(r.avg_response_s);
  d.Add(r.slo_violation_rate);
  d.Add(r.interval_energy_kwh);
  d.Add(r.interval_avg_response_s);
  d.Add(r.interval_slo_rate);
  d.Add(r.all_responses);
  d.Add(r.all_response_apps);
  return d.value();
}

std::uint64_t DigestTrace(const workload::Trace& trace) {
  Digest d;
  d.AddU64(trace.size());
  for (const auto& rec : trace) {
    d.Add(rec.interval);
    d.Add(rec.assignment);
    d.AddU64(rec.host_features.size());
    for (const auto& row : rec.host_features) d.Add(row);
    d.Add(rec.energy_kwh);
    d.Add(rec.slo_rate);
    d.Add(rec.avg_response_s);
  }
  return d.value();
}

// Keeps the topology as-is: pins the no-repair protocol path.
class StaticModel : public core::ResilienceModel {
 public:
  std::string name() const override { return "static"; }
  sim::Topology Repair(const sim::Topology& current,
                       const std::vector<sim::NodeId>&,
                       const sim::SystemSnapshot&) override {
    return current;
  }
  double MemoryFootprintMb() const override { return 1.0; }
};

// Returns a wrong-sized topology every 5th call: pins the invalid-repair
// fallback path (warn + FallbackRepair).
class FlakyModel : public core::ResilienceModel {
 public:
  std::string name() const override { return "flaky"; }
  sim::Topology Repair(const sim::Topology& current,
                       const std::vector<sim::NodeId>&,
                       const sim::SystemSnapshot&) override {
    ++calls_;
    if (calls_ % 5 == 0) return sim::Topology(2);
    return current;
  }
  double MemoryFootprintMb() const override { return 1.0; }

 private:
  int calls_ = 0;
};

harness::RunConfig GoldenConfig(int nodes, int brokers, int intervals,
                                std::uint64_t seed) {
  harness::RunConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_brokers = brokers;
  cfg.intervals = intervals;
  cfg.seed = static_cast<unsigned>(seed);
  return cfg;
}

scenario::ScenarioSpec GoldenScenario() {
  scenario::ScenarioSpec spec;
  spec.name = "golden-mix";
  spec.seed = 31;
  spec.intervals = 8;
  spec.fault_defaults.reboot_min_s = 400.0;
  spec.fault_defaults.reboot_max_s = 650.0;
  spec.fleets.clear();
  scenario::FleetSpec a;
  a.name = "a16";
  spec.fleets.push_back(a);
  scenario::FleetSpec b;
  b.name = "b12";
  b.num_nodes = 12;
  b.num_brokers = 3;
  spec.fleets.push_back(b);
  scenario::ScenarioPhase cascade;
  cascade.kind = scenario::PhaseKind::kCascade;
  cascade.start = 1;
  cascade.duration = 4;
  cascade.spacing = 1.0;
  spec.phases.push_back(cascade);
  scenario::ScenarioPhase storm;
  storm.kind = scenario::PhaseKind::kFaultStorm;
  storm.start = 2;
  storm.duration = 2;
  storm.site = 0;
  storm.intensity = 2.0;
  spec.phases.push_back(storm);
  return spec;
}

// ---------------------------------------------------------------------------
// Golden digests: stepper-based drivers on the event-driven engine.

TEST(SimkernGolden, ExperimentLoopH16Static) {
  StaticModel model;
  harness::FederationRuntime rt(GoldenConfig(16, 4, 40, 7));
  EXPECT_EQ(DigestRunResult(rt.Run(model)), 0x2d8f2709be1d6dd3ull);
}

TEST(SimkernGolden, ExperimentLoopH16FlakyRepairFallback) {
  FlakyModel model;
  harness::FederationRuntime rt(GoldenConfig(16, 4, 40, 7));
  EXPECT_EQ(DigestRunResult(rt.Run(model)), 0xe5d11d8aa9d8dee3ull);
}

TEST(SimkernGolden, ExperimentLoopH64Static) {
  StaticModel model;
  harness::FederationRuntime rt(GoldenConfig(64, 16, 25, 11));
  EXPECT_EQ(DigestRunResult(rt.Run(model)), 0x62f38ba9542a4e3aull);
}

TEST(SimkernGolden, TrainingTraceH16) {
  const auto cfg = GoldenConfig(16, 4, 50, 3);
  EXPECT_EQ(DigestTrace(harness::CollectTrainingTrace(cfg, 10)),
            0x0c23712703f5e948ull);
}

TEST(SimkernGolden, ScenarioFingerprint) {
  serve::ServiceConfig scfg;
  scfg.gon.hidden_width = 24;
  scfg.gon.num_layers = 2;
  scfg.gon.gat_width = 12;
  scfg.gon.generation_steps = 3;
  scfg.num_workers = 2;
  core::CarolConfig session;
  session.tabu.max_iterations = 2;
  session.tabu.max_evaluations = 24;
  serve::ResilienceService service(scfg);
  scenario::ScenarioDriver driver(service, {session});
  const auto card = driver.Run(GoldenScenario());
  EXPECT_EQ(card.FingerprintHex(), "4e6fa7a33026019f");
}

// ---------------------------------------------------------------------------
// Lazy scheduler vs a frozen copy of the eager collect-then-scan
// implementation (the pre-simkern LeastUtilizationScheduler, verbatim).

struct WorkerLoad {
  sim::NodeId node = sim::kNoNode;
  double cpu_demand = 0.0;
  double ram_demand = 0.0;
  double capacity = 1.0;
  double ram_capacity = 1.0;
};

std::vector<WorkerLoad> CollectWorkersEager(const sim::Federation& fed) {
  std::vector<WorkerLoad> loads;
  const sim::Topology& topo = fed.topology();
  for (sim::NodeId w : topo.workers()) {
    if (!fed.IsAliveNow(w)) continue;
    if (!fed.IsAliveNow(topo.broker_of(w))) continue;
    WorkerLoad load;
    load.node = w;
    const sim::HostRuntime& h = fed.host(w);
    load.capacity = h.spec.cpu_capacity_mips;
    load.ram_capacity = h.spec.ram_mb;
    load.cpu_demand = h.fault_cpu_mips;
    load.ram_demand = h.fault_ram_mb;
    for (const sim::Task* task : fed.ActiveTasksOn(w)) {
      load.cpu_demand += task->mips_demand;
      load.ram_demand += task->ram_mb;
    }
    loads.push_back(load);
  }
  return loads;
}

sim::SchedulingDecision EagerReferenceSchedule(const sim::Federation& fed,
                                               double spill_threshold) {
  sim::SchedulingDecision decision;
  std::vector<WorkerLoad> loads = CollectWorkersEager(fed);
  if (loads.empty()) return decision;
  const sim::Topology& topo = fed.topology();
  for (const sim::Task* task : fed.UnplacedTasks()) {
    WorkerLoad* best = nullptr;
    double best_ratio = std::numeric_limits<double>::infinity();
    auto consider = [&](WorkerLoad& load, bool respect_ram) {
      const double projected =
          (load.cpu_demand + task->mips_demand) / load.capacity;
      if (respect_ram &&
          load.ram_demand + task->ram_mb > load.ram_capacity) {
        return;
      }
      if (projected < best_ratio) {
        best_ratio = projected;
        best = &load;
      }
    };
    for (WorkerLoad& load : loads) {
      if (topo.broker_of(load.node) == task->broker) consider(load, true);
    }
    if (best == nullptr || best_ratio > spill_threshold) {
      for (WorkerLoad& load : loads) consider(load, true);
    }
    if (best == nullptr) {
      for (WorkerLoad& load : loads) consider(load, false);
    }
    if (best != nullptr) {
      decision.placement[task->id] = best->node;
      best->cpu_demand += task->mips_demand;
      best->ram_demand += task->ram_mb;
    }
  }
  return decision;
}

TEST(LazyScheduler, BitIdenticalToEagerReferenceUnderFuzz) {
  for (std::uint64_t seed : {5ull, 17ull, 91ull}) {
    common::Rng rng(seed);
    const int hosts = 32;
    sim::Federation fed(sim::ScaledTestbedSpecs(hosts),
                        sim::Topology::Initial(hosts, 8), sim::SimConfig{},
                        common::Rng(seed ^ 0xabcdefull));
    workload::WorkloadConfig wl;
    wl.lambda_per_site = 3.0;
    workload::WorkloadGenerator gen(workload::AIoTBenchProfiles(), wl,
                                    common::Rng(seed + 1));
    sim::LeastUtilizationScheduler lazy;
    for (int interval = 0; interval < 25; ++interval) {
      fed.BeginInterval();
      // Random fault churn so alive sets, fault loads and broker health
      // vary: the reference must agree on every eligibility branch.
      if (rng.Bernoulli(0.4)) {
        const auto n = static_cast<sim::NodeId>(
            rng.Choice(static_cast<std::size_t>(hosts)));
        fed.SetFailed(n, fed.now_s() + rng.Uniform(0.0, 100.0),
                      fed.now_s() + rng.Uniform(150.0, 900.0));
      }
      if (rng.Bernoulli(0.4)) {
        const auto n = static_cast<sim::NodeId>(
            rng.Choice(static_cast<std::size_t>(hosts)));
        fed.SetFaultLoad(n, rng.Uniform(0.0, 5000.0),
                         rng.Uniform(0.0, 4096.0), 0.0, 0.0);
      }
      fed.Submit(gen.Generate(interval, fed.now_s()));
      fed.RouteQueuedTasks();
      const auto ref = EagerReferenceSchedule(fed, 1.2);
      const auto got = lazy.Schedule(fed);
      ASSERT_EQ(got.placement.size(), ref.placement.size())
          << "seed " << seed << " interval " << interval;
      for (const auto& [task_id, node] : ref.placement) {
        const auto it = got.placement.find(task_id);
        ASSERT_TRUE(it != got.placement.end());
        EXPECT_EQ(it->second, node)
            << "seed " << seed << " interval " << interval << " task "
            << task_id;
      }
      fed.RunInterval(got);
    }
  }
}

// ---------------------------------------------------------------------------
// ScaledTestbedSpecs validation (satellite: clear error on partial sites).

TEST(ScaledTestbedSpecs, RejectsPartialSites) {
  EXPECT_THROW(sim::ScaledTestbedSpecs(13), std::invalid_argument);
  EXPECT_THROW(sim::ScaledTestbedSpecs(0), std::invalid_argument);
  EXPECT_THROW(sim::ScaledTestbedSpecs(-4), std::invalid_argument);
  EXPECT_THROW(sim::ScaledTestbedSpecs(2), std::invalid_argument);
  try {
    sim::ScaledTestbedSpecs(13);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("multiple of 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("13"), std::string::npos) << msg;
  }
}

TEST(ScaledTestbedSpecs, SpecCountsAndPatternAtScale) {
  for (int h : {4, 16, 64, 128, 512, 4096}) {
    const auto specs = sim::ScaledTestbedSpecs(h);
    ASSERT_EQ(specs.size(), static_cast<std::size_t>(h)) << h;
    int big = 0;
    for (int i = 0; i < h; ++i) {
      const bool expect_big = (i % 4) < 2;
      EXPECT_EQ(specs[static_cast<std::size_t>(i)].name,
                expect_big ? "rpi4b-8gb" : "rpi4b-4gb")
          << "h=" << h << " i=" << i;
      if (expect_big) ++big;
    }
    EXPECT_EQ(big, h / 2) << h;
  }
}

TEST(ScaledTestbedSpecs, RoundedFleetSizeSnapsUp) {
  EXPECT_EQ(sim::RoundedFleetSize(1), 4);
  EXPECT_EQ(sim::RoundedFleetSize(4), 4);
  EXPECT_EQ(sim::RoundedFleetSize(5), 8);
  EXPECT_EQ(sim::RoundedFleetSize(16), 16);
  EXPECT_EQ(sim::RoundedFleetSize(4095), 4096);
  EXPECT_EQ(sim::RoundedFleetSize(-7), 4);
}

// ---------------------------------------------------------------------------
// ArrivalProcess: chunk-invariance and rate equivalence (satellite f).

TEST(ArrivalProcess, SameStreamRegardlessOfChunking) {
  const auto apps = workload::AIoTBenchProfiles();
  workload::ArrivalConfig cfg;
  cfg.rate_per_second = 0.35;
  cfg.num_sites = 8;

  workload::ArrivalProcess one_shot(apps, cfg, common::Rng(77));
  const auto all = one_shot.Drain(1200.0);

  workload::ArrivalProcess chunked(apps, cfg, common::Rng(77));
  std::vector<sim::Task> merged;
  // Deliberately irregular chunk boundaries, including empty chunks.
  for (double until : {13.0, 13.0, 250.5, 251.0, 600.0, 1199.99, 1200.0}) {
    const auto part = chunked.Drain(until);
    merged.insert(merged.end(), part.begin(), part.end());
  }

  ASSERT_EQ(merged.size(), all.size());
  ASSERT_GT(all.size(), 100u);  // the horizon actually produced events
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(merged[i].id, all[i].id);
    EXPECT_EQ(merged[i].app_type, all[i].app_type);
    EXPECT_EQ(merged[i].gateway_site, all[i].gateway_site);
    // Bit-identical doubles: same seed, same stream, same draws.
    EXPECT_EQ(merged[i].arrival_time_s, all[i].arrival_time_s);
    EXPECT_EQ(merged[i].total_mi, all[i].total_mi);
    EXPECT_EQ(merged[i].mips_demand, all[i].mips_demand);
    EXPECT_EQ(merged[i].ram_mb, all[i].ram_mb);
  }
}

TEST(ArrivalProcess, MatchesEagerGeneratorAtMatchedRates) {
  // Same federation-wide mean rate: lambda_per_site * num_sites per
  // interval vs rate_per_second * interval_seconds. Over many intervals
  // the two populations must agree in volume and composition (they are
  // different samplings of the same Poisson process, not bit-equal).
  const auto apps = workload::DeFogProfiles();
  const int sites = 4;
  const double lambda_per_site = 1.2;
  const double interval_s = 300.0;
  const int intervals = 3000;

  workload::WorkloadConfig wl;
  wl.lambda_per_site = lambda_per_site;
  wl.num_sites = sites;
  wl.non_stationary = false;  // stationary, like the open-loop process
  workload::WorkloadGenerator gen(apps, wl, common::Rng(5));
  int eager_total = 0;
  std::vector<int> eager_apps(apps.size(), 0);
  for (int i = 0; i < intervals; ++i) {
    for (const auto& t : gen.Generate(i, i * interval_s)) {
      ++eager_total;
      ++eager_apps[static_cast<std::size_t>(t.app_type)];
    }
  }

  workload::ArrivalConfig cfg;
  cfg.rate_per_second = lambda_per_site * sites / interval_s;
  cfg.num_sites = sites;
  workload::ArrivalProcess proc(apps, cfg, common::Rng(6));
  std::vector<int> open_apps(apps.size(), 0);
  int open_total = 0;
  for (int i = 0; i < intervals; ++i) {
    for (const auto& t : proc.Drain((i + 1) * interval_s)) {
      ++open_total;
      ++open_apps[static_cast<std::size_t>(t.app_type)];
    }
  }

  const double expected = lambda_per_site * sites * intervals;
  EXPECT_NEAR(eager_total, expected, 0.05 * expected);
  EXPECT_NEAR(open_total, expected, 0.05 * expected);
  EXPECT_NEAR(static_cast<double>(open_total),
              static_cast<double>(eager_total), 0.05 * expected);
  // Uniform app mix in both generators.
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const double share_eager =
        static_cast<double>(eager_apps[a]) / eager_total;
    const double share_open =
        static_cast<double>(open_apps[a]) / open_total;
    EXPECT_NEAR(share_eager, 1.0 / static_cast<double>(apps.size()), 0.05);
    EXPECT_NEAR(share_open, share_eager, 0.05);
  }
}

TEST(ArrivalProcess, FromUsersIsARateParameter) {
  const auto cfg = workload::ArrivalConfig::FromUsers(1e6, 1.0, 64);
  EXPECT_NEAR(cfg.rate_per_second, 1e6 / 86400.0, 1e-9);
  EXPECT_EQ(cfg.num_sites, 64);
  // Doubling the population doubles the rate — population is not state.
  const auto cfg2 = workload::ArrivalConfig::FromUsers(2e6, 1.0, 64);
  EXPECT_NEAR(cfg2.rate_per_second, 2.0 * cfg.rate_per_second, 1e-9);
}

}  // namespace
}  // namespace carol
