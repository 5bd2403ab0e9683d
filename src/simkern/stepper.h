// The ONE canonical per-interval protocol (paper Algorithm 2), extracted
// from its three historical copies (FederationRuntime::Run, the training
// trace collector, the scenario driver fleet loop):
//
//   recover -> detect -> repair -> inject -> submit -> route -> run ->
//   observe
//
// Drivers differ only in what happens AT the hook points, never in the
// order of the stages — IntervalStepper owns the order, IntervalHooks
// owns the driver-specific behavior. The hook-point contract (what each
// hook may touch, and when each StepContext field is valid) is in
// src/simkern/README.md. Each port is pinned bit-identical to its legacy
// loop by the golden digests in tests/simkern_test.cpp.
#ifndef CAROL_SIMKERN_STEPPER_H_
#define CAROL_SIMKERN_STEPPER_H_

#include <optional>
#include <vector>

#include "faults/detector.h"
#include "faults/recovery.h"
#include "sim/federation.h"
#include "sim/scheduler.h"
#include "sim/topology.h"

namespace carol::simkern {

// Snapshot of the in-flight interval handed to every hook. Stage-scoped
// pointers are null before their stage runs: `step` is valid from
// AfterRecovery onward, `report` from Repair onward.
struct StepContext {
  int interval = 0;
  sim::Federation* fed = nullptr;
  const sim::StepInfo* step = nullptr;
  const faults::DetectionReport* report = nullptr;
};

// Driver-specific behavior, all optional. The defaults produce the
// minimal protocol: no repair decision (topology untouched), no faults,
// no arrivals, full snapshot.
class IntervalHooks {
 public:
  virtual ~IntervalHooks() = default;

  // Before BeginInterval: boundary events that precede the protocol
  // (scenario: service-restart rendezvous, scheduled network mutations).
  virtual void OnIntervalStart(StepContext& ctx) { (void)ctx; }

  // After recoveries are folded into the topology, before detection
  // (trace collector: periodic topology shuffle).
  virtual void AfterRecovery(StepContext& ctx) { (void)ctx; }

  // The resilience decision for ctx.report. Return the proposed topology
  // (the stepper validates it and falls back on FallbackRepair), or
  // nullopt to skip the repair stage entirely — the trace collector has
  // no model in the loop.
  virtual std::optional<sim::Topology> Repair(StepContext& ctx) {
    (void)ctx;
    return std::nullopt;
  }

  // A proposed repair failed validation; the stepper applies
  // FallbackRepair immediately after this returns (harness: log a
  // warning; scenario: silent, the scorecard tells the story).
  virtual void OnInvalidRepair(StepContext& ctx) { (void)ctx; }

  // Fault events for this interval (fault injector's Step).
  virtual void InjectFaults(StepContext& ctx) { (void)ctx; }

  // New tasks arriving this interval; the stepper submits them.
  virtual std::vector<sim::Task> GenerateArrivals(StepContext& ctx) {
    (void)ctx;
    return {};
  }

  // After the interval ran: model observation, metric accumulation.
  virtual void Observe(StepContext& ctx, const sim::IntervalResult& r) {
    (void)ctx;
    (void)r;
  }

  // Whether RunInterval should gather the full per-host snapshot. Return
  // false only for drivers that never read last_snapshot() or rows
  // (open-loop benches); see Federation::RunInterval's contract.
  virtual bool WantSnapshot(const StepContext& ctx) const {
    (void)ctx;
    return true;
  }
};

// Repair of last resort when a model/service returns an invalid
// topology: promote the least-utilized alive orphan of each failed
// broker (the DYVERSE default), or merge the LEI into another alive
// broker. Shared by every driver so all apply the exact same guard.
sim::Topology FallbackRepair(const sim::Topology& topology,
                             const std::vector<sim::NodeId>& failed_brokers,
                             const sim::Federation& federation);

// Extraction hints for a scoped (subgraph-extracted) repair, gathered
// from the kernel's own incremental state: the latency-tie neighbor
// brokers of each failed broker's site (where that LEI's traffic
// reroutes), the engaged set of the last interval, and every host with
// an open fault window or injected contention. Deduplicated keeping the
// first occurrence (extraction consumes hints in priority order under a
// budget) — a deterministic function of federation state, so a
// re-issued request (serve's parked-repair resume) rebuilds the exact
// same extraction. Pass to core::RepairSubgraph / serve::RepairScope.
std::vector<sim::NodeId> RepairScopeHints(
    const sim::Federation& federation,
    const std::vector<sim::NodeId>& failed_brokers);

class IntervalStepper {
 public:
  // Borrows all three; they must outlive the stepper. The detector and
  // recovery manager are owned here — no driver ever configured them
  // differently, and owning them keeps the protocol self-contained.
  IntervalStepper(sim::Federation& fed, sim::Scheduler& scheduler,
                  IntervalHooks& hooks)
      : fed_(&fed), scheduler_(&scheduler), hooks_(&hooks) {}

  // One protocol interval. `interval` is the driver's interval index,
  // surfaced to hooks via StepContext.
  sim::IntervalResult Step(int interval);

  // Convenience: Step(0..intervals-1), discarding results (hooks see
  // everything they need via Observe).
  void Run(int intervals);

 private:
  sim::Federation* fed_;
  sim::Scheduler* scheduler_;
  IntervalHooks* hooks_;
  faults::FailureDetector detector_;
  faults::RecoveryManager recovery_;
};

}  // namespace carol::simkern

#endif  // CAROL_SIMKERN_STEPPER_H_
