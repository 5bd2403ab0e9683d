// The CAROL resilience controller (paper Algorithm 2).
//
// Per interval:
//   * For every failed broker, apply a random node-shift and run tabu
//     search over the node-shift neighborhood, scoring candidate
//     topologies with Omega(G) = O(GenerateMetrics(G)) where O is the
//     convex QoS combination of Eq. (7).
//   * When no broker failed, append the observed tuple to the running
//     dataset Gamma, compute the confidence C = D(M_t, S_t, G_t), update
//     the POT threshold, and fine-tune the GON on Gamma when C breaches
//     it (then clear Gamma).
//
// The algorithm is split into free building blocks (RepairJob,
// PlanDecision, ScoreTopologiesWith, ConfidenceGate) shared between the
// single-model CarolModel below, the tabu-based ablations in
// src/baselines and the multi-tenant serving layer in src/serve: all of
// them drive the same code, which is what makes service decisions
// bit-identical to the single-model path at fixed seeds. The repair path
// is one resumable state machine (RepairJob): it yields one candidate
// frontier per step and the caller supplies the scores, so a serving
// layer can interleave and batch scoring across federations;
// PlanDecision drives a job to completion against a blocking scorer.
// The large-fleet tier is the same job given a RepairScope: it plans on
// the extracted affected region (core/subgraph.h) and splices the
// decision back.
#ifndef CAROL_CORE_CAROL_H_
#define CAROL_CORE_CAROL_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/encoder.h"
#include "core/gon.h"
#include "core/node_shift.h"
#include "core/pot.h"
#include "core/resilience.h"
#include "core/subgraph.h"
#include "core/tabu.h"
#include "workload/trace.h"

namespace carol::core {

// Fine-tuning policy; kConfidence is CAROL, the others are the paper's
// §V-D ablations.
enum class FineTunePolicy { kConfidence, kAlways, kNever };

struct CarolConfig {
  GonConfig gon;
  PotConfig pot;
  TabuConfig tabu;
  NodeShiftOptions node_shift;
  // Eq. (7) weights (alpha + beta = 1; the paper uses 0.5/0.5).
  double alpha = 0.5;
  double beta = 0.5;
  FineTunePolicy policy = FineTunePolicy::kConfidence;
  int finetune_epochs = 2;
  // Capacity of the running dataset Gamma.
  std::size_t gamma_capacity = 64;
  unsigned seed = 7;

  // --- proactive extension (the paper's §VI future work) ---
  // When enabled, CAROL also re-optimizes the topology on intervals with
  // NO broker failure if sustained overload signals an impending one
  // (resource over-utilization is the failure precursor in the fault
  // model). Costs extra decision time; prevents overload-induced hangs.
  bool proactive = false;
  double proactive_util_threshold = 1.1;

  // --- scoped repair (large-fleet tier; core/subgraph.h) ---
  // When enabled, CarolModel (and serve sessions whose requests carry no
  // explicit scope) plan repairs on the extracted subgraph: extract the
  // failed brokers' LEIs plus budget-fill LEIs, run the ordinary
  // RepairJob there and splice the decision back. Disabled by default:
  // the H <= 128 tier plans on the full federation. When the extraction
  // covers the full federation the scoped job is bit-identical to the
  // unscoped one.
  ScopedRepairOptions scoped;
};

// --- decision-path building blocks (shared with src/serve) -------------

// O(M*) of Eq. (7): convex energy/SLO combination over generated metrics.
double QosObjective(const nn::Matrix& metrics, double alpha, double beta);

// Analytic footprint of one Gamma entry (M, S, R rows + adjacency) for
// the reference 16-host federation, in bytes. Every model reports its
// memory at this reference size so the Fig. 5(e) comparison stays
// apples-to-apples across techniques.
inline double GammaStateBytes(double hosts = 16.0) {
  return (hosts * (FeatureEncoder::kMetricFeatures +
                   FeatureEncoder::kSchedFeatures +
                   FeatureEncoder::kRoleFeatures) +
          hosts * hosts) *
         sizeof(double);
}

// Scores a whole candidate frontier against the snapshot the job plans
// in (RepairJob::scoring_snapshot(): the request snapshot, or its H_sub
// view when scoped); the scoring model is captured by the caller. Used
// by PlanDecision.
using TopologyBatchScoreFn = std::function<std::vector<double>(
    const std::vector<sim::Topology>&, const sim::SystemSnapshot&)>;

// Encodes a candidate frontier against one snapshot — the shared
// convention for the tabu search and the serving layer's batcher.
std::vector<EncodedState> EncodeFrontier(
    const FeatureEncoder& encoder, const sim::SystemSnapshot& snapshot,
    const std::vector<sim::Topology>& candidates);

// One stacked GON generation pass over already-encoded candidates; the
// score of each is QosObjective over its generated metrics.
std::vector<double> ScoreEncoded(GonModel& gon,
                                 std::span<const EncodedState> contexts,
                                 double alpha, double beta);

// Batched Omega over candidate topologies: EncodeFrontier + ScoreEncoded.
// Matches per-candidate scoring.
std::vector<double> ScoreTopologiesWith(
    GonModel& gon, const FeatureEncoder& encoder, double alpha, double beta,
    const std::vector<sim::Topology>& candidates,
    const sim::SystemSnapshot& snapshot);

// Complete serializable state of a RepairJob, captured between steps
// (frontier proposed, scores pending). Topologies are stored as
// assignment encodings, in the space the job plans in (sub space when
// scoped); the request inputs (topology, failed-broker list, snapshot,
// scope, config, rng) are NOT part of the state — the restoring caller
// re-supplies them, and the serving layer's session snapshot carries
// them alongside. `phase` mirrors the job's private Phase enum by index.
struct RepairJobState {
  std::vector<bool> alive;
  std::vector<sim::NodeId> topo;
  std::uint64_t broker_idx = 0;
  int phase = 3;  // 0 repair-search, 1 proactive-search, 2 baseline, 3 done
  bool proactive_acted = false;
  std::vector<std::vector<sim::NodeId>> baseline;
  bool has_search = false;
  TabuSearchSnapshot search;
};

// The per-interval repair dispatch — the per-broker loop of Algorithm 2
// lines 6-8, or the §VI proactive extension when nothing failed — as an
// explicit state machine that yields one candidate frontier per step
// instead of blocking on a scoring callback. Protocol:
//   RepairJob job(current, failed, snapshot, config, &rng, scope);
//   while (!job.done()) {
//     job.Advance(scores_for(job.ProposeFrontier(), job.scoring_snapshot()));
//   }
//   use job.result();
// Driving a job to completion performs exactly the same evaluations (and
// rng draws) for ANY interleaving with other jobs: all search state is
// self-contained, so a scheduler may advance many federations' jobs step
// by step in any order and batch their frontiers into shared GON passes
// (src/serve does exactly that).
//
// Without a scope the job plans on the full federation. With one it is
// scoped: it runs RepairSubgraph::Extract on the request and plans in SUB
// space — frontiers, scoring_snapshot() and sub_result() are H_sub-node —
// and result() splices the decision back into the full topology. An
// extraction that comes out empty leaves nothing to plan: the job is done
// at once and every space is the full one.
class RepairJob {
 public:
  // `current` and `snapshot` are borrowed for the lifetime of the job;
  // `failed_brokers` is copied, and `scope` and `resume` are borrowed
  // only while it is constructed. With failed brokers the job repairs
  // each one in list order; otherwise it runs the proactive extension
  // when `config.proactive` is on, and is done at once when it is off.
  // `rng` is consumed only for repair starts (Algorithm 2 line 7).
  //
  // With `resume` the job continues a state captured by SaveState()
  // instead of starting. The other arguments must equal the original
  // request's (a scoped job re-runs its deterministic extraction) and
  // `rng` must carry the stream state it had at capture time; driving the
  // restored job to completion then yields bit-identical decisions to the
  // uninterrupted run. The restore consumes NO rng draws: the draws of
  // already-started searches happened before the capture.
  RepairJob(const sim::Topology& current,
            const std::vector<sim::NodeId>& failed_brokers,
            const sim::SystemSnapshot& snapshot, const CarolConfig& config,
            common::Rng* rng, const RepairScope* scope = nullptr,
            const RepairJobState* resume = nullptr);
  // A scoped job, with the scope given by its parts.
  RepairJob(const sim::Topology& current,
            const std::vector<sim::NodeId>& failed_brokers,
            const sim::SystemSnapshot& snapshot,
            std::span<const sim::NodeId> hints,
            const ScopedRepairOptions& options, const CarolConfig& config,
            common::Rng* rng);

  // Captures the full job state between steps (see RepairJobState).
  RepairJobState SaveState() const;

  // Steps capture interior pointers; keep the job pinned in place.
  RepairJob(const RepairJob&) = delete;
  RepairJob& operator=(const RepairJob&) = delete;

  bool done() const { return phase_ == Phase::kDone; }
  // Candidate topologies awaiting scores; non-empty unless done(). The
  // reference stays valid until the next Advance call.
  const std::vector<sim::Topology>& ProposeFrontier() const;
  // Supplies one score per proposed candidate and advances the job.
  void Advance(std::span<const double> scores);
  // The snapshot frontiers (and the decided state) are scored against:
  // the request snapshot, or its H_sub-row view when scoped.
  const sim::SystemSnapshot& scoring_snapshot() const {
    return subgraph_.empty() ? *snapshot_ : sub_snapshot_;
  }
  // The decided topology in the space the job plans in (the input
  // topology until repairs land; the final decision once done()). The
  // confidence of a decision encodes this against scoring_snapshot().
  const sim::Topology& sub_result() const { return topo_; }
  // The decided topology in FULL space: sub_result() spliced back into
  // the request topology when scoped.
  sim::Topology result() const;
  // The extracted region; empty when unscoped.
  const RepairSubgraph& subgraph() const { return subgraph_; }
  // True when the proactive extension ran an optimization attempt.
  bool proactive_acted() const { return proactive_acted_; }

 private:
  enum class Phase {
    kRepairSearch,       // tabu search for the current failed broker
    kProactiveSearch,    // proactive tabu search from the incumbent
    kProactiveBaseline,  // re-score the incumbent for the move gate
    kDone
  };

  // The body of both public constructors; `options` is null when
  // unscoped.
  RepairJob(const sim::Topology& current,
            const std::vector<sim::NodeId>& failed_brokers,
            const sim::SystemSnapshot& snapshot, const CarolConfig& config,
            common::Rng* rng, std::span<const sim::NodeId> hints,
            const ScopedRepairOptions* options,
            const RepairJobState* resume);

  // Advances broker_idx_ to the next failed broker that still needs a
  // repair search (consuming one rng draw per searchable broker), or
  // finishes the job.
  void StartNextBrokerSearch();

  const sim::Topology* current_;
  const sim::SystemSnapshot* snapshot_;
  std::vector<sim::NodeId> failed_;  // sub-space list when scoped
  const CarolConfig* config_;
  common::Rng* rng_;
  RepairSubgraph subgraph_;
  sim::SystemSnapshot sub_snapshot_;
  bool empty_scope_ = false;  // scoped, but the extraction was empty
  std::vector<bool> alive_;
  sim::Topology topo_;
  std::size_t broker_idx_ = 0;
  std::optional<TabuSearchState> search_;
  std::vector<sim::Topology> baseline_;  // proactive incumbent re-score
  Phase phase_ = Phase::kDone;
  bool proactive_acted_ = false;
};

// The scoped job's former name: RepairJob is the only repair job, and the
// benchmark (carolbench/src/layers.cpp) still spells it this way.
using ScopedRepairJob = RepairJob;

// Drives one RepairJob to completion against a blocking scorer and
// returns its decision in full space (the input topology when there is
// nothing to do). Every failed broker gets a random node-shift start
// followed by tabu search (Algorithm 2 lines 6-8); deterministic given
// `rng` state and a deterministic `score`, which receives each frontier
// with the job's scoring_snapshot(). CarolModel (scoped or not), the
// tabu-based ablations and the fleet benches route through this ONE
// function, and the serving layer steps the same RepairJob — that shared
// dispatch is part of the bit-identity guarantee between the paths.
sim::Topology PlanDecision(const sim::Topology& current,
                           const std::vector<sim::NodeId>& failed_brokers,
                           const sim::SystemSnapshot& snapshot,
                           const CarolConfig& config, common::Rng& rng,
                           const TopologyBatchScoreFn& score,
                           const RepairScope* scope = nullptr,
                           bool* proactive_acted = nullptr);

// Confidence bookkeeping of Algorithm 2 lines 9-14: per-federation POT
// threshold, running dataset Gamma and the fine-tune trigger. One gate
// per federation; the GON it scores with is passed per call so serving
// replicas can be swapped underneath.
class ConfidenceGate {
 public:
  explicit ConfidenceGate(const CarolConfig& config);

  struct Outcome {
    double confidence = 0.0;
    double threshold = 0.0;
    bool finetune = false;  // policy says fine-tune now
  };

  // Scores the observed tuple, updates the POT threshold, grows Gamma on
  // failure-free intervals and evaluates the fine-tune policy.
  Outcome Observe(GonModel& gon, const FeatureEncoder& encoder,
                  const sim::SystemSnapshot& snapshot);

  const std::vector<EncodedState>& gamma() const { return gamma_; }
  void ClearGamma() { gamma_.clear(); }

  // Serializable gate state: the POT threshold window plus the running
  // dataset Gamma. The Figure-2 history series are intentionally NOT
  // captured (serving sessions record none; a restored single-model
  // gate restarts its series empty). RestoreState(SaveState()) resumes
  // the Observe sequence bit-identically.
  struct State {
    PotState pot;
    std::vector<EncodedState> gamma;
  };
  State SaveState() const;
  void RestoreState(State state);
  // Per-interval confidence/threshold series (Figure 2). Recording is on
  // by default for the single-model path; long-running serve sessions
  // turn it off, since the series grows unboundedly and nothing reads it
  // through the service API.
  void set_record_history(bool record) { record_history_ = record; }
  const std::vector<double>& confidence_history() const {
    return confidence_history_;
  }
  const std::vector<double>& threshold_history() const {
    return threshold_history_;
  }

 private:
  FineTunePolicy policy_;
  std::size_t gamma_capacity_;
  bool record_history_ = true;
  PotThreshold pot_;
  // Running dataset Gamma (Algorithm 2 line 10).
  std::vector<EncodedState> gamma_;
  std::vector<double> confidence_history_;
  std::vector<double> threshold_history_;
};

// --- the single-model controller ---------------------------------------

class CarolModel : public ResilienceModel {
 public:
  explicit CarolModel(const CarolConfig& config);

  // Offline training on the trace Lambda (paper §IV-D/E). Returns the
  // per-epoch stats (Figure 4).
  std::vector<EpochStats> TrainOffline(const workload::Trace& trace,
                                       int max_epochs = 30);

  std::string name() const override { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  sim::Topology Repair(const sim::Topology& current,
                       const std::vector<sim::NodeId>& failed_brokers,
                       const sim::SystemSnapshot& snapshot) override;
  void Observe(const sim::SystemSnapshot& snapshot) override;
  double MemoryFootprintMb() const override;

  // Omega(G; D, S, O): surrogate QoS score of a candidate topology
  // against the given snapshot (exposed for tests and benches).
  double ScoreTopology(const sim::Topology& candidate,
                       const sim::SystemSnapshot& snapshot);
  // Batched Omega: encodes all candidates and runs ONE stacked GON
  // generation/scoring pass (the node-shift search hot path). Matches
  // per-candidate ScoreTopology results.
  std::vector<double> ScoreTopologies(
      const std::vector<sim::Topology>& candidates,
      const sim::SystemSnapshot& snapshot);

  // --- introspection (Figure 2 series, overhead accounting) ---
  const std::vector<double>& confidence_history() const {
    return gate_.confidence_history();
  }
  const std::vector<double>& threshold_history() const {
    return gate_.threshold_history();
  }
  const std::vector<int>& finetune_intervals() const {
    return finetune_intervals_;
  }
  int finetune_count() const {
    return static_cast<int>(finetune_intervals_.size());
  }
  // Number of proactive (no-failure) re-optimizations performed.
  int proactive_optimizations() const { return proactive_optimizations_; }
  GonModel& gon() { return *gon_; }
  const GonModel& gon() const { return *gon_; }
  const CarolConfig& config() const { return config_; }

 private:
  CarolConfig config_;
  std::string name_ = "CAROL";
  FeatureEncoder encoder_;
  std::unique_ptr<GonModel> gon_;
  ConfidenceGate gate_;
  common::Rng rng_;
  std::vector<int> finetune_intervals_;
  int proactive_optimizations_ = 0;
};

}  // namespace carol::core

#endif  // CAROL_CORE_CAROL_H_
