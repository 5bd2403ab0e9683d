#include "core/carol.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/log.h"

namespace carol::core {

// --- shared decision-path building blocks ------------------------------

double QosObjective(const nn::Matrix& metrics, double alpha, double beta) {
  double energy = 0.0, slo = 0.0;
  for (std::size_t i = 0; i < metrics.rows(); ++i) {
    energy += metrics(i, FeatureEncoder::kEnergyColumn);
    slo += metrics(i, FeatureEncoder::kSloColumn);
  }
  const double h = static_cast<double>(metrics.rows());
  return (alpha * energy + beta * slo) / std::max(1.0, h);
}

std::vector<EncodedState> EncodeFrontier(
    const FeatureEncoder& encoder, const sim::SystemSnapshot& snapshot,
    const std::vector<sim::Topology>& candidates) {
  std::vector<EncodedState> contexts;
  contexts.reserve(candidates.size());
  for (const sim::Topology& candidate : candidates) {
    contexts.push_back(encoder.EncodeForTopology(snapshot, candidate));
  }
  return contexts;
}

std::vector<double> ScoreEncoded(GonModel& gon,
                                 std::span<const EncodedState> contexts,
                                 double alpha, double beta) {
  std::vector<const nn::Matrix*> inits;
  std::vector<const EncodedState*> ctx_ptrs;
  inits.reserve(contexts.size());
  ctx_ptrs.reserve(contexts.size());
  for (const EncodedState& ctx : contexts) {
    inits.push_back(&ctx.m);
    ctx_ptrs.push_back(&ctx);
  }
  const std::vector<GenerationResult> gens =
      gon.GenerateBatch(inits, ctx_ptrs);
  std::vector<double> scores;
  scores.reserve(gens.size());
  for (const GenerationResult& gen : gens) {
    scores.push_back(QosObjective(gen.metrics, alpha, beta));
  }
  return scores;
}

std::vector<double> ScoreTopologiesWith(
    GonModel& gon, const FeatureEncoder& encoder, double alpha, double beta,
    const std::vector<sim::Topology>& candidates,
    const sim::SystemSnapshot& snapshot) {
  const std::vector<EncodedState> contexts =
      EncodeFrontier(encoder, snapshot, candidates);
  return ScoreEncoded(gon, contexts, alpha, beta);
}

// --- the resumable repair pipeline --------------------------------------

namespace {

const std::vector<sim::Topology> kEmptyFrontier;

// Snapshot alive flags for `topo`, falling back to all-alive when the
// snapshot does not cover the topology's node range. The one liveness
// convention of the repair path: the scoped extraction and the candidate
// roles both start from it.
std::vector<bool> AliveForTopology(const sim::SystemSnapshot& snapshot,
                                   const sim::Topology& topo) {
  std::vector<bool> alive = snapshot.alive;
  if (alive.size() != static_cast<std::size_t>(topo.num_nodes())) {
    alive.assign(static_cast<std::size_t>(topo.num_nodes()), true);
  }
  return alive;
}

}  // namespace

RepairJob::RepairJob(const sim::Topology& current,
                     const std::vector<sim::NodeId>& failed_brokers,
                     const sim::SystemSnapshot& snapshot,
                     const CarolConfig& config, common::Rng* rng,
                     const RepairScope* scope, const RepairJobState* resume)
    : RepairJob(current, failed_brokers, snapshot, config, rng,
                scope != nullptr ? std::span<const sim::NodeId>(scope->hints)
                                 : std::span<const sim::NodeId>(),
                scope != nullptr ? &scope->options : nullptr, resume) {}

RepairJob::RepairJob(const sim::Topology& current,
                     const std::vector<sim::NodeId>& failed_brokers,
                     const sim::SystemSnapshot& snapshot,
                     std::span<const sim::NodeId> hints,
                     const ScopedRepairOptions& options,
                     const CarolConfig& config, common::Rng* rng)
    : RepairJob(current, failed_brokers, snapshot, config, rng, hints,
                &options, nullptr) {}

RepairJob::RepairJob(const sim::Topology& current,
                     const std::vector<sim::NodeId>& failed_brokers,
                     const sim::SystemSnapshot& snapshot,
                     const CarolConfig& config, common::Rng* rng,
                     std::span<const sim::NodeId> hints,
                     const ScopedRepairOptions* options,
                     const RepairJobState* resume)
    : current_(&current),
      snapshot_(&snapshot),
      failed_(failed_brokers),
      config_(&config),
      rng_(rng) {
  if (options != nullptr) {
    // Scoped: extract from the same liveness the unscoped start below
    // begins from, then plan on the sub-problem.
    subgraph_ = RepairSubgraph::Extract(
        current, AliveForTopology(snapshot, current), failed_brokers, hints,
        *options);
    if (subgraph_.empty()) {  // nothing to plan on: done, input unchanged
      empty_scope_ = true;
      topo_ = current;
      return;
    }
    sub_snapshot_ = subgraph_.SubSnapshot(snapshot);
    failed_ = subgraph_.sub_failed();
  }

  if (resume != nullptr) {
    alive_ = resume->alive;
    topo_ = sim::Topology::FromAssignment(resume->topo);
    broker_idx_ = static_cast<std::size_t>(resume->broker_idx);
    phase_ = static_cast<Phase>(resume->phase);
    proactive_acted_ = resume->proactive_acted;
    baseline_.reserve(resume->baseline.size());
    for (const std::vector<sim::NodeId>& assignment : resume->baseline) {
      baseline_.push_back(sim::Topology::FromAssignment(assignment));
    }
    if (resume->has_search) {
      // The neighborhood is a pure function of (alive mask, options):
      // the restored alive_ reproduces the original enumeration exactly.
      search_.emplace(config_->tabu, alive_, config_->node_shift,
                      resume->search);
    }
    return;
  }

  topo_ = subgraph_.empty() ? current : subgraph_.sub_topology();
  const sim::SystemSnapshot& planning = scoring_snapshot();
  if (!failed_.empty()) {
    alive_ = AliveForTopology(planning, topo_);
    // Every failed broker is byzantine: exclude from candidate roles.
    for (sim::NodeId b : failed_) {
      if (static_cast<std::size_t>(b) < alive_.size()) {
        alive_[static_cast<std::size_t>(b)] = false;
      }
    }
    phase_ = Phase::kRepairSearch;
    StartNextBrokerSearch();
    return;
  }
  if (!config.proactive) return;  // nothing failed, nothing to do
  // Only act on the failure precursor: sustained resource
  // over-utilization somewhere in the fleet (§VI).
  double max_util = 0.0;
  for (const auto& host : planning.hosts) {
    max_util = std::max(max_util, host.cpu_util);
  }
  if (max_util < config.proactive_util_threshold) return;
  proactive_acted_ = true;
  alive_ = AliveForTopology(planning, topo_);
  search_.emplace(config.tabu, topo_, alive_, config.node_shift);
  phase_ = Phase::kProactiveSearch;
}

RepairJobState RepairJob::SaveState() const {
  RepairJobState state;
  if (empty_scope_) return state;  // no search problem to resume
  state.alive = alive_;
  state.topo = topo_.assignment();
  state.broker_idx = static_cast<std::uint64_t>(broker_idx_);
  state.phase = static_cast<int>(phase_);
  state.proactive_acted = proactive_acted_;
  state.baseline.reserve(baseline_.size());
  for (const sim::Topology& g : baseline_) {
    state.baseline.push_back(g.assignment());
  }
  if (search_.has_value()) {
    state.has_search = true;
    state.search = search_->Snapshot();
  }
  return state;
}

sim::Topology RepairJob::result() const {
  return subgraph_.empty() ? topo_ : subgraph_.Splice(*current_, topo_);
}

void RepairJob::StartNextBrokerSearch() {
  while (broker_idx_ < failed_.size()) {
    const sim::NodeId failed = failed_[broker_idx_];
    if (!topo_.is_broker(failed)) {  // repaired by an earlier step
      ++broker_idx_;
      continue;
    }
    std::vector<sim::Topology> repairs =
        FailureNeighbors(topo_, failed, alive_, config_->node_shift);
    if (repairs.empty()) {  // nothing alive to take over
      ++broker_idx_;
      continue;
    }
    // Algorithm 2 line 7: start from a random node-shift...
    sim::Topology start = std::move(repairs[rng_->Choice(repairs.size())]);
    // ...line 8: tabu-search the neighborhood to optimize Omega; the
    // caller scores each proposed frontier (one stacked GON pass in the
    // single-model path, a cross-session batch in the serving layer).
    search_.emplace(config_->tabu, std::move(start), alive_,
                    config_->node_shift);
    return;
  }
  search_.reset();
  phase_ = Phase::kDone;
}

const std::vector<sim::Topology>& RepairJob::ProposeFrontier() const {
  if (phase_ == Phase::kProactiveBaseline) return baseline_;
  if (search_.has_value()) return search_->ProposeFrontier();
  return kEmptyFrontier;
}

void RepairJob::Advance(std::span<const double> scores) {
  switch (phase_) {
    case Phase::kRepairSearch:
      search_->Advance(scores);
      if (search_->done()) {
        topo_ = search_->best();
        ++broker_idx_;
        StartNextBrokerSearch();
      }
      return;
    case Phase::kProactiveSearch:
      search_->Advance(scores);
      if (search_->done()) {
        // The move gate needs the incumbent's own score: propose it as a
        // one-candidate frontier.
        baseline_.assign(1, topo_);
        phase_ = Phase::kProactiveBaseline;
      }
      return;
    case Phase::kProactiveBaseline: {
      if (scores.size() != 1) {
        throw std::logic_error(
            "RepairJob: baseline frontier expects exactly one score");
      }
      // Only move when the surrogate sees a real improvement: node
      // shifts have reconfiguration costs the optimizer does not model.
      if (search_->best_score() < scores[0] - 0.01) topo_ = search_->best();
      baseline_.clear();
      search_.reset();
      phase_ = Phase::kDone;
      return;
    }
    case Phase::kDone:
      throw std::logic_error("RepairJob: Advance on a finished job");
  }
}

sim::Topology PlanDecision(const sim::Topology& current,
                           const std::vector<sim::NodeId>& failed_brokers,
                           const sim::SystemSnapshot& snapshot,
                           const CarolConfig& config, common::Rng& rng,
                           const TopologyBatchScoreFn& score,
                           const RepairScope* scope, bool* proactive_acted) {
  RepairJob job(current, failed_brokers, snapshot, config, &rng, scope);
  if (job.proactive_acted() && proactive_acted != nullptr) {
    *proactive_acted = true;
  }
  while (!job.done()) {
    job.Advance(score(job.ProposeFrontier(), job.scoring_snapshot()));
  }
  return job.result();
}

ConfidenceGate::ConfidenceGate(const CarolConfig& config)
    : policy_(config.policy),
      gamma_capacity_(config.gamma_capacity),
      pot_(config.pot) {}

ConfidenceGate::Outcome ConfidenceGate::Observe(
    GonModel& gon, const FeatureEncoder& encoder,
    const sim::SystemSnapshot& snapshot) {
  bool any_broker_failed = false;
  for (std::size_t i = 0; i < snapshot.hosts.size(); ++i) {
    if (snapshot.hosts[i].is_broker && snapshot.hosts[i].failed) {
      any_broker_failed = true;
      break;
    }
  }

  EncodedState state = encoder.Encode(snapshot);
  Outcome out;
  out.confidence = gon.Discriminate(state);
  out.threshold = pot_.Update(out.confidence);
  if (record_history_) {
    confidence_history_.push_back(out.confidence);
    threshold_history_.push_back(out.threshold);
  }

  if (!any_broker_failed) {
    // Algorithm 2 line 10: grow the running dataset Gamma.
    gamma_.push_back(std::move(state));
    if (gamma_.size() > gamma_capacity_) {
      gamma_.erase(gamma_.begin());
    }
  }

  switch (policy_) {
    case FineTunePolicy::kConfidence:
      out.finetune = pot_.Breach(out.confidence);
      break;
    case FineTunePolicy::kAlways:
      out.finetune = true;
      break;
    case FineTunePolicy::kNever:
      out.finetune = false;
      break;
  }
  return out;
}

ConfidenceGate::State ConfidenceGate::SaveState() const {
  State state;
  state.pot = pot_.state();
  state.gamma = gamma_;
  return state;
}

void ConfidenceGate::RestoreState(State state) {
  pot_.Restore(state.pot);
  gamma_ = std::move(state.gamma);
}

// --- CarolModel ---------------------------------------------------------

CarolModel::CarolModel(const CarolConfig& config)
    : config_(config),
      gon_(std::make_unique<GonModel>(config.gon)),
      gate_(config),
      rng_(config.seed) {}

std::vector<EpochStats> CarolModel::TrainOffline(
    const workload::Trace& trace, int max_epochs) {
  std::vector<EncodedState> data;
  data.reserve(trace.size());
  for (const auto& record : trace) {
    data.push_back(encoder_.EncodeRecord(record));
  }
  return gon_->Train(data, max_epochs);
}

double CarolModel::ScoreTopology(const sim::Topology& candidate,
                                 const sim::SystemSnapshot& snapshot) {
  // Encode the observed metrics against the hypothetical topology, then
  // let the GON converge M* from the warm start M_{t-1} (paper §III-B)
  // and read the QoS objective O(M*) off the generated metrics (Eq. 7).
  return ScoreTopologiesWith(*gon_, encoder_, config_.alpha, config_.beta,
                             {candidate}, snapshot)
      .front();
}

std::vector<double> CarolModel::ScoreTopologies(
    const std::vector<sim::Topology>& candidates,
    const sim::SystemSnapshot& snapshot) {
  return ScoreTopologiesWith(*gon_, encoder_, config_.alpha, config_.beta,
                             candidates, snapshot);
}

sim::Topology CarolModel::Repair(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot) {
  // The large-fleet tier plans on the extracted affected region. No
  // hints here: the single-model path has no kernel dirty sets, so
  // extraction seeds from the failed LEIs plus budget fill.
  const RepairScope scope{config_.scoped, {}};
  bool proactive_acted = false;
  sim::Topology out = PlanDecision(
      current, failed_brokers, snapshot, config_, rng_,
      [&](const std::vector<sim::Topology>& frontier,
          const sim::SystemSnapshot& scoring) {
        return ScoreTopologies(frontier, scoring);
      },
      config_.scoped.enabled ? &scope : nullptr, &proactive_acted);
  if (proactive_acted) ++proactive_optimizations_;
  return out;
}

void CarolModel::Observe(const sim::SystemSnapshot& snapshot) {
  const ConfidenceGate::Outcome out =
      gate_.Observe(*gon_, encoder_, snapshot);
  if (out.finetune && !gate_.gamma().empty()) {
    common::LogInfo() << name_ << ": fine-tuning at interval "
                      << snapshot.interval << " (confidence "
                      << out.confidence << " < threshold " << out.threshold
                      << ")";
    gon_->FineTune(gate_.gamma(), config_.finetune_epochs);
    finetune_intervals_.push_back(snapshot.interval);
    if (config_.policy == FineTunePolicy::kConfidence) {
      gate_.ClearGamma();  // Algorithm 2 line 16
    }
  }
}

double CarolModel::MemoryFootprintMb() const {
  // GON network + the running dataset Gamma resident on the broker.
  return gon_->MemoryFootprintMb() +
         GammaStateBytes() * static_cast<double>(config_.gamma_capacity) /
             (1024.0 * 1024.0);
}

}  // namespace carol::core
