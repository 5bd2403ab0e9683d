#include "core/subgraph.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace carol::core {

namespace {

const std::vector<sim::Topology> kEmptyFrontier;

}  // namespace

RepairSubgraph RepairSubgraph::Extract(
    const sim::Topology& full, const std::vector<bool>& alive,
    std::span<const sim::NodeId> failed_brokers,
    std::span<const sim::NodeId> hints, const ScopedRepairOptions& options) {
  const int h = full.num_nodes();
  const std::vector<sim::NodeId>& asg = full.assignment();

  // One O(H) pass groups every LEI; everything after is O(extracted).
  std::vector<std::vector<sim::NodeId>> lei(static_cast<std::size_t>(h));
  for (sim::NodeId i = 0; i < h; ++i) {
    lei[static_cast<std::size_t>(asg[static_cast<std::size_t>(i)])]
        .push_back(i);
  }

  std::vector<char> selected(static_cast<std::size_t>(h), 0);
  std::vector<char> lei_added(static_cast<std::size_t>(h), 0);
  int count = 0;
  const int budget = std::max(1, options.max_hosts);

  // Adds the whole LEI containing `node`. Mandatory LEIs (the failed
  // brokers' own) ignore the budget — correctness first; optional ones
  // are skipped once they would overflow it.
  const auto add_lei = [&](sim::NodeId node, bool mandatory) {
    if (node < 0 || node >= h) return;
    const sim::NodeId b = asg[static_cast<std::size_t>(node)];
    if (lei_added[static_cast<std::size_t>(b)]) return;
    const auto& members = lei[static_cast<std::size_t>(b)];
    if (!mandatory &&
        count + static_cast<int>(members.size()) > budget) {
      return;
    }
    lei_added[static_cast<std::size_t>(b)] = 1;
    for (sim::NodeId n : members) {
      if (!selected[static_cast<std::size_t>(n)]) {
        selected[static_cast<std::size_t>(n)] = 1;
        ++count;
      }
    }
  };

  for (sim::NodeId b : failed_brokers) add_lei(b, /*mandatory=*/true);
  for (sim::NodeId n : hints) add_lei(n, /*mandatory=*/false);
  if (options.fill_to_budget) {
    for (sim::NodeId i = 0; i < h && count < budget; ++i) {
      if (asg[static_cast<std::size_t>(i)] == i &&
          static_cast<std::size_t>(i) < alive.size() &&
          alive[static_cast<std::size_t>(i)]) {
        add_lei(i, /*mandatory=*/false);
      }
    }
  }

  RepairSubgraph out;
  out.full_hosts_ = h;
  out.nodes_.reserve(static_cast<std::size_t>(count));
  for (sim::NodeId i = 0; i < h; ++i) {
    if (selected[static_cast<std::size_t>(i)]) out.nodes_.push_back(i);
  }
  if (!out.nodes_.empty()) {
    // Remapped assignment: the whole-LEI invariant guarantees every
    // extracted node's broker is extracted too, so ToSub never misses.
    std::vector<sim::NodeId> sub_asg(out.nodes_.size());
    for (std::size_t i = 0; i < out.nodes_.size(); ++i) {
      sub_asg[i] =
          out.ToSub(asg[static_cast<std::size_t>(out.nodes_[i])]);
    }
    out.sub_topology_ = sim::Topology::FromAssignment(sub_asg);
    // Failed list in sub space, input order preserved (the rng-draw
    // order of the per-broker repair chain).
    out.sub_failed_.reserve(failed_brokers.size());
    for (sim::NodeId b : failed_brokers) {
      out.sub_failed_.push_back(out.ToSub(b));
    }
  }
  return out;
}

sim::NodeId RepairSubgraph::ToSub(sim::NodeId full) const {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), full);
  if (it == nodes_.end() || *it != full) return sim::kNoNode;
  return static_cast<sim::NodeId>(it - nodes_.begin());
}

sim::SystemSnapshot RepairSubgraph::SubSnapshot(
    const sim::SystemSnapshot& full) const {
  sim::SystemSnapshot out;
  out.interval = full.interval;
  out.time_s = full.time_s;
  out.interval_energy_kwh = full.interval_energy_kwh;
  out.total_energy_kwh = full.total_energy_kwh;
  out.avg_response_s = full.avg_response_s;
  out.slo_rate = full.slo_rate;
  out.active_tasks = full.active_tasks;
  out.queued_tasks = full.queued_tasks;
  if (sub_topology_.has_value()) out.topology = *sub_topology_;
  // Rows / alive copy by extracted index — but only when the full
  // snapshot actually covers the federation. A mismatched snapshot stays
  // mismatched in sub space, so the downstream fallbacks (all-alive,
  // row-less encode) trigger exactly as they would unscoped.
  if (full.hosts.size() == static_cast<std::size_t>(full_hosts_)) {
    out.hosts.reserve(nodes_.size());
    for (sim::NodeId id : nodes_) {
      out.hosts.push_back(full.hosts[static_cast<std::size_t>(id)]);
    }
  }
  if (full.alive.size() == static_cast<std::size_t>(full_hosts_)) {
    out.alive.reserve(nodes_.size());
    for (sim::NodeId id : nodes_) {
      out.alive.push_back(full.alive[static_cast<std::size_t>(id)]);
    }
  }
  return out;
}

sim::Topology RepairSubgraph::Splice(const sim::Topology& full_current,
                                     const sim::Topology& sub_decided) const {
  if (full_current.num_nodes() != full_hosts_) {
    throw std::invalid_argument(
        "RepairSubgraph::Splice: topology size does not match extraction");
  }
  if (!sub_topology_.has_value() ||
      sub_decided.num_nodes() != sub_topology_->num_nodes()) {
    throw std::invalid_argument(
        "RepairSubgraph::Splice: sub decision does not match extraction");
  }
  std::vector<std::pair<sim::NodeId, sim::NodeId>> entries;
  const std::vector<sim::NodeId>& before = sub_topology_->assignment();
  const std::vector<sim::NodeId>& after = sub_decided.assignment();
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i] != before[i]) {
      entries.emplace_back(nodes_[i],
                           nodes_[static_cast<std::size_t>(after[i])]);
    }
  }
  sim::Topology out = full_current;
  if (!entries.empty()) out.ApplySplice(entries);
  return out;
}

// --- ScopedRepairJob ----------------------------------------------------

void ScopedRepairJob::BuildSubProblem(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot, std::span<const sim::NodeId> hints,
    const ScopedRepairOptions& options) {
  // The same liveness the RepairJob constructor starts from.
  const std::vector<bool> alive = AliveForTopology(snapshot, current);
  subgraph_ = RepairSubgraph::Extract(current, alive, failed_brokers,
                                      hints, options);
  sub_failed_ = subgraph_.empty() ? std::vector<sim::NodeId>{}
                                  : subgraph_.sub_failed();
  if (!subgraph_.empty()) {
    sub_snapshot_ = subgraph_.SubSnapshot(snapshot);
  }
}

ScopedRepairJob::ScopedRepairJob(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot, std::span<const sim::NodeId> hints,
    const ScopedRepairOptions& options, const CarolConfig& config,
    common::Rng* rng)
    : full_current_(current) {
  BuildSubProblem(current, failed_brokers, snapshot, hints, options);
  if (!subgraph_.empty()) {
    job_.emplace(subgraph_.sub_topology(), sub_failed_, sub_snapshot_,
                 config, rng);
  }
}

ScopedRepairJob::ScopedRepairJob(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot, std::span<const sim::NodeId> hints,
    const ScopedRepairOptions& options, const CarolConfig& config,
    common::Rng* rng, const RepairJobState& state)
    : full_current_(current) {
  BuildSubProblem(current, failed_brokers, snapshot, hints, options);
  if (!subgraph_.empty()) {
    job_.emplace(sub_failed_, config, rng, state);
  }
}

const std::vector<sim::Topology>& ScopedRepairJob::ProposeFrontier() const {
  if (!job_.has_value()) return kEmptyFrontier;
  return job_->ProposeFrontier();
}

void ScopedRepairJob::Advance(std::span<const double> scores) {
  if (!job_.has_value()) {
    throw std::logic_error("ScopedRepairJob: Advance on an empty scope");
  }
  job_->Advance(scores);
}

const sim::Topology& ScopedRepairJob::sub_result() const {
  if (!job_.has_value()) {
    throw std::logic_error(
        "ScopedRepairJob: no sub result for an empty scope");
  }
  return job_->result();
}

sim::Topology ScopedRepairJob::result() const {
  if (!job_.has_value()) return full_current_;
  return subgraph_.Splice(full_current_, job_->result());
}

RepairJobState ScopedRepairJob::SaveState() const {
  if (!job_.has_value()) return RepairJobState{};
  return job_->SaveState();
}

// --- one-shot driver ----------------------------------------------------

sim::Topology PlanScopedDecision(
    const sim::Topology& current,
    const std::vector<sim::NodeId>& failed_brokers,
    const sim::SystemSnapshot& snapshot, std::span<const sim::NodeId> hints,
    const ScopedRepairOptions& options, const CarolConfig& config,
    common::Rng& rng, GonModel& gon, const FeatureEncoder& encoder,
    bool* proactive_acted) {
  ScopedRepairJob job(current, failed_brokers, snapshot, hints, options,
                      config, &rng);
  if (job.proactive_acted() && proactive_acted != nullptr) {
    *proactive_acted = true;
  }
  while (!job.done()) {
    job.Advance(ScoreTopologiesWith(gon, encoder, config.alpha,
                                    config.beta, job.ProposeFrontier(),
                                    job.scoring_snapshot()));
  }
  return job.result();
}

}  // namespace carol::core
