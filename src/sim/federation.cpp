#include "sim/federation.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/log.h"

namespace carol::sim {

namespace {
constexpr double kEps = 1e-9;
constexpr double kMiEps = 1e-6;
}  // namespace

Federation::Federation(std::vector<NodeSpec> specs, Topology topology,
                       SimConfig config, common::Rng rng)
    : topology_(std::move(topology)),
      config_(config),
      rng_(rng),
      network_(static_cast<int>(specs.size()), config.network, rng_) {
  if (specs.empty()) {
    throw std::invalid_argument("Federation: no node specs");
  }
  if (static_cast<int>(specs.size()) != topology_.num_nodes()) {
    throw std::invalid_argument("Federation: spec/topology size mismatch");
  }
  if (!topology_.IsValid()) {
    throw std::invalid_argument("Federation: invalid initial topology");
  }
  hosts_.reserve(specs.size());
  for (auto& spec : specs) {
    HostRuntime h;
    h.spec = std::move(spec);
    hosts_.push_back(std::move(h));
  }

  const std::size_t h_count = hosts_.size();
  resident_tasks_.assign(h_count, 0);
  broker_worker_counts_.assign(h_count, 0);
  prev_worker_counts_.assign(h_count, 0);
  quiet_power_w_.assign(h_count, 0.0);
  quiet_power_tree_.Reset(h_count);
  engaged_.Reset(h_count);
  // Every row starts default-initialized, so the first interval must
  // rewrite all of them.
  engaged_prev_.resize(h_count);
  for (std::size_t i = 0; i < h_count; ++i) {
    engaged_prev_[i] = static_cast<NodeId>(i);
  }
  scr_task_cpu_.assign(h_count, 0.0);
  scr_ram_.assign(h_count, 0.0);
  scr_disk_.assign(h_count, 0.0);
  scr_net_.assign(h_count, 0.0);
  scr_lei_tasks_.assign(h_count, 0);
  scr_cpu_r_.assign(h_count, 0.0);
  scr_ram_r_.assign(h_count, 0.0);
  scr_disk_r_.assign(h_count, 0.0);
  scr_net_r_.assign(h_count, 0.0);
  scr_share_.assign(h_count, 1.0);
  scr_slow_.assign(h_count, 1.0);
  scr_broker_ratio_.assign(h_count, 0.0);
  scr_cpu_int_.assign(h_count, 0.0);
  scr_ram_int_.assign(h_count, 0.0);
  scr_disk_int_.assign(h_count, 0.0);
  scr_net_int_.assign(h_count, 0.0);
  scr_energy_j_.assign(h_count, 0.0);
  scr_completed_.assign(h_count, 0);
  scr_violated_.assign(h_count, 0);
  RefreshTopologyDerived();
  rows_dirty_.clear();  // the full first-interval refresh covers these

  last_snapshot_ = Snapshot();
}

double Federation::QuietPowerW(NodeId node) const {
  const HostRuntime& h = hosts_[static_cast<std::size_t>(node)];
  if (!topology_.is_broker(node)) {
    return h.spec.idle_power_w * config_.standby_power_frac;
  }
  // Same expression chain as RunSegments' per-segment power block with
  // zero task load, zero contention: cpu ratio = overhead / capacity.
  const double overhead = BrokerOverheadMips(node);
  const double ratio = (0.0 + overhead) / h.spec.cpu_capacity_mips;
  return h.spec.idle_power_w +
         (h.spec.peak_power_w - h.spec.idle_power_w) * std::min(1.0, ratio);
}

void Federation::RefreshTopologyDerived() {
  prev_worker_counts_ = broker_worker_counts_;
  std::fill(broker_worker_counts_.begin(), broker_worker_counts_.end(), 0);
  site_brokers_.assign(static_cast<std::size_t>(network_.num_sites()), {});
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (!topology_.is_broker(n)) {
      ++broker_worker_counts_[static_cast<std::size_t>(
          topology_.broker_of(n))];
    } else {
      // Ascending within each site, the order topology_.brokers() yields
      // — routing tie-breaks rely on it.
      site_brokers_[static_cast<std::size_t>(network_.site_of(n))]
          .push_back(n);
    }
  }
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const auto i = static_cast<std::size_t>(n);
    // A changed worker count changes a broker's quiet utilization even
    // when its quiet power saturates, so the row-dirty mark keys off the
    // count, not the power value.
    if (broker_worker_counts_[i] != prev_worker_counts_[i]) {
      rows_dirty_.insert(n);
    }
    const double q = QuietPowerW(n);
    if (q != quiet_power_w_[i]) {
      quiet_power_w_[i] = q;
      quiet_power_tree_.Set(i, q);
    }
  }
}

const HostRuntime& Federation::host(NodeId node) const {
  return hosts_.at(static_cast<std::size_t>(node));
}

HostRuntime& Federation::mutable_host(NodeId node) {
  return hosts_.at(static_cast<std::size_t>(node));
}

bool Federation::IsAliveAt(NodeId node, double t) const {
  return !host(node).FailedAt(t);
}

std::vector<bool> Federation::AliveVector() const {
  // Only hosts with an open failure window can be dead, and fault_hosts_
  // is a superset of those — value-identical to the legacy all-hosts
  // FailedAt scan in O(H/word + F).
  std::vector<bool> alive(hosts_.size(), true);
  for (NodeId n : fault_hosts_) {
    const auto i = static_cast<std::size_t>(n);
    alive[i] = !hosts_[i].FailedAt(now_s_);
  }
  return alive;
}

void Federation::SetFailed(NodeId node, double from_s, double until_s) {
  HostRuntime& h = mutable_host(node);
  if (h.fail_from_s >= 0.0) {
    // Repeated attacks on an already-compromised node extend the outage
    // to the union extent of both windows.
    h.fail_from_s = std::min(h.fail_from_s, from_s);
    h.fail_until_s = std::max(h.fail_until_s, until_s);
  } else {
    h.fail_from_s = from_s;
    h.fail_until_s = until_s;
  }
  fault_hosts_.insert(node);
}

void Federation::SetFaultLoad(NodeId node, double cpu_mips, double ram_mb,
                              double disk_mbps, double net_mbps) {
  HostRuntime& h = mutable_host(node);
  h.fault_cpu_mips = cpu_mips;
  h.fault_ram_mb = ram_mb;
  h.fault_disk_mbps = disk_mbps;
  h.fault_net_mbps = net_mbps;
  if (cpu_mips != 0.0 || ram_mb != 0.0 || disk_mbps != 0.0 ||
      net_mbps != 0.0) {
    load_hosts_.insert(node);
  } else {
    load_hosts_.erase(node);
  }
}

void Federation::ClearFaultLoad(NodeId node) {
  SetFaultLoad(node, 0.0, 0.0, 0.0, 0.0);
}

void Federation::Submit(std::vector<Task> tasks) {
  // Routing indexes its per-site candidate cache by the gateway site, so
  // the whole batch is checked before any task is appended.
  for (const Task& task : tasks) {
    if (task.gateway_site < 0 || task.gateway_site >= network_.num_sites()) {
      throw std::invalid_argument(
          "Federation::Submit: gateway site out of range");
    }
  }
  for (auto& task : tasks) {
    task.remaining_mi = task.total_mi;
    tasks_.push_back(std::move(task));
    queued_.push_back(tasks_.size() - 1);
  }
}

std::vector<const Task*> Federation::UnplacedTasks() const {
  std::vector<const Task*> out;
  for (std::size_t idx : queued_) {
    if (tasks_[idx].broker != kNoNode) out.push_back(&tasks_[idx]);
  }
  return out;
}

std::vector<const Task*> Federation::ActiveTasksOn(NodeId node) const {
  std::vector<const Task*> out;
  for (std::size_t idx : active_) {
    if (tasks_[idx].assigned_host == node) out.push_back(&tasks_[idx]);
  }
  return out;
}

int Federation::active_task_count() const {
  return static_cast<int>(active_.size());
}

int Federation::queued_task_count() const {
  return static_cast<int>(queued_.size());
}

StepInfo Federation::BeginInterval() {
  StepInfo info;
  const double t0 = now_s_;
  // Only hosts with a failure window can recover or be failed here;
  // iterating the (ascending) fault set visits them in the same id order
  // as a full host scan would, in O(F) instead of O(H).
  for (auto it = fault_hosts_.begin(); it != fault_hosts_.end();) {
    const NodeId n = *it;
    HostRuntime& h = hosts_[static_cast<std::size_t>(n)];
    if (h.fail_from_s >= 0.0 && h.fail_until_s <= t0) {
      // Failure window elapsed: the node rebooted (§IV-I).
      h.fail_from_s = -1.0;
      h.fail_until_s = -1.0;
      h.fault_cpu_mips = h.fault_ram_mb = 0.0;
      h.fault_disk_mbps = h.fault_net_mbps = 0.0;
      load_hosts_.erase(n);
      info.recovered.push_back(n);
      it = fault_hosts_.erase(it);
      continue;
    }
    if (h.FailedAt(t0)) {
      if (topology_.is_broker(n)) {
        info.failed_brokers.push_back(n);
      } else {
        info.failed_workers.push_back(n);
      }
    }
    ++it;
  }
  // Worker failure policy (paper §III-A): requeue tasks of failed workers;
  // the underlying least-utilization scheduler reruns them on the least
  // loaded worker of the LEI.
  for (NodeId w : info.failed_workers) {
    MigrateTasksOff(w, config_.migration_delay_s);
  }
  return info;
}

void Federation::MigrateTasksOff(NodeId node, double extra_delay_s) {
  for (auto it = active_.begin(); it != active_.end();) {
    Task& task = tasks_[*it];
    if (task.assigned_host == node) {
      --resident_tasks_[static_cast<std::size_t>(node)];
      task.assigned_host = kNoNode;
      task.broker = kNoNode;
      task.placed_time_s = -1.0;
      task.startup_delay_s = extra_delay_s;
      queued_.push_back(*it);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void Federation::SetTopology(const Topology& topology) {
  if (topology.num_nodes() != num_nodes()) {
    throw std::invalid_argument("SetTopology: node count mismatch");
  }
  if (!topology.IsValid()) {
    throw std::invalid_argument("SetTopology: invalid topology");
  }
  const double t0 = now_s_;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    HostRuntime& h = hosts_[static_cast<std::size_t>(n)];
    const bool was_broker = topology_.is_broker(n);
    const bool is_broker = topology.is_broker(n);
    if (was_broker != is_broker) {
      h.reconfig_until_s =
          std::max(h.reconfig_until_s, t0 + config_.role_change_overhead_s);
      if (is_broker) {
        // A worker shifted to the broker layer stops executing tasks;
        // they are checkpointed and rescheduled (paper §III-B).
        MigrateTasksOff(n, config_.migration_delay_s);
      }
    } else if (!is_broker &&
               topology_.broker_of(n) != topology.broker_of(n)) {
      h.reconfig_until_s =
          std::max(h.reconfig_until_s, t0 + config_.reassign_overhead_s);
      reconfig_hosts_.insert(n);
    }
    if (was_broker != is_broker) {
      reconfig_hosts_.insert(n);
      rows_dirty_.insert(n);
    }
  }
  topology_ = topology;
  RefreshTopologyDerived();
}

void Federation::RouteQueuedTasks() {
  const auto alive = AliveVector();
  int stranded = 0;
  // The latency-tie candidate set is a function of (site, brokers, alive)
  // only, all fixed for the duration of this call — compute it once per
  // gateway site instead of per task. The per-task tie-break is one
  // uniform draw from rng_. Submit admits only in-range gateway sites.
  std::vector<std::vector<NodeId>> site_candidates(
      static_cast<std::size_t>(std::max(0, network_.num_sites())));
  std::vector<char> site_cached(site_candidates.size(), 0);
  for (std::size_t idx : queued_) {
    Task& task = tasks_[idx];
    // (Re-)route tasks with no broker, a demoted broker, a dead broker,
    // or a broker across a severed link (network partition).
    const bool needs_route =
        task.broker == kNoNode || !topology_.is_broker(task.broker) ||
        !alive[static_cast<std::size_t>(task.broker)] ||
        !network_.SiteReachable(task.gateway_site, task.broker);
    if (!needs_route) continue;
    const auto s = static_cast<std::size_t>(task.gateway_site);
    if (!site_cached[s]) {
      site_candidates[s] = network_.BrokerCandidatesBySite(
          task.gateway_site, site_brokers_, alive);
      site_cached[s] = 1;
    }
    const auto& candidates = site_candidates[s];
    NodeId broker = kNoNode;
    if (!candidates.empty()) {
      broker = candidates[rng_.Choice(candidates.size())];
    }
    task.broker = broker;  // may be kNoNode -> stays stranded
    if (broker == kNoNode) ++stranded;
  }
  if (stranded > 0) {
    common::LogDebug() << "RouteQueuedTasks: " << stranded
                       << " tasks stranded (no alive broker)";
  }
}

std::vector<NodeId> Federation::LatencyTieBrokers(int site) const {
  if (site < 0 || site >= network_.num_sites()) return {};
  return network_.BrokerCandidatesBySite(site, site_brokers_,
                                         AliveVector());
}

double Federation::BrokerOverheadMips(NodeId broker) const {
  const HostRuntime& h = host(broker);
  // Cached worker count (maintained by RefreshTopologyDerived): the
  // legacy workers_of() scan here was O(H) per broker per segment.
  const double workers = static_cast<double>(
      broker_worker_counts_[static_cast<std::size_t>(broker)]);
  return h.spec.cpu_capacity_mips *
         (config_.broker_base_overhead_frac +
          config_.broker_per_worker_overhead_frac * workers);
}

void Federation::ApplyPlacement(const SchedulingDecision& decision,
                                double t0, IntervalResult* result) {
  for (auto it = queued_.begin(); it != queued_.end();) {
    Task& task = tasks_[*it];
    const auto found = decision.placement.find(task.id);
    bool placed = false;
    if (found != decision.placement.end() && task.broker != kNoNode) {
      const NodeId target = found->second;
      const bool valid_target =
          target >= 0 && target < num_nodes() &&
          !topology_.is_broker(target) && IsAliveAt(target, t0) &&
          IsAliveAt(topology_.broker_of(target), t0) &&
          network_.SiteReachable(network_.site_of(target),
                                 topology_.broker_of(target));
      if (valid_target) {
        const HostRuntime& h = host(target);
        const double route_latency =
            2.0 * (network_.LatencyFromSite(task.gateway_site, task.broker) +
                   network_.LatencyBetween(task.broker, target));
        const double transfer =
            task.input_mb / std::max(1.0, h.spec.net_bw_mbps);
        task.startup_delay_s += route_latency + transfer;
        task.assigned_host = target;
        task.placed_time_s = t0;
        ++resident_tasks_[static_cast<std::size_t>(target)];
        active_.push_back(*it);
        it = queued_.erase(it);
        placed = true;
      }
    }
    if (!placed) ++it;
  }
  result->stranded = static_cast<int>(queued_.size());
}

IntervalResult Federation::RunInterval(const SchedulingDecision& decision,
                                       bool build_snapshot) {
  const double t0 = now_s_;
  const double t1 = t0 + config_.interval_seconds;
  IntervalResult result;
  result.interval = interval_;

  // Arrivals this interval = everything still unplaced before placement.
  result.arrivals = static_cast<int>(queued_.size());
  ApplyPlacement(decision, t0, &result);

  // Segment breakpoints: host state changes and task availability times.
  // Built from the incremental fault/reconfig host sets — the value set
  // is identical to the legacy all-hosts scan (hosts outside fault_hosts_
  // have no window, and an elapsed reconfig time never passes the
  // t > t0 + eps filter), in O(F + R + A) instead of O(H).
  std::set<double> breakset = {t1};
  auto add_bp = [&](double t) {
    if (t > t0 + kEps && t < t1 - kEps) breakset.insert(t);
  };
  for (NodeId n : fault_hosts_) {
    const HostRuntime& h = hosts_[static_cast<std::size_t>(n)];
    add_bp(h.fail_from_s);
    add_bp(h.fail_until_s);
  }
  for (auto it = reconfig_hosts_.begin(); it != reconfig_hosts_.end();) {
    const HostRuntime& h = hosts_[static_cast<std::size_t>(*it)];
    if (h.reconfig_until_s <= t0) {
      // Window elapsed; prune lazily (the value stays readable by the
      // runnable check, which compares against segment times directly).
      it = reconfig_hosts_.erase(it);
      continue;
    }
    add_bp(h.reconfig_until_s);
    ++it;
  }
  for (std::size_t idx : active_) {
    const Task& task = tasks_[idx];
    add_bp(task.placed_time_s + task.startup_delay_s);
  }

  RunSegments(t0, t1, breakset, &result);

  now_s_ = t1;
  ++interval_;

  if (build_snapshot) {
    result.snapshot = Snapshot();
  } else {
    result.snapshot.interval = interval_;
    result.snapshot.time_s = now_s_;
    result.snapshot.total_energy_kwh = total_energy_kwh_;
    result.snapshot.active_tasks = static_cast<int>(active_.size());
    result.snapshot.queued_tasks = static_cast<int>(queued_.size());
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
  if (build_snapshot) last_snapshot_ = result.snapshot;
  return result;
}

void Federation::ComputeRates(double t,
                              const std::vector<std::size_t>& active,
                              const std::vector<int>& engaged) {
  // Every active task's host and broker is engaged by construction, so
  // the task loops below only ever read engaged slots.
  for (int n : engaged) {
    const auto i = static_cast<std::size_t>(n);
    scr_task_cpu_[i] = scr_ram_[i] = scr_disk_[i] = scr_net_[i] = 0.0;
    scr_lei_tasks_[i] = 0;
    scr_cpu_r_[i] = scr_ram_r_[i] = scr_disk_r_[i] = scr_net_r_[i] = 0.0;
    scr_share_[i] = 1.0;
    scr_slow_[i] = 1.0;
    scr_broker_ratio_[i] = 0.0;
  }

  auto runnable = [&](const Task& task) {
    if (task.assigned_host == kNoNode) return false;
    const auto hidx = static_cast<std::size_t>(task.assigned_host);
    const HostRuntime& h = hosts_[hidx];
    if (h.FailedAt(t) || t < h.reconfig_until_s) return false;
    if (t < task.placed_time_s + task.startup_delay_s) return false;
    // A failed broker stalls its whole LEI (the motivating failure mode).
    const NodeId broker = topology_.broker_of(task.assigned_host);
    if (hosts_[static_cast<std::size_t>(broker)].FailedAt(t)) return false;
    // A network partition between a worker and its broker stalls the
    // worker's tasks the same way: the broker cannot manage containers
    // across a severed link.
    if (!network_.SiteReachable(network_.site_of(task.assigned_host),
                                broker)) {
      return false;
    }
    return true;
  };

  scr_task_runnable_.assign(active.size(), 0);
  for (std::size_t k = 0; k < active.size(); ++k) {
    const Task& task = tasks_[active[k]];
    if (!runnable(task)) continue;
    scr_task_runnable_[k] = 1;
    const auto hidx = static_cast<std::size_t>(task.assigned_host);
    scr_task_cpu_[hidx] += task.mips_demand;
    scr_ram_[hidx] += task.ram_mb;
    scr_disk_[hidx] += task.disk_mbps;
    scr_net_[hidx] += task.net_mbps;
    ++scr_lei_tasks_[static_cast<std::size_t>(
        topology_.broker_of(task.assigned_host))];
  }

  for (int n : engaged) {
    const auto i = static_cast<std::size_t>(n);
    const HostRuntime& h = hosts_[i];
    const NodeId node = n;
    double overhead = 0.0;
    if (topology_.is_broker(node)) {
      // Static management cost plus the per-task cost of every container
      // the broker currently manages in its LEI.
      overhead = BrokerOverheadMips(node) +
                 h.spec.cpu_capacity_mips *
                     config_.broker_per_task_overhead_frac *
                     static_cast<double>(scr_lei_tasks_[i]);
      scr_broker_ratio_[i] =
          (overhead + h.fault_cpu_mips + scr_task_cpu_[i]) /
          h.spec.cpu_capacity_mips;
    }
    const double cap_total = h.spec.cpu_capacity_mips;
    const double cap_tasks = std::max(1.0, cap_total - overhead);
    const double contended = scr_task_cpu_[i] + h.fault_cpu_mips;
    scr_cpu_r_[i] = (contended + overhead) / cap_total;
    scr_ram_r_[i] = (scr_ram_[i] + h.fault_ram_mb) / h.spec.ram_mb;
    scr_disk_r_[i] = (scr_disk_[i] + h.fault_disk_mbps) / h.spec.disk_bw_mbps;
    scr_net_r_[i] = (scr_net_[i] + h.fault_net_mbps) / h.spec.net_bw_mbps;
    scr_share_[i] = contended > cap_tasks ? cap_tasks / contended : 1.0;
    double s = 1.0;
    if (scr_ram_r_[i] > 1.0) s *= config_.ram_thrash_slowdown;
    if (scr_disk_r_[i] > 1.0) s /= scr_disk_r_[i];
    if (scr_net_r_[i] > 1.0) s /= scr_net_r_[i];
    scr_slow_[i] = s;
  }

  scr_rates_.assign(active.size(), 0.0);
  for (std::size_t k = 0; k < active.size(); ++k) {
    if (!scr_task_runnable_[k]) continue;
    const Task& task = tasks_[active[k]];
    const auto hidx = static_cast<std::size_t>(task.assigned_host);
    // A saturated broker throttles scheduling/result delivery for its
    // whole LEI — the broker-bottleneck effect that motivates broker
    // resilience in the first place.
    const auto bidx =
        static_cast<std::size_t>(topology_.broker_of(task.assigned_host));
    const double broker_slow =
        scr_broker_ratio_[bidx] > 1.0 ? 1.0 / scr_broker_ratio_[bidx] : 1.0;
    scr_rates_[k] =
        task.mips_demand * scr_share_[hidx] * scr_slow_[hidx] * broker_slow;
  }
}

// The event-driven engine: per-segment work touches only engaged hosts;
// quiet hosts are integrated analytically through the quiet-power tree.
void Federation::RunSegments(double t0, double t1,
                             const std::set<double>& breakset,
                             IntervalResult* out) {
  IntervalResult& result = *out;
  // Engaged = hosts whose state can deviate from the quiet profile this
  // interval: resident tasks and their brokers (per-task management
  // overhead), open fault windows, injected contention. Membership is
  // fixed for the whole interval: a host whose last task completes
  // mid-interval stays engaged (and integrates exactly) until the end.
  engaged_.Clear();
  for (std::size_t idx : active_) {
    const Task& task = tasks_[idx];
    engaged_.Insert(task.assigned_host);
    engaged_.Insert(topology_.broker_of(task.assigned_host));
  }
  for (NodeId n : fault_hosts_) engaged_.Insert(n);
  for (NodeId n : load_hosts_) engaged_.Insert(n);
  engaged_.SortAscending();
  const std::vector<int>& engaged = engaged_.items();

  for (int n : engaged) {
    const auto i = static_cast<std::size_t>(n);
    scr_cpu_int_[i] = scr_ram_int_[i] = scr_disk_int_[i] = 0.0;
    scr_net_int_[i] = scr_energy_j_[i] = 0.0;
    scr_completed_[i] = scr_violated_[i] = 0;
  }

  double t = t0;
  while (t < t1 - kEps) {
    const double seg_end = *breakset.upper_bound(t + kEps);
    ComputeRates(t, active_, engaged);

    // Earliest completion inside this segment.
    double t_next = seg_end;
    for (std::size_t k = 0; k < active_.size(); ++k) {
      if (scr_rates_[k] > kEps) {
        const double eta = tasks_[active_[k]].remaining_mi / scr_rates_[k];
        t_next = std::min(t_next, t + eta);
      }
    }
    t_next = std::min(std::max(t_next, t + kEps), seg_end);
    const double dt = t_next - t;

    // Integrate utilization and energy over [t, t_next).
    for (int n : engaged) {
      const auto i = static_cast<std::size_t>(n);
      const HostRuntime& h = hosts_[i];
      scr_cpu_int_[i] += scr_cpu_r_[i] * dt;
      scr_ram_int_[i] += scr_ram_r_[i] * dt;
      scr_disk_int_[i] += scr_disk_r_[i] * dt;
      scr_net_int_[i] += scr_net_r_[i] * dt;
      double power = 0.0;
      if (h.FailedAt(t)) {
        power = h.spec.idle_power_w;  // hung or rebooting
      } else if (scr_cpu_r_[i] <= kEps &&
                 !topology_.is_broker(static_cast<NodeId>(i))) {
        power = h.spec.idle_power_w * config_.standby_power_frac;
      } else {
        power = h.spec.idle_power_w +
                (h.spec.peak_power_w - h.spec.idle_power_w) *
                    std::min(1.0, scr_cpu_r_[i]);
      }
      scr_energy_j_[i] += power * dt;
    }

    // Advance progress; collect completions. Erasure is deferred so the
    // scr_rates_ indices stay aligned with `active_` during the sweep.
    for (std::size_t k = 0; k < active_.size(); ++k) {
      Task& task = tasks_[active_[k]];
      if (scr_rates_[k] <= kEps) continue;
      task.remaining_mi -= scr_rates_[k] * dt;
      if (task.remaining_mi > kMiEps) continue;
      task.remaining_mi = 0.0;
      task.finish_time_s = t_next;
      const NodeId hostid = task.assigned_host;
      const auto hidx = static_cast<std::size_t>(hostid);
      const double out_transfer =
          task.output_mb / std::max(1.0, hosts_[hidx].spec.net_bw_mbps);
      const double out_latency =
          2.0 * (network_.LatencyBetween(hostid, task.broker) +
                 network_.LatencyFromSite(task.gateway_site, task.broker));
      const double response = task.finish_time_s - task.arrival_time_s +
                              out_transfer + out_latency;
      result.response_times.push_back(response);
      result.response_app_types.push_back(task.app_type);
      result.response_deadlines.push_back(task.slo_deadline_s);
      ++result.completed;
      ++scr_completed_[hidx];
      --resident_tasks_[hidx];
      if (response > task.slo_deadline_s) {
        ++result.violated;
        ++scr_violated_[hidx];
      }
    }
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [this](std::size_t idx) {
                                   return tasks_[idx].finished();
                                 }),
                  active_.end());

    t = t_next;
  }

  // Interval energy: engaged hosts from their exact integrals (ascending
  // id order), quiet hosts analytically — constant quiet power times the
  // interval. The quiet side reads the fixed-shape tree total, so the
  // incremental aggregate is pinned bit-exactly against a from-scratch
  // ShapedSum rebuild by AuditIncrementalState().
  double engaged_j = 0.0;
  double engaged_quiet_w = 0.0;
  for (int n : engaged) {
    const auto i = static_cast<std::size_t>(n);
    engaged_j += scr_energy_j_[i];
    engaged_quiet_w += quiet_power_w_[i];
  }
  const double quiet_j = (quiet_power_tree_.Total() - engaged_quiet_w) *
                         config_.interval_seconds;
  const double interval_kwh = (engaged_j + quiet_j) / 3.6e6;
  total_energy_kwh_ += interval_kwh;
  result.energy_kwh = interval_kwh;

  // Row refresh (this becomes M_t). Engaged rows are rebuilt from their
  // integrals. A quiet host's row is rewritten only when it
  // just left the engaged set (engaged_prev_) or its quiet profile shape
  // changed (rows_dirty_: role flips, LEI worker-count changes) — all
  // other quiet rows are byte-for-byte what this rewrite would produce,
  // because nothing they depend on changed.
  const double inv_dt = 1.0 / config_.interval_seconds;
  for (int n : engaged) {
    const auto i = static_cast<std::size_t>(n);
    HostRuntime& h = hosts_[i];
    HostMetricsRow& m = h.metrics;
    m = HostMetricsRow{};
    m.cpu_util = scr_cpu_int_[i] * inv_dt;
    m.ram_util = scr_ram_int_[i] * inv_dt;
    m.disk_util = scr_disk_int_[i] * inv_dt;
    m.net_util = scr_net_int_[i] * inv_dt;
    m.energy_kwh = scr_energy_j_[i] / 3.6e6;
    m.slo_violation_rate =
        scr_completed_[i] > 0
            ? static_cast<double>(scr_violated_[i]) / scr_completed_[i]
            : 0.0;
    m.is_broker = topology_.is_broker(static_cast<NodeId>(i));
    m.failed = h.FailedAt(t1 - kEps);
  }
  auto quiet_row_refresh = [&](NodeId n) {
    if (engaged_.Contains(n)) return;
    const auto i = static_cast<std::size_t>(n);
    HostRuntime& h = hosts_[i];
    HostMetricsRow& m = h.metrics;
    m = HostMetricsRow{};
    const bool is_broker = topology_.is_broker(n);
    if (is_broker) {
      // The quiet broker's constant cpu ratio (management overhead only).
      m.cpu_util =
          (0.0 + BrokerOverheadMips(n)) / h.spec.cpu_capacity_mips;
    }
    m.energy_kwh =
        quiet_power_w_[i] * config_.interval_seconds / 3.6e6;
    m.is_broker = is_broker;
    // Not in fault_hosts_ (else it would be engaged), so never failed.
  };
  for (NodeId n : engaged_prev_) quiet_row_refresh(n);
  for (NodeId n : rows_dirty_) quiet_row_refresh(n);

  // Task-demand and scheduling-decision row fields: every task's host is
  // engaged, so these touch only freshly rebuilt rows.
  for (std::size_t idx : active_) {
    const Task& task = tasks_[idx];
    const auto hidx = static_cast<std::size_t>(task.assigned_host);
    HostMetricsRow& m = hosts_[hidx].metrics;
    m.task_cpu_demand_mips += task.mips_demand;
    m.task_ram_demand_mb += task.ram_mb;
    m.avg_deadline_s += task.slo_deadline_s;
  }
  for (int n : engaged) {
    const auto i = static_cast<std::size_t>(n);
    HostMetricsRow& m = hosts_[i].metrics;
    const int cnt = resident_tasks_[i];
    if (cnt > 0) m.avg_deadline_s /= static_cast<double>(cnt);
  }
  for (std::size_t idx : active_) {
    const Task& task = tasks_[idx];
    if (task.placed_time_s == t0) {
      const auto hidx = static_cast<std::size_t>(task.assigned_host);
      hosts_[hidx].metrics.sched_cpu_demand_mips += task.mips_demand;
      hosts_[hidx].metrics.sched_task_count += 1.0;
    }
  }

  engaged_prev_.assign(engaged.begin(), engaged.end());
  rows_dirty_.clear();
}

std::string Federation::AuditIncrementalState() const {
  std::ostringstream oss;
  // Fault / contention host sets.
  std::set<NodeId> want_fault, want_load;
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const HostRuntime& h = hosts_[static_cast<std::size_t>(n)];
    if (h.fail_from_s >= 0.0) want_fault.insert(n);
    if (h.fault_cpu_mips != 0.0 || h.fault_ram_mb != 0.0 ||
        h.fault_disk_mbps != 0.0 || h.fault_net_mbps != 0.0) {
      want_load.insert(n);
    }
  }
  if (want_fault != fault_hosts_) {
    oss << "fault_hosts: tracked " << fault_hosts_.size() << " want "
        << want_fault.size();
    return oss.str();
  }
  if (want_load != load_hosts_) {
    oss << "load_hosts: tracked " << load_hosts_.size() << " want "
        << want_load.size();
    return oss.str();
  }
  // reconfig_hosts_ is a lazily pruned superset: every live window must
  // be tracked (missing one would drop a segment breakpoint).
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const HostRuntime& h = hosts_[static_cast<std::size_t>(n)];
    if (h.reconfig_until_s > now_s_ && reconfig_hosts_.count(n) == 0) {
      oss << "reconfig_hosts: node " << n << " window untracked";
      return oss.str();
    }
  }
  // Resident task counts.
  std::vector<int> want_res(static_cast<std::size_t>(num_nodes()), 0);
  for (std::size_t idx : active_) {
    ++want_res[static_cast<std::size_t>(tasks_[idx].assigned_host)];
  }
  if (want_res != resident_tasks_) {
    oss << "resident_tasks mismatch";
    return oss.str();
  }
  // Per-broker worker counts, from the topology itself.
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const auto i = static_cast<std::size_t>(n);
    const int want = topology_.is_broker(n)
                         ? static_cast<int>(topology_.workers_of(n).size())
                         : 0;
    if (broker_worker_counts_[i] != want) {
      oss << "broker_worker_counts: node " << n << " tracked "
          << broker_worker_counts_[i] << " want " << want;
      return oss.str();
    }
  }
  // Site-grouped broker view (routing hot path) against the O(H) scan:
  // flattening in ascending site order must give back
  // topology_.brokers() (sites are ascending contiguous node blocks).
  {
    std::vector<NodeId> flat;
    for (const auto& group : site_brokers_) {
      flat.insert(flat.end(), group.begin(), group.end());
    }
    if (flat != topology_.brokers()) {
      oss << "site_brokers_ flattened diverges from topology_.brokers()";
      return oss.str();
    }
  }
  // Quiet powers: recompute from scratch; leaves and the tree total must
  // match bit-exactly (same expressions, fixed-shape reduction).
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const auto i = static_cast<std::size_t>(n);
    const double want = QuietPowerW(n);
    if (quiet_power_w_[i] != want || quiet_power_tree_.Get(i) != want) {
      oss << "quiet_power: node " << n << " stale";
      return oss.str();
    }
  }
  if (quiet_power_tree_.Total() !=
      simkern::SumTree::ShapedSum(quiet_power_w_)) {
    oss << "quiet_power_tree total diverges from ShapedSum rebuild";
    return oss.str();
  }
  return std::string();
}

SystemSnapshot Federation::Snapshot() const {
  SystemSnapshot snap;
  snap.interval = interval_;
  snap.time_s = now_s_;
  snap.topology = topology_;
  snap.hosts.reserve(hosts_.size());
  for (const HostRuntime& h : hosts_) snap.hosts.push_back(h.metrics);
  snap.alive = AliveVector();
  snap.total_energy_kwh = total_energy_kwh_;
  snap.active_tasks = static_cast<int>(active_.size());
  snap.queued_tasks = static_cast<int>(queued_.size());
  return snap;
}

}  // namespace carol::sim
