#include "sim/network.h"

#include <algorithm>
#include <stdexcept>

namespace carol::sim {

int NodeSiteOf(NodeId node, int num_nodes, int num_sites) {
  const int block = std::max(1, num_nodes / num_sites);
  return std::min(node / block, num_sites - 1);
}

Network::Network(int num_nodes, const NetworkConfig& config,
                 common::Rng& rng)
    : num_nodes_(num_nodes), config_(config) {
  if (num_nodes <= 0 || config.num_sites <= 0) {
    throw std::invalid_argument("Network: bad node/site count");
  }
  node_site_.resize(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    node_site_[static_cast<std::size_t>(i)] =
        NodeSiteOf(i, num_nodes, config.num_sites);
  }
  const auto sites = static_cast<std::size_t>(config.num_sites);
  site_latency_.assign(sites * sites, config.lan_latency_s);
  for (std::size_t a = 0; a < sites; ++a) {
    for (std::size_t b = a + 1; b < sites; ++b) {
      const double wan =
          rng.Uniform(config.wan_latency_min_s, config.wan_latency_max_s);
      site_latency_[a * sites + b] = wan;
      site_latency_[b * sites + a] = wan;
    }
  }
  severed_.assign(sites * sites, 0);
  degradation_.assign(sites * sites, 1.0);
}

int Network::site_of(NodeId node) const {
  if (node < 0 || node >= num_nodes_) {
    throw std::out_of_range("Network::site_of: node out of range");
  }
  return node_site_[static_cast<std::size_t>(node)];
}

std::size_t Network::PairIndex(int s1, int s2) const {
  return static_cast<std::size_t>(s1) *
             static_cast<std::size_t>(config_.num_sites) +
         static_cast<std::size_t>(s2);
}

void Network::CheckSite(int site, const char* op) const {
  if (site < 0 || site >= config_.num_sites) {
    throw std::out_of_range(std::string(op) + ": bad site");
  }
}

double Network::SiteLatency(int s1, int s2) const {
  return site_latency_[PairIndex(s1, s2)] * degradation_[PairIndex(s1, s2)];
}

double Network::LatencyBetween(NodeId a, NodeId b) const {
  return SiteLatency(site_of(a), site_of(b));
}

double Network::LatencyFromSite(int site, NodeId node) const {
  CheckSite(site, "Network::LatencyFromSite");
  return SiteLatency(site, site_of(node));
}

void Network::SeverLink(int site_a, int site_b) {
  CheckSite(site_a, "Network::SeverLink");
  CheckSite(site_b, "Network::SeverLink");
  if (site_a == site_b) return;
  ++severed_[PairIndex(site_a, site_b)];
  ++severed_[PairIndex(site_b, site_a)];
}

void Network::HealLink(int site_a, int site_b) {
  CheckSite(site_a, "Network::HealLink");
  CheckSite(site_b, "Network::HealLink");
  // Refcounted: an overlapping partition's cut survives this heal; a
  // surplus heal is a no-op.
  auto& ab = severed_[PairIndex(site_a, site_b)];
  auto& ba = severed_[PairIndex(site_b, site_a)];
  if (ab > 0) --ab;
  if (ba > 0) --ba;
}

void Network::SeverSite(int site) {
  for (int other = 0; other < config_.num_sites; ++other) {
    if (other != site) SeverLink(site, other);
  }
}

void Network::HealSite(int site) {
  for (int other = 0; other < config_.num_sites; ++other) {
    if (other != site) HealLink(site, other);
  }
}

void Network::SetLinkDegradation(int site_a, int site_b, double multiplier) {
  CheckSite(site_a, "Network::SetLinkDegradation");
  CheckSite(site_b, "Network::SetLinkDegradation");
  if (multiplier <= 0.0) {
    throw std::invalid_argument(
        "Network::SetLinkDegradation: multiplier must be positive");
  }
  if (site_a == site_b) return;
  degradation_[PairIndex(site_a, site_b)] = multiplier;
  degradation_[PairIndex(site_b, site_a)] = multiplier;
}

void Network::ScaleLinkDegradation(int site_a, int site_b, double factor) {
  CheckSite(site_a, "Network::ScaleLinkDegradation");
  CheckSite(site_b, "Network::ScaleLinkDegradation");
  if (factor <= 0.0) {
    throw std::invalid_argument(
        "Network::ScaleLinkDegradation: factor must be positive");
  }
  if (site_a == site_b) return;
  degradation_[PairIndex(site_a, site_b)] *= factor;
  degradation_[PairIndex(site_b, site_a)] *= factor;
}

void Network::ResetLinkState() {
  std::fill(severed_.begin(), severed_.end(), 0);
  std::fill(degradation_.begin(), degradation_.end(), 1.0);
}

bool Network::IsSevered(int site_a, int site_b) const {
  CheckSite(site_a, "Network::IsSevered");
  CheckSite(site_b, "Network::IsSevered");
  return severed_[PairIndex(site_a, site_b)] != 0;
}

bool Network::SiteReachable(int from_site, NodeId node) const {
  CheckSite(from_site, "Network::SiteReachable");
  return !IsSevered(from_site, site_of(node));
}

std::vector<NodeId> Network::BrokerCandidatesBySite(
    int from_site, const std::vector<std::vector<NodeId>>& site_brokers,
    const std::vector<bool>& alive) const {
  CheckSite(from_site, "Network::BrokerCandidatesBySite");
  // The incremental tie logic of a per-broker scan, one step per site:
  // every broker of a site shares its latency, so duplicate per-broker
  // steps collapse to one. A site with no alive broker never enters the
  // tie evolution, exactly as its brokers never would.
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> winners;
  const int sites = std::min(config_.num_sites,
                             static_cast<int>(site_brokers.size()));
  for (int s = 0; s < sites; ++s) {
    const auto& brokers = site_brokers[static_cast<std::size_t>(s)];
    if (brokers.empty()) continue;
    if (IsSevered(from_site, s)) continue;
    bool any_alive = false;
    for (NodeId b : brokers) {
      if (alive[static_cast<std::size_t>(b)]) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive) continue;
    const double lat = SiteLatency(from_site, s);
    if (lat < best - 1e-12) {
      best = lat;
      winners.assign(1, s);
    } else if (lat < best + 1e-12) {
      winners.push_back(s);
    }
  }
  // Winners are ascending sites; sites are ascending node blocks — the
  // concatenation is in ascending broker id, the order the per-broker
  // scan produces and the tie-break Choice indexes into.
  std::vector<NodeId> candidates;
  for (int s : winners) {
    for (NodeId b : site_brokers[static_cast<std::size_t>(s)]) {
      if (alive[static_cast<std::size_t>(b)]) candidates.push_back(b);
    }
  }
  return candidates;
}

}  // namespace carol::sim
