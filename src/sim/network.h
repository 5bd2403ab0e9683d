// Network model: geographic sites, LAN/WAN latencies and gateway routing.
//
// Replaces the paper's NetLimiter-shaped inter-broker latencies and the
// gateway mobility model (§IV-C): each node belongs to a fixed geographic
// site; intra-site links are LAN, inter-site links are WAN with latencies
// sampled once at construction. Gateways submit tasks from a site and the
// federation routes each task to the closest *active* broker, breaking
// ties uniformly at random (paper §III-A, Workload Model).
#ifndef CAROL_SIM_NETWORK_H_
#define CAROL_SIM_NETWORK_H_

#include <vector>

#include "common/rng.h"
#include "sim/topology.h"
#include "sim/types.h"

namespace carol::sim {

struct NetworkConfig {
  int num_sites = 4;
  double lan_latency_s = 0.002;
  double wan_latency_min_s = 0.020;
  double wan_latency_max_s = 0.080;
};

// The contiguous-block site assignment shared by Network and the scenario
// compiler (node i -> site i / max(1, num_nodes / num_sites), clamped to
// the last site).
int NodeSiteOf(NodeId node, int num_nodes, int num_sites);

class Network {
 public:
  // Assigns nodes to sites in contiguous blocks (NodeSiteOf) and samples
  // a symmetric WAN latency matrix from the configured range.
  Network(int num_nodes, const NetworkConfig& config, common::Rng& rng);

  int num_nodes() const { return num_nodes_; }
  int num_sites() const { return config_.num_sites; }
  int site_of(NodeId node) const;

  // One-way latency between two nodes.
  double LatencyBetween(NodeId a, NodeId b) const;
  // One-way latency from a gateway at `site` to `node`.
  double LatencyFromSite(int site, NodeId node) const;

  // The latency-tie candidate set of a gateway at `site`: the closest
  // alive, reachable brokers (latency ties within 1e-12), in ascending
  // id order — routing draws one of them uniformly. Computed over
  // site-grouped broker lists (`site_brokers[s]` = ascending brokers of
  // site s, as Federation caches them): latency is a site-level property
  // and sites are contiguous ascending node blocks, so running the tie
  // logic over sites and concatenating the winners equals the per-broker
  // scan in O(sites + |winners|) instead of O(brokers). Empty when no
  // broker is alive, or every alive broker sits across a severed link.
  // Pinned equal to the per-broker scan under fuzz in
  // tests/fleet_sparse_test.cpp.
  std::vector<NodeId> BrokerCandidatesBySite(
      int site, const std::vector<std::vector<NodeId>>& site_brokers,
      const std::vector<bool>& alive) const;

  // --- scenario hooks: dynamic inter-site link state -------------------
  // A severed link partitions the two sites: gateways cannot route to
  // brokers across it and brokers cannot manage workers across it (the
  // Federation stalls those tasks), while established data transfers are
  // merely delayed — latency queries stay finite and keep applying the
  // degradation multiplier. Intra-site links (a == b) never sever or
  // degrade. All mutators are symmetric. Cuts are REFERENCE-COUNTED so
  // overlapping partition windows nest: a link stays severed until every
  // Sever has been matched by a Heal (a surplus Heal is a no-op).
  void SeverLink(int site_a, int site_b);
  void HealLink(int site_a, int site_b);
  // Cuts `site` off from (or reconnects it to) every other site.
  void SeverSite(int site);
  void HealSite(int site);
  // Latency multiplier for one site pair (degradation; >= 1 slows the
  // WAN, 1 restores it). Throws std::invalid_argument on mult <= 0.
  void SetLinkDegradation(int site_a, int site_b, double multiplier);
  // Multiplies the current degradation by `factor` (scenario windows
  // compose: applying a brownout scales by m, ending it by 1/m, so
  // overlapping windows nest like refcounted cuts do).
  void ScaleLinkDegradation(int site_a, int site_b, double factor);
  // Restores full connectivity and unit degradation everywhere.
  void ResetLinkState();
  bool IsSevered(int site_a, int site_b) const;
  // True when `node` is reachable from a gateway at `from_site`.
  bool SiteReachable(int from_site, NodeId node) const;

 private:
  double SiteLatency(int s1, int s2) const;
  std::size_t PairIndex(int s1, int s2) const;
  void CheckSite(int site, const char* op) const;

  int num_nodes_;
  NetworkConfig config_;
  std::vector<int> node_site_;
  std::vector<double> site_latency_;  // num_sites x num_sites, row-major
  std::vector<int> severed_;          // cut refcounts; diagonal stays 0
  std::vector<double> degradation_;   // same shape; 1.0 = nominal
};

}  // namespace carol::sim

#endif  // CAROL_SIM_NETWORK_H_
