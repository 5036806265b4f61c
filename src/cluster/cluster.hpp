#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/node.hpp"
#include "common/types.hpp"
#include "obs/profiler.hpp"

namespace fifer {

/// Node-selection strategy for container placement.
///
///  - kBinPack: the paper's modified MostRequestedPriority (§4.4.2): the
///    lowest-numbered node with the *least* free cores that still satisfies
///    the request — consolidates containers onto few nodes so idle nodes can
///    power off.
///  - kSpread: Kubernetes' default LeastRequestedPriority behaviour — the
///    node with the *most* free resources — which models the baseline RMs.
enum class NodeSelection { kBinPack, kSpread };

const char* to_string(NodeSelection s);

/// Shape of the machines making up a cluster.
struct ClusterSpec {
  std::uint32_t node_count = 5;
  double cores_per_node = 16.0;      ///< The paper's prototype: 80 cores total.
  double memory_per_node_mb = 192.0 * 1024.0;  ///< 192 GB per Table 1.
  NodePowerModel power;

  double total_cores() const { return node_count * cores_per_node; }
};

/// The compute substrate: a set of nodes with placement, power-down, and
/// integrated energy accounting. All mutations take `now` so the energy
/// integral stays exact between events.
class Cluster {
 public:
  explicit Cluster(const ClusterSpec& spec);

  const ClusterSpec& spec() const { return spec_; }
  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(NodeId id) const;

  /// Picks a node under `policy` and reserves `cpu`/`memory_mb` on it.
  /// Returns nullopt when no node fits (cluster saturated).
  std::optional<NodeId> allocate(double cpu, double memory_mb, NodeSelection policy,
                                 SimTime now);

  /// Releases a previous allocation.
  void release(NodeId id, double cpu, double memory_mb, SimTime now);

  /// Powers down nodes that have been empty past the power model's
  /// threshold. Returns how many were turned off. Drivers call this
  /// periodically (the paper turns off servers "after some duration of
  /// inactivity", §4.4.2).
  std::uint32_t power_down_idle_nodes(SimTime now);

  double allocated_cores() const;
  std::uint32_t powered_on_nodes() const;
  std::uint32_t total_containers() const;

  /// Instantaneous cluster power draw (W).
  double power_watts() const;

  /// Integrates energy up to `now`. Idempotent per timestamp; callers may
  /// invoke it freely before reading `energy_joules()`.
  void advance_energy(SimTime now);

  /// Total energy consumed since construction, through the last
  /// advance_energy() call.
  double energy_joules() const { return energy_joules_; }
  /// The instant energy is integrated up to.
  SimTime energy_watermark() const { return energy_watermark_; }

  /// Attaches a hot-path profiler: each `allocate` (the bin-pack / spread
  /// node scan, paper §4.4.2) is timed under the "cluster.allocate" scope.
  /// Null (the default) costs one predicted branch per call.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

 private:
  ClusterSpec spec_;
  std::vector<Node> nodes_;
  double energy_joules_ = 0.0;
  SimTime energy_watermark_ = 0.0;
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace fifer
