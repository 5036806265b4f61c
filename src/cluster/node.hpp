#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace fifer {

/// Power model of one server (paper §6.1.4: energy is measured per socket
/// with Intel Power Gadget; savings come from consolidating containers so
/// fully idle nodes can be switched off).
struct NodePowerModel {
  double base_watts = 100.0;        ///< Platform power when on (sockets idle).
  double per_core_active_watts = 6.25;  ///< Extra power per allocated core.
  /// Power of a node "turned off after some duration of inactivity"
  /// (§4.4.2). The paper's measurements have inactive nodes draw *idle*
  /// power (Intel Power Gadget reads live sockets), so the default models a
  /// deep-idle/suspend state rather than a hard 0 W cut.
  double off_watts = 60.0;
  /// How long a node must stay empty before it powers down.
  SimDuration power_down_after_ms = seconds(60.0);
};

/// One server in the cluster: a bundle of cores and memory hosting
/// containers. Dell R740-shaped by default (2 x 16 cores, 192 GB).
class Node {
 public:
  Node(NodeId id, double cores, double memory_mb);

  NodeId id() const { return id_; }
  double cores() const { return cores_; }
  double memory_mb() const { return memory_mb_; }

  double allocated_cores() const { return allocated_cores_; }
  double free_cores() const { return cores_ - allocated_cores_; }
  double free_memory_mb() const { return memory_mb_ - allocated_memory_mb_; }
  std::uint32_t container_count() const { return containers_; }

  bool fits(double cpu, double memory_mb) const {
    return free_cores() + 1e-9 >= cpu && free_memory_mb() + 1e-9 >= memory_mb;
  }

  /// Reserves resources for a container. Returns false if it does not fit.
  bool allocate(double cpu, double memory_mb, SimTime now);

  /// Releases a container's resources.
  void release(double cpu, double memory_mb, SimTime now);

  bool powered_on() const { return powered_on_; }

  /// Whether this node is empty and has been for long enough to power off
  /// under `model` as of time `now`.
  bool eligible_for_power_down(const NodePowerModel& model, SimTime now) const;

  /// Powers the node down (caller checks eligibility).
  void power_down(SimTime now);

  /// Instantaneous electrical power draw under `model`.
  double power_watts(const NodePowerModel& model) const;

  /// Time the node last transitioned to empty (kNeverTime if never empty).
  SimTime empty_since() const { return empty_since_; }

 private:
  NodeId id_;
  double cores_;
  double memory_mb_;
  double allocated_cores_ = 0.0;
  double allocated_memory_mb_ = 0.0;
  std::uint32_t containers_ = 0;
  bool powered_on_ = true;
  SimTime empty_since_ = 0.0;  ///< Nodes start on and empty at t=0.
};

}  // namespace fifer
