#pragma once

#include <vector>

#include "workload/arrival.hpp"

namespace fifer {

struct ExperimentParams;

/// The arrival plan a run with these params replays: draw_arrival_plan on
/// the split of a fresh seed stream, the one the simulator and the live
/// runtime take before anything else draws from it, so any process —
/// notably the load generator on the other end of a socket — can
/// materialize the byte-identical request sequence from the params alone.
std::vector<Arrival> materialize_arrival_plan(const ExperimentParams& params);

}  // namespace fifer
