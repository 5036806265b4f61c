#pragma once

#include <vector>

#include "workload/arrival.hpp"

namespace fifer {

struct ExperimentParams;

/// The arrival plan a run with these params replays: draw_arrival_plan on a
/// fresh seed stream, the split the simulator and the live runtime take
/// right after their offline start, so any process — notably the load
/// generator on the other end of a socket — can materialize the
/// byte-identical request sequence from the params alone. A scaler whose
/// offline start draws from the seed stream (SBatch's static pools) moves
/// the run's split, so such a run does not replay this plan.
std::vector<Arrival> materialize_arrival_plan(const ExperimentParams& params);

}  // namespace fifer
