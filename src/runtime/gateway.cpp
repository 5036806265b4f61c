#include "runtime/gateway.hpp"

#include "common/rng.hpp"
#include "core/request_path.hpp"

namespace fifer {

std::vector<Arrival> materialize_arrival_plan(const ExperimentParams& params) {
  Rng rng(params.seed);
  return draw_arrival_plan(params, rng);
}

}  // namespace fifer
