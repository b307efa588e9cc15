#include "sim/simulator.hpp"

#include <limits>

namespace modcast::sim {

std::size_t Simulator::run(std::size_t max_events) {
  stopped_ = false;
  std::size_t executed = 0;
  while (executed < max_events && !stopped_ &&
         queue_.run_next(std::numeric_limits<util::TimePoint>::max(), &now_)) {
    ++executed;
  }
  return executed;
}

std::size_t Simulator::run_until(util::TimePoint deadline) {
  stopped_ = false;
  std::size_t executed = 0;
  while (!stopped_ && queue_.run_next(deadline, &now_)) ++executed;
  now_ = std::max(now_, deadline);
  return executed;
}

}  // namespace modcast::sim
