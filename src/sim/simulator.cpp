#include "sim/simulator.hpp"

namespace hawkeye::sim {

void Simulator::run_until(Time until) {
  while (calendar_.prepare_head() && calendar_.head().at <= until) {
    EventCalendar::Event ev = calendar_.pop_head();
    now_ = ev.at;
    ev.fn();
    ++executed_;
  }
}

}  // namespace hawkeye::sim
