#include "mpi/time_barrier.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "mpi/fiber.hpp"

namespace cbmpi::mpi {

TimeBarrier::TimeBarrier(int participants) : participants_(participants) {
  CBMPI_REQUIRE(participants > 0, "barrier needs at least one participant");
}

Micros TimeBarrier::arrive_and_wait(Micros my_time) {
  std::uint64_t my_generation = 0;
  {
    const std::scoped_lock lock(mutex_);
    if (aborted_)
      throw AbortedError("job aborted: phase barrier torn down by a failing rank");
    current_max_ = std::max(current_max_, my_time);
    if (++waiting_ == participants_) {
      published_max_ = current_max_;
      current_max_ = 0.0;
      waiting_ = 0;
      ++generation_;
      fiber::changed();
      return published_max_;
    }
    my_generation = generation_;
  }
  const std::function<std::string()> what = [this] {
    const std::scoped_lock lock(mutex_);
    return "the phase barrier (" + std::to_string(waiting_) + " of " +
           std::to_string(participants_) + " arrived)";
  };
  while (true) {
    fiber::wait(what);
    const std::scoped_lock lock(mutex_);
    if (generation_ != my_generation) return published_max_;
    if (aborted_)
      throw AbortedError("job aborted: phase barrier torn down by a failing rank");
  }
}

void TimeBarrier::abort_all() {
  {
    const std::scoped_lock lock(mutex_);
    aborted_ = true;
  }
  fiber::changed();
}

}  // namespace cbmpi::mpi
