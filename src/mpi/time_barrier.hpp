// Out-of-band virtual-time barrier.
//
// Used for job init/finalize and for bench phase alignment — NOT for
// MPI_Barrier (which is a real dissemination algorithm over the channels and
// pays their costs). Every participant yields its fiber until everyone
// arrived, and each receives the maximum virtual time, to which it then
// aligns its clock.
#pragma once

#include <cstdint>
#include <mutex>

#include "common/units.hpp"

namespace cbmpi::mpi {

class TimeBarrier {
 public:
  explicit TimeBarrier(int participants);

  /// Waits (fiber::wait) until all participants arrived; returns the max of
  /// their times. Throws AbortedError if abort_all() was (or is) called
  /// while waiting — a crashed participant can never arrive, so waiters
  /// must not hang.
  Micros arrive_and_wait(Micros my_time);

  /// Marks the barrier dead; every waiter, and every later arrival, throws
  /// AbortedError. Called by the runtime's failure path.
  void abort_all();

 private:
  std::mutex mutex_;
  int participants_;
  int waiting_ = 0;
  std::uint64_t generation_ = 0;
  Micros current_max_ = 0.0;
  Micros published_max_ = 0.0;
  bool aborted_ = false;
};

}  // namespace cbmpi::mpi
