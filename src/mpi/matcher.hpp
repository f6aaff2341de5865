// Per-rank matching engine: the posted-receive and unexpected-message queues.
//
// Follows the dual-queue model of MPICH's CH3 device. Both queues sit under
// one mutex, so every match decision is atomic:
//   * deliver() (the sending rank) binds an arriving envelope to the first
//     matching receive in post order, or queues it as unexpected;
//   * post() (the owning rank) binds a new receive to an unexpected envelope,
//     or appends it to the posted queue.
// Invariant: no unexpected envelope matches any posted receive. Matching
// preserves the MPI non-overtaking rule: envelopes from one sender are
// scanned in delivery order, which equals that sender's program order. A
// wildcard receive posted after several senders' messages arrived takes the
// candidate with the earliest virtual availability (ties broken by source
// rank, then sequence number) to keep simulations as deterministic as
// possible.
//
// The matcher only binds; completion (copy, virtual-time charge, rendezvous
// pull) is the owning rank's Adi3Engine's job. A blocked rank yields its
// fiber until its matcher's version() moves: deliveries, rendezvous
// completions reported by a peer and job aborts all bump it, and report the
// change to the fiber scheduler (fiber::changed()).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "fabric/message.hpp"
#include "mpi/types.hpp"

namespace cbmpi::mpi {

class Matcher {
 public:
  /// Called by the sending rank.
  void deliver(fabric::Envelope envelope);

  /// Called by the owning rank: binds `request` to a waiting unexpected
  /// envelope (RequestState::matched) or appends it to the posted queue.
  void post(const Request& request);

  /// Withdraws a still-posted receive; false if it was already matched.
  bool cancel(const Request& request);

  /// Non-destructive unexpected-queue lookup for MPI_Iprobe.
  std::optional<Status> peek(int src_world, int tag, std::uint64_t comm_id) const;

  /// Monotone counter bumped on every delivery and poke; a blocked rank
  /// re-checks its condition only after it moved.
  std::uint64_t version() const;

  /// Wakes the owner without delivering anything: a peer finished this
  /// rank's rendezvous send, or the job aborted.
  void poke();

  /// Depth of the unexpected queue.
  std::size_t pending() const;

 private:
  mutable std::mutex mutex_;
  std::deque<Request> posted_;
  std::deque<fabric::Envelope> unexpected_;
  std::uint64_t version_ = 0;
};

}  // namespace cbmpi::mpi
