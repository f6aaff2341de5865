// ADI3-like progress engine: byte-level point-to-point protocols.
//
// One engine per rank, driven by that rank's fiber. Matching lives in the
// rank's Matcher (posted and unexpected queues under one lock); the engine
// keeps only completion — payload copy, virtual-time charge, rendezvous pull
// and spans — of the receives the matcher bound, and implements the eager
// and rendezvous protocols over whichever channel the selector picked.
//
// Progress semantics mirror a single-threaded MPI library without an async
// progress thread: transfers advance only inside MPI calls. Any blocking
// call (and every test) completes *all* matched receives, in post order, not
// just the one being waited on — that is what lets a peer's blocking
// rendezvous send complete while this rank waits on an unrelated request,
// exactly like a real progress engine. A blocked rank yields its fiber
// until its own matcher's version moves; deliveries, a peer finishing its
// rendezvous send and job aborts all move it. An idle poll (a test on an
// incomplete request, an iprobe that finds nothing) yields too.
//
// Virtual-time rules:
//   * eager completion  = max(posted_at, available_at) + receiver_cost
//   * rendezvous times come from the channel's rndv_times(rts_sent, posted_at)
// Completion times depend only on post/send times (not on when the fiber
// happens to run), which keeps results reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mpi/fiber.hpp"
#include "mpi/job_state.hpp"
#include "mpi/types.hpp"
#include "osl/process.hpp"

namespace cbmpi::mpi {

class Adi3Engine {
 public:
  Adi3Engine(JobState& job, int world_rank, osl::SimProcess& proc);

  Adi3Engine(const Adi3Engine&) = delete;
  Adi3Engine& operator=(const Adi3Engine&) = delete;

  int world_rank() const { return rank_; }
  osl::SimProcess& process() { return *proc_; }
  sim::VirtualClock& clock() { return proc_->clock(); }
  JobState& job() { return *job_; }
  const JobState& job() const { return *job_; }
  prof::RankProfile& profile() { return job_->rank_profile(rank_); }

  /// Returns once `done()` is true. Until then the rank waits in
  /// fiber::wait(), and re-checks `done()` only after this rank's matcher
  /// version moved: deliveries, a peer finishing our rendezvous send and job
  /// aborts all bump it. `what()` names what the rank waits for, for the
  /// deadlock report. Throws AbortedError once another rank failed the job.
  template <typename Done, typename What>
  void block_until(Done done, What what) {
    std::uint64_t seen = matcher().version();
    check_abort();
    if (done()) return;
    const std::function<std::string()> waiting_for = what;
    while (true) {
      fiber::wait(waiting_for);
      const std::uint64_t now = matcher().version();
      if (now == seen) continue;
      seen = now;
      check_abort();
      if (done()) return;
    }
  }

  /// "rank 3, tag 7" or "any rank, any tag", for wait descriptions.
  static std::string describe_source(int src_world, int tag);

  /// Starts a send; the returned request is complete immediately for eager
  /// transfers and completes via the receiver for rendezvous ones. The data
  /// span must stay valid until the request completes.
  Request start_send(std::span<const std::byte> data, int dst_world, int tag,
                     std::uint64_t comm_id);

  /// Posts a receive with the matcher. The buffer must stay valid until
  /// completion; the receive completes in a later test/wait.
  Request post_recv(std::span<std::byte> buffer, int src_world, int tag,
                    std::uint64_t comm_id);

  /// Completes every receive in `recvs`, processing messages in *virtual*
  /// arrival order (available_at, src, seq) rather than wall-clock arrival
  /// order — the receiver busy chain then serializes identically
  /// run-to-run no matter how senders were scheduled. Blocks until
  /// all of them are matched, so every matching send must already be
  /// started and non-blocking (e.g. alltoall, where each rank posts all
  /// transfers before waiting), and no test/wait may run between posting
  /// them and this call. Wildcard receives are not supported here.
  void complete_in_arrival_order(std::span<const Request> recvs);

  /// Progress + completion check without yielding; what test() and
  /// wait_any() build on.
  bool poll(const Request& request);

  /// MPI_Test: poll(); an incomplete request also yields the fiber.
  bool test(const Request& request);

  /// Blocks until the request completes (MPI_Wait); returns its status.
  Status wait(const Request& request);

  void wait_all(std::span<const Request> requests);

  /// MPI_Cancel analogue for receive requests: withdraws a posted receive
  /// that has not completed. No-op if it already completed.
  void cancel(const Request& request);

  /// Progress + unexpected-queue lookup without yielding: is a matching
  /// message pending? (world-relative source)
  std::optional<Status> peek(int src_world, int tag, std::uint64_t comm_id);

  /// MPI_Iprobe: peek(); finding nothing also yields the fiber.
  std::optional<Status> iprobe(int src_world, int tag, std::uint64_t comm_id);

  /// Throws AbortedError once another rank failed the job.
  void check_abort() const;

  /// Crash injection: throws faults::CrashedError once this rank's virtual
  /// clock crosses its scheduled crash time (JobState::crash_at). Checked at
  /// op boundaries (send start, wait completion, compute, phase alignment),
  /// so detection follows the deterministic virtual clock, never wall time.
  /// No-op (one empty-vector test) when no crash faults are planned.
  void check_crash();

 private:
  Matcher& matcher() { return job_->matcher(rank_); }
  [[noreturn]] void raise_crash();
  /// Fault injection: charges the sender for transient HCA failures of this
  /// transfer — bounded retries with exponential backoff and deterministic
  /// jitter — and throws (per-rank abort, failing rank identified) once the
  /// retry budget is exhausted. No-op when no injector is attached.
  void charge_hca_retries(int dst_world, std::uint64_t seq, Bytes size);
  /// Completes every matched receive, in post order.
  void progress();
  void complete_recv(RequestState& request);
  void complete_eager(RequestState& request, fabric::Envelope& env);
  void complete_rendezvous(RequestState& request, fabric::Envelope& env);
  std::uint64_t queue_pair_key(int dst_world) const;
  /// Fills `ctx` and returns its address when this inter-host HCA transfer
  /// must be routed through the attached fabric; null otherwise (Ideal
  /// model, loopback, or co-located hosts).
  const net::TransferCtx* fabric_ctx(int src_rank, int dst_rank,
                                     std::uint64_t seq, bool loopback,
                                     net::TransferCtx& ctx) const;

  JobState* job_;
  int rank_;
  osl::SimProcess* proc_;

  /// Observability handles, resolved once at construction when the job has a
  /// metrics registry attached (all null otherwise, so the hot path is one
  /// pointer test). Values are virtual-time-deterministic, so concurrent
  /// atomic bumps still yield bit-identical snapshots.
  struct ObsHandles {
    obs::Counter* eager_sends = nullptr;
    obs::Counter* rndv_sends = nullptr;
    obs::Counter* channel_ops[fabric::kChannelKinds] = {};
    obs::Histogram* msg_size = nullptr;
    /// Post-to-completion time of each receive, in whole virtual
    /// microseconds. Derived from virtual timestamps only — never from queue
    /// occupancy, which depends on wall-clock drain order.
    obs::Histogram* recv_latency = nullptr;
    /// Pin-down cache outcomes (resolved only under TuningParams::reg_model,
    /// so reports without the model stay byte-identical).
    obs::Counter* reg_hits = nullptr;
    obs::Counter* reg_misses = nullptr;
    obs::Counter* reg_evictions = nullptr;
  };
  ObsHandles obs_;

  /// Stable per-rank buffer identity for the pin-down cache: ids are handed
  /// out in this rank's first-use order, a deterministic function of the
  /// rank's program — never of pointer values or thread scheduling.
  std::uint64_t reg_buffer_id(const void* base);
  std::map<const void*, std::uint64_t> reg_buffer_ids_;

  std::uint64_t next_seq_ = 0;
  /// Receives posted by this rank and not yet completed, in post order.
  std::vector<Request> posted_;
  /// Receiver-side copies/pulls serialize on this rank's CPU: the next
  /// incoming payload cannot start processing before the previous one
  /// finished. This is what bounds windowed bandwidth to the per-message
  /// receive cost (instead of letting a window of receives complete in
  /// parallel virtual time).
  Micros recv_busy_until_ = 0.0;
};

}  // namespace cbmpi::mpi
