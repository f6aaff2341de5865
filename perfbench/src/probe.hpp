// Outside-in measurement for the perfbench program: clocks, process resource
// usage, the in-memory span tracer, and the job probe that wraps every job
// body perfbench hands to the runtime.
//
// Nothing here reaches into the simulator. Every number comes from timing a
// call into a public function (mpi::run_job, Communicator, the scheduler's
// runner seams) or from reading a JobResult the runtime already returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "mpi/job_registry.hpp"
#include "mpi/runtime.hpp"

namespace perfbench {

namespace mpi = cbmpi::mpi;

// ---- clocks ------------------------------------------------------------------

std::int64_t wall_ns();          ///< steady clock
std::int64_t thread_cpu_ns();    ///< CLOCK_THREAD_CPUTIME_ID
std::int64_t process_cpu_ns();   ///< user+sys of every thread, exited ones too

/// getrusage(RUSAGE_SELF) fields perfbench reports.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long voluntary_ctxsw = 0;
  long involuntary_ctxsw = 0;
  long max_rss_kb = 0;

  static Usage now();
  Usage minus(const Usage& earlier) const;  ///< max_rss_kb is kept, not diffed
};

/// CPUs this process may run on (what `nproc` prints).
int available_cpus();

// ---- oversubscription guard --------------------------------------------------

/// The largest job perfbench will launch: every rank is an OS thread, and
/// more rank threads than CPUs turns CPU time into scheduler noise. Set once
/// from the command line before any job runs.
void set_rank_budget(int max_ranks);
/// Throws std::runtime_error when a job asks for more ranks than the budget.
void check_rank_budget(int nranks, const std::string& what);

/// Peak number of rank bodies running at once, over the whole process.
int threads_peak();

// ---- tracer ------------------------------------------------------------------

/// One timed call, recorded by perfbench around a call into a layer.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t job = 0;     ///< shared by every span of one job
  const char* name = "";     ///< static string
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;   ///< thread CPU inside the span
  std::uint64_t size = 0;    ///< message size class of the call (0 = none)
  std::uint64_t rx_bytes = 0;  ///< payload bytes this call received
};

/// Process-wide switch plus the span store. Spans are buffered per thread
/// and appended to the store when a rank body or perfbench flushes.
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled() { return on_.load(std::memory_order_relaxed); }
  /// Moves the calling thread's buffered spans into the store.
  static void flush_thread();
  /// Everything recorded so far (call after every job has ended).
  static std::vector<Span> take();

 private:
  static std::atomic<bool> on_;
};

/// Records one span from construction to destruction when tracing is on;
/// costs one relaxed load when it is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t size = 0,
                      std::uint64_t rx_bytes = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  /// Starts a new job id for this span and everything nested under it.
  void start_job();

 private:
  bool active_ = false;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_job_ = 0;
  Span span_;
};

/// Per-name totals for the self-time table (self = span minus the union of
/// its children's intervals).
struct SpanTotals {
  std::string name;
  std::uint64_t count = 0;
  double wall_ms = 0.0;
  double self_ms = 0.0;
  double cpu_ms = 0.0;
};
std::vector<SpanTotals> self_time_table(const std::vector<Span>& spans);

/// Writes the `limit` earliest spans as one JSON object per line (name, id,
/// parent, job, size; begin and end in ns from the first span; thread CPU
/// in ns). Returns how many were written.
std::size_t write_spans(const std::string& path, std::vector<Span> spans,
                        std::size_t limit);

// ---- job probe ---------------------------------------------------------------

/// What the probe saw of one job from outside: when rank bodies entered and
/// left, pass by pass (a fabric two-pass or a migration re-runs the body).
struct JobTiming {
  int passes = 0;            ///< body runs per rank
  double spawn_us = 0.0;     ///< job call -> last rank inside pass 1
  double join_us = 0.0;      ///< last rank out of the final pass -> return
  double pass_gap_us = 0.0;  ///< summed: last exit of pass k -> first entry of k+1
  int gaps = 0;
  std::int64_t all_inside_ns = 0;      ///< wall_ns() when pass 1 was fully entered
  std::int64_t all_inside_cpu_ns = 0;  ///< process_cpu_ns() at that point
};

/// Runs `launch` with `body` wrapped so that every rank's entry and exit is
/// timed, the in-body thread count is tracked, and (when tracing) each body
/// run becomes a span under a "job" span. `nranks` is checked against the
/// rank budget before anything starts.
mpi::JobResult probe_job(
    int nranks, const mpi::JobBody& body,
    const std::function<mpi::JobResult(const mpi::JobBody&)>& launch,
    JobTiming& timing);

/// Rank count of a job config (explicit placement or deployment spec).
int job_ranks(const mpi::JobConfig& config);

// ---- small statistics ------------------------------------------------------------

double median(std::vector<double> values);

}  // namespace perfbench
