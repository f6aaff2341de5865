#include "probe.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

// ---- clocks ------------------------------------------------------------------

namespace {
std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

std::int64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = seconds_of(ru.ru_utime);
  u.sys_s = seconds_of(ru.ru_stime);
  u.voluntary_ctxsw = ru.ru_nvcsw;
  u.involuntary_ctxsw = ru.ru_nivcsw;
  u.max_rss_kb = ru.ru_maxrss;
  return u;
}

Usage Usage::minus(const Usage& earlier) const {
  Usage d = *this;
  d.user_s -= earlier.user_s;
  d.sys_s -= earlier.sys_s;
  d.voluntary_ctxsw -= earlier.voluntary_ctxsw;
  d.involuntary_ctxsw -= earlier.involuntary_ctxsw;
  return d;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ---- oversubscription guard --------------------------------------------------

namespace {
std::atomic<int> g_rank_budget{1};
std::atomic<int> g_inside{0};
std::atomic<int> g_inside_peak{0};
}  // namespace

void set_rank_budget(int max_ranks) { g_rank_budget.store(std::max(1, max_ranks)); }

void check_rank_budget(int nranks, const std::string& what) {
  const int budget = g_rank_budget.load();
  if (nranks > budget)
    throw std::runtime_error(what + " needs " + std::to_string(nranks) +
                             " rank threads but only " + std::to_string(budget) +
                             " CPUs are available; refusing to oversubscribe");
}

int threads_peak() { return g_inside_peak.load(); }

// ---- tracer ------------------------------------------------------------------

std::atomic<bool> Tracer::on_{false};

namespace {
std::atomic<std::uint64_t> g_next_span{1};
std::mutex g_store_mutex;
std::vector<Span> g_store;  // guarded by g_store_mutex

struct ThreadSpans {
  std::vector<Span> spans;
  std::uint64_t parent = 0;
  std::uint64_t job = 0;
  ~ThreadSpans() { flush(); }
  void flush() {
    if (spans.empty()) return;
    const std::scoped_lock lock(g_store_mutex);
    g_store.insert(g_store.end(), spans.begin(), spans.end());
    spans.clear();
  }
};
thread_local ThreadSpans t_spans;
}  // namespace

void Tracer::enable(bool on) { on_.store(on); }
void Tracer::flush_thread() { t_spans.flush(); }

std::vector<Span> Tracer::take() {
  flush_thread();
  const std::scoped_lock lock(g_store_mutex);
  return std::exchange(g_store, {});
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t size, std::uint64_t rx_bytes) {
  if (!Tracer::enabled()) return;
  active_ = true;
  span_.id = g_next_span.fetch_add(1);
  span_.parent = t_spans.parent;
  span_.job = t_spans.job;
  span_.name = name;
  span_.size = size;
  span_.rx_bytes = rx_bytes;
  saved_parent_ = t_spans.parent;
  saved_job_ = t_spans.job;
  t_spans.parent = span_.id;
  span_.cpu_ns = thread_cpu_ns();
  span_.begin_ns = wall_ns();
}

void ScopedSpan::start_job() {
  if (!active_) return;
  span_.job = span_.id;
  t_spans.job = span_.id;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = wall_ns();
  span_.cpu_ns = thread_cpu_ns() - span_.cpu_ns;
  t_spans.parent = saved_parent_;
  t_spans.job = saved_job_;
  t_spans.spans.push_back(span_);
}

std::vector<SpanTotals> self_time_table(const std::vector<Span>& spans) {
  // Children may run on other threads (rank bodies under a job span) and
  // overlap each other, so self time subtracts the union of their intervals.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.begin_ns, s.end_ns);

  std::map<std::string, SpanTotals> totals;
  for (const auto& s : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0, hi = -1;
      for (auto [b, e] : iv) {
        b = std::max(b, s.begin_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) continue;
        if (b > hi) {
          if (hi > lo) covered += hi - lo;
          lo = b;
          hi = e;
        } else {
          hi = std::max(hi, e);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    auto& t = totals[s.name];
    t.name = s.name;
    ++t.count;
    const auto dur = s.end_ns - s.begin_ns;
    t.wall_ms += static_cast<double>(dur) * 1e-6;
    t.self_ms += static_cast<double>(dur - covered) * 1e-6;
    t.cpu_ms += static_cast<double>(s.cpu_ns) * 1e-6;
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : totals) out.push_back(t);
  std::sort(out.begin(), out.end(),
            [](const SpanTotals& a, const SpanTotals& b) { return a.self_ms > b.self_ms; });
  return out;
}

std::size_t write_spans(const std::string& path, std::vector<Span> spans,
                        std::size_t limit) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.begin_ns < b.begin_ns; });
  spans.resize(std::min(limit, spans.size()));
  const std::int64_t epoch = spans.empty() ? 0 : spans.front().begin_ns;
  for (const auto& s : spans)
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"job\":" << s.job
        << ",\"begin_ns\":" << s.begin_ns - epoch
        << ",\"end_ns\":" << s.end_ns - epoch << ",\"cpu_ns\":" << s.cpu_ns
        << ",\"size\":" << s.size << "}\n";
  return spans.size();
}

// ---- job probe ---------------------------------------------------------------

namespace {
struct BodyRun {
  int rank = 0;
  std::int64_t enter_ns = 0;
  std::int64_t enter_cpu_ns = 0;  ///< process CPU at entry
  std::int64_t exit_ns = 0;
};

/// Records one body run; exit is stamped on unwind too (a migration ends
/// its first segment by throwing through the body).
class InsideBody {
 public:
  InsideBody(std::mutex& mutex, std::vector<BodyRun>& runs, int rank)
      : mutex_(mutex), runs_(runs), run_{rank, wall_ns(), process_cpu_ns(), 0} {
    const int now = g_inside.fetch_add(1) + 1;
    int peak = g_inside_peak.load();
    while (now > peak && !g_inside_peak.compare_exchange_weak(peak, now)) {
    }
  }
  ~InsideBody() {
    run_.exit_ns = wall_ns();
    g_inside.fetch_sub(1);
    const std::scoped_lock lock(mutex_);
    runs_.push_back(run_);
  }
  InsideBody(const InsideBody&) = delete;
  InsideBody& operator=(const InsideBody&) = delete;

 private:
  std::mutex& mutex_;
  std::vector<BodyRun>& runs_;
  BodyRun run_;
};

JobTiming summarize(std::vector<BodyRun> runs, std::int64_t t0, std::int64_t t1) {
  JobTiming timing;
  std::sort(runs.begin(), runs.end(), [](const BodyRun& a, const BodyRun& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.enter_ns < b.enter_ns;
  });
  // pass[k] = (latest entry, earliest entry, latest exit) over ranks' k-th run.
  struct Pass {
    std::int64_t last_enter = 0;
    std::int64_t last_enter_cpu = 0;
    std::int64_t first_enter = INT64_MAX;
    std::int64_t last_exit = 0;
  };
  std::vector<Pass> passes;
  for (std::size_t i = 0; i < runs.size();) {
    std::size_t k = 0;
    const int rank = runs[i].rank;
    for (; i < runs.size() && runs[i].rank == rank; ++i, ++k) {
      if (passes.size() <= k) passes.emplace_back();
      auto& p = passes[k];
      p.last_enter = std::max(p.last_enter, runs[i].enter_ns);
      p.last_enter_cpu = std::max(p.last_enter_cpu, runs[i].enter_cpu_ns);
      p.first_enter = std::min(p.first_enter, runs[i].enter_ns);
      p.last_exit = std::max(p.last_exit, runs[i].exit_ns);
    }
  }
  timing.passes = static_cast<int>(passes.size());
  if (passes.empty()) return timing;
  timing.all_inside_ns = passes.front().last_enter;
  timing.all_inside_cpu_ns = passes.front().last_enter_cpu;
  timing.spawn_us = static_cast<double>(passes.front().last_enter - t0) * 1e-3;
  timing.join_us = static_cast<double>(t1 - passes.back().last_exit) * 1e-3;
  for (std::size_t k = 1; k < passes.size(); ++k) {
    timing.pass_gap_us +=
        static_cast<double>(passes[k].first_enter - passes[k - 1].last_exit) * 1e-3;
    ++timing.gaps;
  }
  return timing;
}
}  // namespace

int job_ranks(const mpi::JobConfig& config) {
  return config.placement ? config.placement->total_ranks()
                          : config.deployment.total_ranks();
}

mpi::JobResult probe_job(
    int nranks, const mpi::JobBody& body,
    const std::function<mpi::JobResult(const mpi::JobBody&)>& launch,
    JobTiming& timing) {
  check_rank_budget(nranks, "job");
  std::mutex mutex;
  std::vector<BodyRun> runs;  // guarded by mutex
  ScopedSpan job_span("job");
  job_span.start_job();
  const std::uint64_t parent = job_span.id();
  const mpi::JobBody wrapped = [&, parent](mpi::Process& p) {
    const InsideBody inside(mutex, runs, p.rank());
    t_spans.parent = parent;
    t_spans.job = parent;
    {
      const ScopedSpan span("body");
      body(p);
    }
    Tracer::flush_thread();
  };
  const std::int64_t t0 = wall_ns();
  mpi::JobResult result = launch(wrapped);
  const std::int64_t t1 = wall_ns();
  const std::scoped_lock lock(mutex);
  timing = summarize(std::move(runs), t0, t1);
  return result;
}

// ---- small statistics ------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
