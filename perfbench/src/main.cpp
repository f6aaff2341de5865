// perfbench: the simulator's two-clock benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload untraced for half the time and traced (perfbench spans +
// JobConfig::observe) for the other half, then prints the per-layer
// metrics, a self-time table and the tracing overhead. The last line of
// standard output is always the one JSON result object. See README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kMinSetupProbes = 41;
constexpr int kMinReps = 3;
/// Caps the span file (~120 bytes a span); the tables use every span.
constexpr std::size_t kMaxWrittenSpans = 200'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument("need --workload, --seed, --seconds and --trace");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0))
    throw std::invalid_argument("--seconds must be in (0, 120]");
  return a;
}

/// Everything one measured phase produced.
struct Phase {
  std::vector<double> cpu_us_per_op;   ///< per repetition
  std::vector<double> wall_us_per_op;  ///< per repetition
  std::vector<double> virt_us;         ///< per repetition
  std::uint64_t ops = 0, failed = 0, misdelivered = 0, windowed = 0;
  std::string fatal;
  Usage usage;
  Layers layers;
};

/// Repeats the workload for `seconds`. With `setups` non-null, a set-up
/// probe runs before every repetition (outside its CPU window), so set-up
/// time is sampled across the whole run rather than only at its start.
Phase run_phase(Workload& workload, double seconds, bool traced,
                std::vector<SetupTime>* setups = nullptr) {
  Tracer::enable(traced);
  Phase ph;
  const Usage u0 = Usage::now();  // includes the probes, when there are any
  const std::int64_t start = wall_ns();
  const auto limit = static_cast<std::int64_t>(seconds * 1e9);
  while (ph.virt_us.size() < static_cast<std::size_t>(kMinReps) ||
         wall_ns() - start < limit) {
    if (setups != nullptr) setups->push_back(workload.setup_once());
    const std::int64_t c0 = process_cpu_ns();
    const std::int64_t w0 = wall_ns();
    const RepResult r = workload.rep(traced, ph.layers);
    const std::int64_t w1 = wall_ns();
    const std::int64_t c1 = process_cpu_ns();
    const double ops = static_cast<double>(std::max<std::uint64_t>(r.ops, 1));
    ph.cpu_us_per_op.push_back(static_cast<double>(c1 - c0) * 1e-3 / ops);
    ph.wall_us_per_op.push_back(static_cast<double>(w1 - w0) * 1e-3 / ops);
    ph.virt_us.push_back(r.virt_us);
    ph.ops += r.ops;
    ph.failed += r.failed;
    ph.misdelivered += r.misdelivered;
    ph.windowed += r.windowed;
    if (ph.fatal.empty()) ph.fatal = r.fatal;
  }
  ph.usage = Usage::now().minus(u0);
  Tracer::enable(false);
  return ph;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

/// (max - min) / median over the repetitions' virtual makespans.
double spread_frac(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return ratio(*hi - *lo, median(v));
}

/// One metric line of the result object, printed with full precision.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_phase_summary(const std::string& label, const Phase& ph) {
  std::cout << label << ": reps=" << ph.virt_us.size() << " ops=" << ph.ops
            << " failed=" << ph.failed << " cpu_us_per_op(median)="
            << number(median(ph.cpu_us_per_op)) << " wall_us_per_op(median, not gated)="
            << number(median(ph.wall_us_per_op)) << " cpu_q1/q3=" << number(quantile(ph.cpu_us_per_op, 0.25))
            << "/" << number(quantile(ph.cpu_us_per_op, 0.75)) << " user_s=" << number(ph.usage.user_s)
            << " sys_s=" << number(ph.usage.sys_s) << " ctxsw="
            << ph.usage.voluntary_ctxsw + ph.usage.involuntary_ctxsw << "\n";
  if (ph.windowed > 0)
    std::cout << label << ": misdelivered " << ph.misdelivered << " of " << ph.windowed
              << " windowed messages (" << number(100.0 * ratio(static_cast<double>(ph.misdelivered), static_cast<double>(ph.windowed)))
              << "%), counted as failed ops\n";
  std::cout << label << ": virt_makespan_us identical across reps: "
            << (spread_frac(ph.virt_us) == 0.0 ? "yes" : "no")
            << " (spread " << number(spread_frac(ph.virt_us)) << ")\n";
  if (!ph.fatal.empty()) std::cout << label << ": FAILED CHECK: " << ph.fatal << "\n";
}

int run_untraced(Workload& workload, const Args& args) {
  std::vector<SetupTime> setups;
  const Phase ph = run_phase(workload, args.seconds, false, &setups);
  while (setups.size() < static_cast<std::size_t>(kMinSetupProbes))
    setups.push_back(workload.setup_once());
  std::vector<double> setup_cpu, setup_wall;
  for (const auto& t : setups) {
    setup_cpu.push_back(t.cpu_s);
    setup_wall.push_back(t.wall_s);
  }
  std::cout << "setup: probes=" << setups.size() << " cpu_s(median)=" << number(median(setup_cpu))
            << " cpu_q1/q3=" << number(quantile(setup_cpu, 0.25)) << "/"
            << number(quantile(setup_cpu, 0.75))
            << " wall_s(median, not gated)=" << number(median(setup_wall)) << "\n";
  print_phase_summary("untraced", ph);
  const double ops = static_cast<double>(ph.ops);
  print_result(ph.fatal.empty() && ph.ops > 0, ph.ops, ph.failed,
               {
                   {"cpu_us_per_op", median(ph.cpu_us_per_op), "us"},
                   {"setup_s", median(setup_cpu), "s"},
                   {"peak_rss_mb", static_cast<double>(Usage::now().max_rss_kb) / 1024.0, "MB"},
                   {"virt_makespan_us", median(ph.virt_us), "us"},
                   {"ok_ops_frac", ratio(ops - static_cast<double>(ph.failed), ops), "frac"},
               });
  return 0;
}

bool is_pt2pt(const std::string& name) {
  return name == "mpi.send" || name == "mpi.recv" || name == "mpi.isend" ||
         name == "mpi.irecv" || name == "mpi.wait_all";
}

int run_traced(Workload& workload, const Args& args) {
  workload.setup_once();
  const Phase base = run_phase(workload, args.seconds / 2.0, false);
  const Phase ph = run_phase(workload, args.seconds / 2.0, true);
  const std::vector<Span> spans = Tracer::take();
  print_phase_summary("untraced", base);
  print_phase_summary("traced", ph);

  // Layer figures from perfbench's own spans around each call.
  double p2p_calls = 0, p2p_cpu = 0, p2p_wall = 0, coll_calls = 0, coll_cpu = 0,
         coll_wall = 0, bulk_cpu_ns = 0, bulk_bytes = 0;
  for (const auto& s : spans) {
    const std::string name = s.name;
    const double wall = static_cast<double>(s.end_ns - s.begin_ns);
    const double cpu = static_cast<double>(s.cpu_ns);
    if (is_pt2pt(name)) {
      ++p2p_calls;
      p2p_cpu += cpu;
      p2p_wall += wall;
      if (s.size >= 65536) {
        bulk_cpu_ns += cpu;
        bulk_bytes += static_cast<double>(s.rx_bytes);
      }
    } else if (name == "mpi.allreduce") {
      ++coll_calls;
      coll_cpu += cpu;
      coll_wall += wall;
    }
  }

  const auto table = self_time_table(spans);
  std::cout << "self-time table (traced phase, " << spans.size() << " spans):\n";
  std::printf("  %-22s %10s %12s %12s %12s\n", "span", "count", "wall_ms", "self_ms", "cpu_ms");
  for (const auto& t : table)
    std::printf("  %-22s %10llu %12.3f %12.3f %12.3f\n", t.name.c_str(),
                static_cast<unsigned long long>(t.count), t.wall_ms, t.self_ms, t.cpu_ms);
  std::fflush(stdout);
  if (!args.spans_path.empty()) {
    const std::size_t written = write_spans(args.spans_path, spans, kMaxWrittenSpans);
    std::cout << written << " earliest of " << spans.size() << " spans written to "
              << args.spans_path << "\n";
  }

  const Layers& l = ph.layers;
  const double ops = static_cast<double>(ph.ops);
  const double jobs = static_cast<double>(l.jobs);
  const double schedules = static_cast<double>(l.schedules);
  const double cpu_base = median(base.cpu_us_per_op);
  const double cpu_traced = median(ph.cpu_us_per_op);
  const double overhead = ratio(cpu_traced, cpu_base) - 1.0;
  std::cout << "tracing overhead: cpu_us_per_op " << number(cpu_base) << " untraced vs "
            << number(cpu_traced) << " traced (" << number(100.0 * overhead) << "%)\n";
  const double all_ops = static_cast<double>(base.ops + ph.ops);
  std::vector<double> all_virt = base.virt_us;
  all_virt.insert(all_virt.end(), ph.virt_us.begin(), ph.virt_us.end());
  const double base_cpu_s = base.usage.user_s + base.usage.sys_s;

  const std::vector<Metric> metrics = {
      {"mpi.pt2pt.calls", ratio(p2p_calls, ops), "count/op"},
      {"mpi.pt2pt.busy_us", ratio(p2p_cpu * 1e-3, ops), "us/op"},
      {"mpi.pt2pt.wait_us", ratio((p2p_wall - p2p_cpu) * 1e-3, ops), "us/op"},
      {"mpi.pt2pt.misdelivered_frac",
       ratio(static_cast<double>(base.misdelivered + ph.misdelivered), all_ops), "frac"},
      {"mpi.coll.calls", ratio(coll_calls, ops), "count/op"},
      {"mpi.coll.busy_us", ratio(coll_cpu * 1e-3, ops), "us/op"},
      {"mpi.coll.wait_us", ratio((coll_wall - coll_cpu) * 1e-3, ops), "us/op"},
      {"mpi.runtime.jobs", jobs, "count"},
      {"mpi.runtime.body_runs_per_job", ratio(static_cast<double>(l.body_passes), jobs),
       "count/job"},
      {"mpi.runtime.spawn_us", ratio(l.spawn_us, jobs), "us"},
      {"mpi.runtime.join_us", ratio(l.join_us, jobs), "us"},
      {"mpi.runtime.pass_gap_us", ratio(l.pass_gap_us, static_cast<double>(l.gaps)), "us"},
      {"mpi.runtime.ctxsw_per_op",
       ratio(static_cast<double>(base.usage.voluntary_ctxsw + base.usage.involuntary_ctxsw),
             static_cast<double>(base.ops)),
       "count/op"},
      {"mpi.runtime.sys_cpu_frac", ratio(base.usage.sys_s, base_cpu_s), "frac"},
      {"mpi.runtime.threads_peak", static_cast<double>(threads_peak()), "count"},
      {"mpi.runtime.virt_spread_frac", spread_frac(all_virt), "frac"},
      {"fabric.shm_ops", ratio(static_cast<double>(l.shm_ops), ops), "count/op"},
      {"fabric.shm_bytes", ratio(l.shm_bytes, ops), "B/op"},
      {"fabric.cma_ops", ratio(static_cast<double>(l.cma_ops), ops), "count/op"},
      {"fabric.cma_bytes", ratio(l.cma_bytes, ops), "B/op"},
      {"fabric.hca_ops", ratio(static_cast<double>(l.hca_ops), ops), "count/op"},
      {"fabric.hca_bytes", ratio(l.hca_bytes, ops), "B/op"},
      {"fabric.reg_hit_frac",
       ratio(static_cast<double>(l.reg_hits), static_cast<double>(l.reg_hits + l.reg_misses)),
       "frac"},
      {"fabric.reg_evictions", ratio(static_cast<double>(l.reg_evictions), jobs), "count/job"},
      {"osl.cpu_ns_per_byte", ratio(bulk_cpu_ns, bulk_bytes), "ns/B"},
      {"net.congested_transfers", ratio(static_cast<double>(l.congested_transfers), jobs),
       "count/job"},
      {"net.peak_link_util", l.peak_link_util, "frac"},
      {"sched.jobs", ratio(static_cast<double>(l.sched_jobs), schedules), "count"},
      {"sched.overhead_us_per_job",
       ratio(l.sched_overhead_us, static_cast<double>(l.sched_jobs)), "us"},
      {"sched.queue_wait_us", ratio(l.queue_wait_us, schedules), "us"},
      {"migrate.executed", ratio(static_cast<double>(l.migrations_executed), schedules),
       "count"},
      {"migrate.rejected", ratio(static_cast<double>(l.migrations_rejected), schedules),
       "count"},
      {"migrate.pause_us",
       ratio(l.migration_pause_us, static_cast<double>(l.migrations_executed)), "us"},
      {"migrate.segments_per_move",
       ratio(static_cast<double>(l.migrate_segments), static_cast<double>(l.migrate_runs)),
       "count"},
      {"obs.trace_overhead_frac", overhead, "frac"},
      {"obs.spans_per_op", ratio(static_cast<double>(l.obs_spans), ops), "count/op"},
      {"obs.report_us", ratio(l.report_us, static_cast<double>(l.reports)), "us"},
  };
  const bool correct = base.fatal.empty() && ph.fatal.empty() && ph.ops > 0;
  print_result(correct, ph.ops, ph.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    set_rank_budget(available_cpus());
    const auto workload = make_workload(args.workload, args.seed);
    return args.trace ? run_traced(*workload, args) : run_untraced(*workload, args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
