#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <span>
#include <stdexcept>

#include "common/rng.hpp"
#include "migrate/engine.hpp"
#include "mpi/job_registry.hpp"
#include "mpi/runtime.hpp"
#include "obs/report.hpp"
#include "probe.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

using cbmpi::mix64;
using cbmpi::Xoshiro256;
namespace mpi = cbmpi::mpi;
namespace sched = cbmpi::sched;

namespace {

// ---- payload stamps ------------------------------------------------------------
//
// Every payload carries its source rank and the sequence number of its
// (source -> destination) stream: the header word at offset 0, the header
// mixed with the offset every 4 KiB, and a size-dependent tail word. A
// receiver knows which (source, seq) it must get, so a payload is either the
// expected one, a genuine message of the same stream in the wrong buffer
// (misdelivered), or corrupt.

constexpr std::size_t kStampStride = 4096;

/// Never 0, so a buffer the runtime left untouched cannot pass as a stamp.
std::uint64_t header_of(int src, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(src + 1) << 56) | seq;
}

std::uint64_t word_at(std::uint64_t header, std::size_t off) {
  return off == 0 ? header : header ^ mix64(off);
}

std::uint64_t tail_of(std::uint64_t header, std::size_t size) {
  return mix64(header ^ (static_cast<std::uint64_t>(size) * 0x9e3779b97f4a7c15ULL));
}

/// Stride words must end before the tail word (when there is one).
std::size_t stamp_limit(std::size_t n) { return n >= 16 ? n - 8 : n; }

void stamp(std::span<std::byte> buf, int src, std::uint64_t seq) {
  const std::uint64_t header = header_of(src, seq);
  const std::size_t limit = stamp_limit(buf.size());
  for (std::size_t off = 0; off + 8 <= limit; off += kStampStride) {
    const std::uint64_t w = word_at(header, off);
    std::memcpy(buf.data() + off, &w, 8);
  }
  if (buf.size() >= 16) {
    const std::uint64_t t = tail_of(header, buf.size());
    std::memcpy(buf.data() + buf.size() - 8, &t, 8);
  }
}

enum class Verdict { Ok, Misdelivered, Corrupt };

Verdict verify(std::span<const std::byte> buf, int src, std::uint64_t seq) {
  if (buf.size() < 8) return Verdict::Corrupt;
  std::uint64_t found = 0;
  std::memcpy(&found, buf.data(), 8);
  if (found >> 56 != static_cast<std::uint64_t>(src + 1)) return Verdict::Corrupt;
  const std::size_t limit = stamp_limit(buf.size());
  for (std::size_t off = kStampStride; off + 8 <= limit; off += kStampStride) {
    std::uint64_t w = 0;
    std::memcpy(&w, buf.data() + off, 8);
    if (w != word_at(found, off)) return Verdict::Corrupt;
  }
  if (buf.size() >= 16) {
    std::uint64_t t = 0;
    std::memcpy(&t, buf.data() + buf.size() - 8, 8);
    if (t != tail_of(found, buf.size())) return Verdict::Corrupt;
  }
  return found == header_of(src, seq) ? Verdict::Ok : Verdict::Misdelivered;
}

/// One rank's view of its checks; merged into the job's tally at body end.
/// Under a fabric two-pass only the apply pass counts its successes (that
/// is the run whose results stand); a failure counts in either pass.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t misdelivered = 0;
  std::uint64_t windowed = 0;
  std::string fatal;
  bool counted = true;

  void record(Verdict v, bool windowed_msg, const char* what) {
    if (v == Verdict::Ok && !counted) return;
    ++ops;
    if (windowed_msg) ++windowed;
    if (v == Verdict::Ok) return;
    ++failed;
    if (v == Verdict::Misdelivered) {
      ++misdelivered;
    } else if (fatal.empty()) {
      fatal = std::string("corrupt payload: ") + what;
    }
  }
  void check(bool ok, const std::string& what) {
    if (ok && !counted) return;
    ++ops;
    if (ok) return;
    ++failed;
    if (fatal.empty()) fatal = what;
  }
};

/// Thread-safe sink for the rank tallies of one job.
class JobTally {
 public:
  void merge(const Tally& t) {
    const std::scoped_lock lock(mutex_);
    total_.ops += t.ops;
    total_.failed += t.failed;
    total_.misdelivered += t.misdelivered;
    total_.windowed += t.windowed;
    if (total_.fatal.empty()) total_.fatal = t.fatal;
  }
  void into(RepResult& rep) {
    const std::scoped_lock lock(mutex_);
    rep.ops += total_.ops;
    rep.failed += total_.failed;
    rep.misdelivered += total_.misdelivered;
    rep.windowed += total_.windowed;
    if (rep.fatal.empty()) rep.fatal = total_.fatal;
  }

 private:
  std::mutex mutex_;
  Tally total_;  // guarded by mutex_
};

// ---- layer bookkeeping ---------------------------------------------------------

void absorb(const JobTiming& t, Layers& l) {
  ++l.jobs;
  l.body_passes += static_cast<std::uint64_t>(t.passes);
  l.spawn_us += t.spawn_us;
  l.join_us += t.join_us;
  l.pass_gap_us += t.pass_gap_us;
  l.gaps += static_cast<std::uint64_t>(t.gaps);
}

void absorb(const mpi::JobResult& r, Layers& l) {
  using K = cbmpi::fabric::ChannelKind;
  const auto& p = r.profile.total;
  l.shm_ops += p.channel_ops(K::Shm);
  l.cma_ops += p.channel_ops(K::Cma);
  l.hca_ops += p.channel_ops(K::Hca);
  l.shm_bytes += static_cast<double>(p.channel_bytes(K::Shm));
  l.cma_bytes += static_cast<double>(p.channel_bytes(K::Cma));
  l.hca_bytes += static_cast<double>(p.channel_bytes(K::Hca));
  l.reg_hits += r.reg_cache.hits;
  l.reg_misses += r.reg_cache.misses;
  l.reg_evictions += r.reg_cache.evictions;
  l.congested_transfers += r.net.congested_transfers;
  l.peak_link_util = std::max(l.peak_link_util, r.net.max_peak_util);
  l.obs_spans += r.spans.size();
}

/// Times one run-report emission (only meaningful with observe on).
void time_report(const mpi::JobResult& r, const char* app, Layers& l) {
  cbmpi::obs::ReportContext ctx;
  ctx.app = app;
  const ScopedSpan span("obs.report");
  const std::int64_t t0 = wall_ns();
  const std::string doc = cbmpi::obs::run_report_json(ctx, r);
  l.report_us += static_cast<double>(wall_ns() - t0) * 1e-3;
  ++l.reports;
  if (doc.empty()) throw std::runtime_error("empty run report");
}

/// Runs one job through mpi::run_job under the probe.
mpi::JobResult run_probed(const mpi::JobConfig& config, const mpi::JobBody& body,
                          JobTiming& timing) {
  return probe_job(job_ranks(config), body,
                   [&](const mpi::JobBody& wrapped) { return mpi::run_job(config, wrapped); },
                   timing);
}

/// Both clocks at the start of a set-up probe.
struct SetupStart {
  std::int64_t cpu_ns = process_cpu_ns();
  std::int64_t wall_ns = perfbench::wall_ns();

  SetupTime until(std::int64_t cpu_end_ns, std::int64_t wall_end_ns) const {
    return {static_cast<double>(cpu_end_ns - cpu_ns) * 1e-9,
            static_cast<double>(wall_end_ns - wall_ns) * 1e-9};
  }
};

// ---- pt2pt_intra_host ------------------------------------------------------------
//
// 1 host, 2 containers x 2 ranks, container-aware locality. Rank r talks to
// r ^ 2, so both pairs cross the container boundary (SHM for eager sizes,
// CMA for rendezvous). Each pair ping-pongs over a size ladder from 8 B to
// 1 MiB and, once per job, runs an OSU-bw style window of 64 same-tag
// eager isends, then an 8-byte ack.
//
// In pt2pt_intra_host the sender follows its window with a note on another
// tag, and the receiver posts its 64 same-tag irecvs only once the note is
// in: every receive then matches a message already in the unexpected queue,
// in stream order. pt2pt_matcher_race pre-posts the irecvs instead, so they
// race the arrivals through progress_posted() (the known matcher defect):
// it misdelivers a load-dependent share of the window, so it is a probe for
// the defect and not a timed workload.

constexpr int kWindow = 64;
constexpr int kPingsPerSize = 16;
constexpr int kTagPing = 1, kTagWindow = 2, kTagAck = 3, kTagSent = 4;

struct Pt2PtPlan {
  std::vector<std::size_t> sizes[2];  ///< ping-pong sizes per pair, in order
  std::size_t window_at[2] = {0, 0};  ///< ping-pong index the window precedes
  std::size_t window_size = 0;
  std::size_t max_size = 0;
  std::uint64_t job_seed = 0;
  bool preposted = false;  ///< irecvs race the window's arrivals
};

Pt2PtPlan make_pt2pt_plan(std::uint64_t seed, bool preposted) {
  Xoshiro256 rng(mix64(seed ^ 0x7074327074ULL));
  Pt2PtPlan plan;
  plan.preposted = preposted;
  for (int pair = 0; pair < 2; ++pair) {
    for (int round = 0; round < kPingsPerSize; ++round)
      for (int lg = 3; lg <= 20; ++lg) {
        const std::size_t base = std::size_t{1} << lg;
        const std::size_t size = base + rng.below(base / 16 + 1);
        plan.sizes[pair].push_back(size);
        plan.max_size = std::max(plan.max_size, size);
      }
    plan.window_at[pair] = rng.below(plan.sizes[pair].size() + 1);
  }
  plan.window_size = 4096 + 8 * rng.below(64);
  plan.job_seed = mix64(seed ^ 0x6a6f62ULL);
  return plan;
}

mpi::JobConfig pt2pt_config(const Pt2PtPlan& plan, bool observe) {
  mpi::JobConfig config;
  config.deployment = cbmpi::container::DeploymentSpec::containers(1, 2, 4);
  config.policy = cbmpi::fabric::LocalityPolicy::ContainerAware;
  config.seed = plan.job_seed;
  config.observe = observe;
  return config;
}

void pt2pt_body(const Pt2PtPlan& plan, JobTally& out, mpi::Process& p) {
  auto& w = p.world();
  const int me = p.rank();
  const int peer = me ^ 2;
  const bool initiator = me < 2;
  const auto& sizes = plan.sizes[me & 1];
  std::vector<std::byte> sbuf(plan.max_size), rbuf(plan.max_size);
  std::vector<std::byte> wbuf(kWindow * plan.window_size);
  std::uint64_t send_seq = 0, recv_seq = 0;
  Tally t;

  const auto send = [&](std::span<std::byte> buf, int tag) {
    stamp(buf, me, send_seq++);
    const ScopedSpan span("mpi.send", buf.size());
    w.send(std::span<const std::byte>(buf), peer, tag);
  };
  const auto recv = [&](std::span<std::byte> buf, int tag) {
    mpi::Status st;
    {
      const ScopedSpan span("mpi.recv", buf.size(), buf.size());
      st = w.recv(buf, peer, tag);
    }
    const bool envelope_ok = st.source == peer && st.tag == tag && st.bytes == buf.size();
    t.record(envelope_ok ? verify(buf, peer, recv_seq) : Verdict::Corrupt, false,
             "ping-pong");
    ++recv_seq;
  };
  const auto window = [&] {
    const std::size_t ws = plan.window_size;
    std::vector<mpi::Request> reqs;
    reqs.reserve(kWindow);
    std::span<std::byte> note(sbuf.data(), 8);
    if (initiator) {
      for (int k = 0; k < kWindow; ++k) {
        auto buf = std::span<std::byte>(wbuf).subspan(static_cast<std::size_t>(k) * ws, ws);
        stamp(buf, me, send_seq++);
        const ScopedSpan span("mpi.isend", ws);
        reqs.push_back(w.isend(std::span<const std::byte>(buf), peer, kTagWindow));
      }
      if (!plan.preposted) send(note, kTagSent);
      {
        const ScopedSpan span("mpi.wait_all", ws);
        w.wait_all(reqs);
      }
      recv(std::span<std::byte>(rbuf.data(), 8), kTagAck);
    } else {
      // The window's messages come before the note in the stream.
      const std::uint64_t first = recv_seq;
      recv_seq += kWindow;
      if (!plan.preposted) recv(std::span<std::byte>(rbuf.data(), 8), kTagSent);
      for (int k = 0; k < kWindow; ++k) {
        auto buf = std::span<std::byte>(wbuf).subspan(static_cast<std::size_t>(k) * ws, ws);
        const ScopedSpan span("mpi.irecv", ws);
        reqs.push_back(w.irecv(buf, peer, kTagWindow));
      }
      {
        const ScopedSpan span("mpi.wait_all", ws, ws * kWindow);
        w.wait_all(reqs);
      }
      // MPI's non-overtaking rule: the k-th same-tag receive from one
      // source gets that source's k-th same-tag message.
      for (int k = 0; k < kWindow; ++k) {
        auto buf = std::span<const std::byte>(wbuf).subspan(static_cast<std::size_t>(k) * ws, ws);
        t.record(verify(buf, peer, first + static_cast<std::uint64_t>(k)), true, "window");
      }
      send(note, kTagAck);
    }
  };

  for (std::size_t i = 0; i <= sizes.size(); ++i) {
    if (i == plan.window_at[me & 1]) window();
    if (i == sizes.size()) break;
    std::span<std::byte> s(sbuf.data(), sizes[i]);
    std::span<std::byte> r(rbuf.data(), sizes[i]);
    if (initiator) {
      send(s, kTagPing);
      recv(r, kTagPing);
    } else {
      recv(r, kTagPing);
      send(s, kTagPing);
    }
  }
  out.merge(t);
}

class Pt2PtIntraHost final : public Workload {
 public:
  Pt2PtIntraHost(std::uint64_t seed, bool preposted)
      : seed_(seed), preposted_(preposted) {}

  SetupTime setup_once() override {
    const SetupStart start;
    plan_ = make_pt2pt_plan(seed_, preposted_);
    JobTiming timing;
    run_probed(pt2pt_config(plan_, false), [](mpi::Process&) {}, timing);
    return start.until(timing.all_inside_cpu_ns, timing.all_inside_ns);
  }

  RepResult rep(bool observe, Layers& layers) override {
    JobTally tally;
    JobTiming timing;
    const auto result = run_probed(
        pt2pt_config(plan_, observe),
        [&](mpi::Process& p) { pt2pt_body(plan_, tally, p); }, timing);
    RepResult rep;
    tally.into(rep);
    rep.virt_us = result.job_time;
    absorb(timing, layers);
    absorb(result, layers);
    if (observe) time_report(result, "pt2pt_intra_host", layers);
    return rep;
  }

 private:
  std::uint64_t seed_;
  bool preposted_;
  Pt2PtPlan plan_;
};

// ---- halo_fattree ----------------------------------------------------------------
//
// 4 hosts x 1 rank on a k=4 fat-tree with the pin-down cache on. Every
// iteration: a 2-neighbour ~64 KiB rendezvous halo (HCA), a compute phase,
// and an 8-byte allreduce whose result has a closed form. One repetition is
// one short job; every job of a run is identical.

constexpr int kHaloIters = 8;
constexpr int kTagFromLeft = 10, kTagFromRight = 11;

struct HaloPlan {
  std::size_t halo_size = 0;
  double compute_ops = 0.0;
  std::uint64_t job_seed = 0;
};

HaloPlan make_halo_plan(std::uint64_t seed) {
  Xoshiro256 rng(mix64(seed ^ 0x68616c6fULL));
  HaloPlan plan;
  plan.halo_size = 65536 + 64 * rng.below(16);
  plan.compute_ops = 2000.0 + static_cast<double>(rng.below(200));
  plan.job_seed = mix64(seed ^ 0x6a6f62ULL);
  return plan;
}

mpi::JobConfig halo_config(const HaloPlan& plan, bool observe) {
  mpi::JobConfig config;
  config.deployment = cbmpi::container::DeploymentSpec::containers(4, 1, 1);
  config.policy = cbmpi::fabric::LocalityPolicy::ContainerAware;
  config.fabric = cbmpi::net::FabricConfig::parse("fattree");
  config.tuning.reg_model = true;
  config.seed = plan.job_seed;
  config.observe = observe;
  return config;
}

void halo_body(const HaloPlan& plan, JobTally& out, mpi::Process& p) {
  auto& w = p.world();
  const int me = p.rank();
  const int n = p.size();
  const int left = (me + n - 1) % n;
  const int right = (me + 1) % n;
  const std::size_t hs = plan.halo_size;
  std::vector<std::byte> to_left(hs), to_right(hs), from_left(hs), from_right(hs);
  std::uint64_t seq = 0;  // both directions advance together
  Tally t;
  t.counted = !p.fabric_probe();

  for (int iter = 0; iter < kHaloIters; ++iter) {
    stamp(to_left, me, seq);
    stamp(to_right, me, seq);
    std::vector<mpi::Request> reqs;
    {
      const ScopedSpan span("mpi.irecv", hs);
      reqs.push_back(w.irecv(std::span<std::byte>(from_left), left, kTagFromLeft));
    }
    {
      const ScopedSpan span("mpi.irecv", hs);
      reqs.push_back(w.irecv(std::span<std::byte>(from_right), right, kTagFromRight));
    }
    {
      const ScopedSpan span("mpi.isend", hs);
      reqs.push_back(w.isend(std::span<const std::byte>(to_right), right, kTagFromLeft));
    }
    {
      const ScopedSpan span("mpi.isend", hs);
      reqs.push_back(w.isend(std::span<const std::byte>(to_left), left, kTagFromRight));
    }
    {
      const ScopedSpan span("mpi.wait_all", hs, 2 * hs);
      w.wait_all(reqs);
    }
    t.record(verify(from_left, left, seq), false, "halo from left");
    t.record(verify(from_right, right, seq), false, "halo from right");
    ++seq;

    p.compute(plan.compute_ops);

    const double mine = static_cast<double>((me + 1) * (iter + 1));
    double sum = 0.0;
    {
      const ScopedSpan span("mpi.allreduce", 8);
      w.allreduce(std::span<const double>(&mine, 1), std::span<double>(&sum, 1),
                  mpi::ReduceOp::Sum);
    }
    const double expect = static_cast<double>((iter + 1) * n * (n + 1) / 2);
    t.check(sum == expect, "allreduce sum " + std::to_string(sum) + " != " +
                               std::to_string(expect));
  }
  out.merge(t);
}

class HaloFattree final : public Workload {
 public:
  explicit HaloFattree(std::uint64_t seed) : seed_(seed) {}

  SetupTime setup_once() override {
    const SetupStart start;
    plan_ = make_halo_plan(seed_);
    JobTiming timing;
    run_probed(halo_config(plan_, false), [](mpi::Process&) {}, timing);
    return start.until(timing.all_inside_cpu_ns, timing.all_inside_ns);
  }

  RepResult rep(bool observe, Layers& layers) override {
    JobTally tally;
    JobTiming timing;
    const auto result = run_probed(
        halo_config(plan_, observe),
        [&](mpi::Process& p) { halo_body(plan_, tally, p); }, timing);
    RepResult rep;
    tally.into(rep);
    rep.virt_us = result.job_time;
    absorb(timing, layers);
    absorb(result, layers);
    if (observe) time_report(result, "halo_fattree", layers);
    return rep;
  }

 private:
  std::uint64_t seed_;
  HaloPlan plan_;
};

// ---- sched_churn -------------------------------------------------------------------
//
// sched::Scheduler on 4 hosts x 4 cores, Spread placement (fragments jobs
// across hosts on purpose), EASY backfill and the Defrag migration policy,
// draining a fixed mix of small recoverable jobs (ring / cg / bfs at 2, 3
// and 4 ranks). One repetition is one whole schedule.

constexpr int kChurnJobsPerKind = 40;  // x 3 bodies x 3 rank counts

std::vector<sched::JobSpec> make_churn_mix(std::uint64_t seed) {
  static const char* kBodies[] = {"ring", "cg", "bfs"};
  static const cbmpi::Bytes kSizes[] = {1024, 4096, 16384};
  Xoshiro256 rng(mix64(seed ^ 0x636875726eULL));
  std::vector<sched::JobSpec> mix;
  for (const char* body : kBodies)
    for (int ranks = 2; ranks <= 4; ++ranks)
      for (int k = 0; k < kChurnJobsPerKind; ++k) {
        sched::JobSpec job;
        job.body = body;
        job.ranks = ranks;
        job.ranks_per_container = 1;
        job.params.rounds = 4;
        job.params.message_size = kSizes[k % 3];
        mix.push_back(job);
      }
  // The seed shuffles the job order and the arrival gaps; the composition
  // and the multiset of gaps (5..24 us, cycled) stay fixed, so every seed
  // submits the same work over the same span of virtual time.
  std::vector<cbmpi::Micros> gaps;
  for (std::size_t i = 0; i < mix.size(); ++i)
    gaps.push_back(5.0 + static_cast<double>(i % 20));
  const auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  };
  shuffle(mix);
  shuffle(gaps);
  // The first job always has 4 ranks, so the set-up probe (which stops once
  // the first job is inside its body) spawns the same threads on every seed.
  std::iter_swap(mix.begin(), std::find_if(mix.begin(), mix.end(),
                                           [](const auto& j) { return j.ranks == 4; }));
  cbmpi::Micros t = 0.0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    mix[i].submit_time = t;
    t += gaps[i];
  }
  return mix;
}

sched::SchedulerConfig churn_config(std::uint64_t seed, bool observe) {
  sched::SchedulerConfig config;
  config.cluster_hosts = 4;
  config.host_shape = cbmpi::topo::HostShape{1, 4, true};
  config.policy = sched::PlacementPolicy::Spread;
  config.backfill = true;
  config.migrate_policy = cbmpi::migrate::MigrationPolicy::Defrag;
  config.seed = mix64(seed ^ 0x7363686564ULL);
  config.observe = observe;
  return config;
}

/// Thrown by the setup probe's runner once the first job is fully inside
/// its body, to stop the schedule there.
struct FirstJobInside {
  std::int64_t at_cpu_ns = 0;
  std::int64_t at_ns = 0;
};

class SchedChurn final : public Workload {
 public:
  explicit SchedChurn(std::uint64_t seed) : seed_(seed) {}

  SetupTime setup_once() override {
    const SetupStart start;
    mix_ = make_churn_mix(seed_);
    sched::Scheduler scheduler(churn_config(seed_, false));
    for (const auto& job : mix_) scheduler.submit(job);
    const auto first = [](int nranks, const std::function<mpi::JobResult(
                                          const mpi::JobBody&)>& launch) {
      JobTiming timing;
      probe_job(nranks, [](mpi::Process&) {}, launch, timing);
      throw FirstJobInside{timing.all_inside_cpu_ns, timing.all_inside_ns};
    };
    scheduler.set_runner([&](const mpi::JobConfig& c, const sched::JobSpec&) {
      first(job_ranks(c), [&](const mpi::JobBody& b) { return mpi::run_job(c, b); });
      return mpi::JobResult{};
    });
    scheduler.set_migrate_runner([&](const mpi::JobConfig& c, const sched::JobSpec&,
                                     const cbmpi::migrate::MigrationPlan& plan) {
      first(job_ranks(c), [&](const mpi::JobBody& b) {
        return cbmpi::migrate::Engine::run(c, b, plan);
      });
      return mpi::JobResult{};
    });
    try {
      scheduler.run();
    } catch (const FirstJobInside& inside) {
      return start.until(inside.at_cpu_ns, inside.at_ns);
    }
    throw std::runtime_error("sched_churn: schedule ended without running a job");
  }

  RepResult rep(bool observe, Layers& layers) override {
    sched::Scheduler scheduler(churn_config(seed_, observe));
    for (const auto& job : mix_) {
      check_rank_budget(job.ranks, "sched_churn job");
      scheduler.submit(job);
    }
    const auto& registry = mpi::JobBodyRegistry::instance();
    double seam_us = 0.0;
    const auto seam = [&](const char* name, const mpi::JobConfig& c,
                          const sched::JobSpec& job,
                          const std::function<mpi::JobResult(const mpi::JobBody&)>& launch,
                          bool migrating) {
      const ScopedSpan span(name);
      const std::int64_t t0 = wall_ns();
      JobTiming timing;
      auto result = probe_job(job_ranks(c), registry.make(job.body, job.params),
                              launch, timing);
      seam_us += static_cast<double>(wall_ns() - t0) * 1e-3;
      absorb(timing, layers);
      absorb(result, layers);
      if (migrating) {
        ++layers.migrate_runs;
        layers.migrate_segments += static_cast<std::uint64_t>(timing.passes);
      }
      return result;
    };
    scheduler.set_runner([&](const mpi::JobConfig& c, const sched::JobSpec& job) {
      return seam("sched.runner", c, job,
                  [&](const mpi::JobBody& b) { return mpi::run_job(c, b); }, false);
    });
    scheduler.set_migrate_runner([&](const mpi::JobConfig& c, const sched::JobSpec& job,
                                     const cbmpi::migrate::MigrationPlan& plan) {
      return seam("sched.migrate_runner", c, job,
                  [&](const mpi::JobBody& b) {
                    return cbmpi::migrate::Engine::run(c, b, plan);
                  },
                  true);
    });

    std::int64_t t0 = 0, t1 = 0;
    {
      const ScopedSpan span("sched.run");
      t0 = wall_ns();
      scheduler.run();
      t1 = wall_ns();
    }

    RepResult rep;
    const auto& done = scheduler.jobs();
    const auto& m = scheduler.metrics();
    std::uint64_t completed = 0;
    for (const auto& job : done) {
      const bool ok = job.outcome == sched::JobOutcome::Completed &&
                      job.result.job_time > 0.0 &&
                      job.result.rank_times.size() ==
                          static_cast<std::size_t>(job.spec.ranks);
      if (ok) {
        ++completed;
      } else if (rep.fatal.empty()) {
        rep.fatal = "scheduled job " + std::to_string(job.spec.id) + " did not complete";
      }
    }
    rep.ops = mix_.size();
    rep.failed = rep.ops - std::min<std::uint64_t>(completed, rep.ops);
    if (done.size() != mix_.size() && rep.fatal.empty())
      rep.fatal = "schedule finished " + std::to_string(done.size()) + " of " +
                  std::to_string(mix_.size()) + " jobs";
    rep.virt_us = m.makespan;

    ++layers.schedules;
    layers.sched_jobs += done.size();
    layers.sched_overhead_us += static_cast<double>(t1 - t0) * 1e-3 - seam_us;
    layers.queue_wait_us += m.mean_queue_wait;
    layers.migrations_executed += static_cast<std::uint64_t>(m.migrations_executed);
    layers.migrations_rejected += static_cast<std::uint64_t>(m.migrations_rejected);
    layers.migration_pause_us += m.migration_pause_us;
    if (observe && !done.empty()) time_report(done.front().result, "sched_churn", layers);
    return rep;
  }

 private:
  std::uint64_t seed_;
  std::vector<sched::JobSpec> mix_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "pt2pt_intra_host" || name == "pt2pt_matcher_race") {
    check_rank_budget(4, name);
    return std::make_unique<Pt2PtIntraHost>(seed, name == "pt2pt_matcher_race");
  }
  if (name == "halo_fattree") {
    check_rank_budget(4, name);
    return std::make_unique<HaloFattree>(seed);
  }
  if (name == "sched_churn") {
    check_rank_budget(4, name);
    return std::make_unique<SchedChurn>(seed);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
