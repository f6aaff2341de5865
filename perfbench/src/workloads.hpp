// The benchmark's workloads. Each one turns a seed into inputs, runs them
// through the simulator's public entry points in repetitions of identical
// work, and verifies every output it can see.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Per-layer figures summed over the repetitions of one phase. Everything
/// is read from outside: probe timings around calls, and JobResult /
/// ClusterMetrics fields the runtime already returns.
struct Layers {
  // Runtime, from the job probe.
  std::uint64_t jobs = 0;
  std::uint64_t body_passes = 0;  ///< body runs per rank, summed over jobs
  double spawn_us = 0.0;
  double join_us = 0.0;
  double pass_gap_us = 0.0;
  std::uint64_t gaps = 0;

  // Fabric / net / obs, from JobResult.
  std::uint64_t shm_ops = 0, cma_ops = 0, hca_ops = 0;
  double shm_bytes = 0.0, cma_bytes = 0.0, hca_bytes = 0.0;
  std::uint64_t reg_hits = 0, reg_misses = 0, reg_evictions = 0;
  std::uint64_t congested_transfers = 0;
  double peak_link_util = 0.0;
  std::uint64_t obs_spans = 0;
  double report_us = 0.0;
  std::uint64_t reports = 0;

  // Scheduler and migration, from ClusterMetrics and the runner seams.
  std::uint64_t schedules = 0;
  std::uint64_t sched_jobs = 0;
  double sched_overhead_us = 0.0;  ///< Scheduler::run wall minus runner seams
  double queue_wait_us = 0.0;      ///< mean queue wait, summed over schedules
  std::uint64_t migrations_executed = 0;
  std::uint64_t migrations_rejected = 0;
  double migration_pause_us = 0.0;
  std::uint64_t migrate_runs = 0;      ///< calls into the migrate runner seam
  std::uint64_t migrate_segments = 0;  ///< body passes inside those calls
};

/// Outcome of one repetition.
struct RepResult {
  std::uint64_t ops = 0;           ///< attempted operations
  std::uint64_t failed = 0;        ///< every failed check, misdelivery included
  std::uint64_t misdelivered = 0;  ///< genuine payload in the wrong posted buffer
  std::uint64_t windowed = 0;      ///< messages received through the window
  std::string fatal;               ///< first integrity failure (empty = none)
  double virt_us = 0.0;            ///< virtual makespan of the repetition
};

/// Time from a workload's start until every rank of its first job is
/// inside its body, on both clocks.
struct SetupTime {
  double cpu_s = 0.0;   ///< process CPU (user+sys, every thread)
  double wall_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed, launches the first job, and
  /// returns the time until every one of its ranks is inside its body.
  /// The inputs stay in place for rep().
  virtual SetupTime setup_once() = 0;
  /// One repetition of identical work (a job, or a whole schedule).
  virtual RepResult rep(bool observe, Layers& layers) = 0;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
