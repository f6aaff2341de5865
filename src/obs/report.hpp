// Run-report emitter: serializes one job's profile + metrics + span summary
// + fault report (+ optional scheduler ClusterMetrics) into a single
// versioned JSON document, and renders the Perfetto trace that pairs with
// it.
//
// Determinism: every section is emitted in a fixed order, metrics come from
// a name-sorted MetricsSnapshot, spans are sorted into canonical
// virtual-time order, and numbers use obs::format_double — so the same job
// config and seed produce byte-identical documents (the acceptance test for
// the whole observability layer). The JSON schema is documented in
// DESIGN.md §12 and validated in CI by tools/check_report.py.
#pragma once

#include <map>
#include <span>
#include <string>

#include "mpi/runtime.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"

namespace cbmpi::obs {

/// v2: adds the "recovery" section (checkpoints, restarts) to single
/// reports, the cluster "recovery" aggregates and per-job attempt/outcome
/// (+ crash attribution) rows to schedule reports.
/// v3: adds the "net" section (fabric model, per-link peak/mean utilization,
/// congested-transfer count, hop histogram) to single reports run under a
/// non-Ideal fabric; absent under FabricModel::Ideal.
/// v4: adds the "reg_cache" section (pin-down cache capacity, hit/miss/evict
/// counts, pinned-byte gauges) to single reports run with --reg-cache on;
/// absent when the registration model is off.
/// v5: adds p50/p95/p99 percentile fields to every metrics histogram, and —
/// only when the run was analyzed (--analyze) — the "analysis" section
/// (critical-path length, top-k segments, per-category blame, per-rank
/// wait-state table); schedule reports gain the same object per job row.
/// v6: adds the "migration" section. Single reports driven by
/// migrate::Engine get policy, proposal/execution counts, the cost gate's
/// prediction (pause + re-reg vs locality win) and one record per executed
/// move (quiesce round, drained messages, pause, pair locality delta,
/// invalidated pin-down entries); absent without a migration engine.
/// Schedule reports gain the same section whenever a migration policy is
/// on, aggregated across jobs plus per-job records.
inline constexpr int kRunReportVersion = 6;

/// What the emitter cannot read off a JobResult: how the job was launched.
struct ReportContext {
  std::string app;         ///< application / bench label
  std::string deployment;  ///< deployment label (hosts x containers x procs)
  std::string policy;      ///< locality policy name
  std::uint64_t seed = 0;

  /// Optional scheduler aggregates (multi-job runs); emitted as the
  /// "cluster" section when non-null.
  const sched::ClusterMetrics* cluster = nullptr;

  /// Critical-path analysis (--analyze); emitted as the "analysis" section
  /// when non-null.
  const analysis::Analysis* analysis = nullptr;

  /// Schedule mode with --analyze: per-job analyses keyed by job name.
  const std::map<std::string, analysis::Analysis>* job_analyses = nullptr;
};

/// The versioned single-job run report (schema "cbmpi.run_report").
std::string run_report_json(const ReportContext& ctx, const mpi::JobResult& result);

/// Multi-job (scheduler) run report: cluster metrics plus one row per
/// scheduled job. Same schema id, "mode":"schedule".
std::string schedule_report_json(const ReportContext& ctx,
                                 const sched::Scheduler& scheduler);

/// Perfetto / chrome://tracing document: spans become duration events
/// ("ph":"X") on one track per rank plus one per channel. Transfers carry
/// flow arrows ("ph":"s"/"f") from the sender's hand-off to the receiver's
/// Proto slice. With a non-null `analysis`, its segments are rendered on a
/// dedicated "critical path" track. `spans` may be in any order; they are
/// canonically sorted here.
std::string to_perfetto(std::span<const Span> spans,
                        const analysis::Analysis* analysis = nullptr);

/// Human-readable one-screen rendering of a metrics snapshot (cbmpirun
/// --metrics).
std::string metrics_summary(const MetricsSnapshot& snapshot);

/// Emits the ClusterMetrics object body (shared by both report flavors).
void write_cluster_metrics(JsonWriter& w, const sched::ClusterMetrics& metrics);

}  // namespace cbmpi::obs
