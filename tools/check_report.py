#!/usr/bin/env python3
"""Validates cbmpirun observability output, run by the CI `reports` job.

Checks a run report (--report) and/or a Perfetto trace (--trace-out).
This repo is the only producer, so there is one current report schema:
`version` must equal the emitter's kRunReportVersion (src/obs/report.hpp),
and every section check below runs whenever its section is present.

report:
  * schema/version header and the section keys DESIGN.md §12 promises
  * recovery section: checkpoint events monotone in virtual time and
    round; schedule reports carry cluster.recovery with non-negative
    counters, restarts <= crashes, requeues <= crashes, and per-job
    attempt/outcome/crash rows consistent with it
  * net section: utilizations in [0, 1] with mean <= peak, hop histogram
    sums to the transfer count, congested <= transfers
  * reg_cache section: pinned <= peak <= capacity, pinned <= registered,
    and the headline hit/miss/eviction counts agree with the
    hca.reg_cache.* metrics counters
  * analysis section (single and per schedule job): blame times
    non-negative and summing to the critical path, fractions in [0, 1],
    segments/top_segments inside [0, critical_path], wait-state and
    coll-group times non-negative
  * migration section: a known policy, executed moves a subset of
    accepted proposals, one record per executed move with a positive
    quiesce round, a non-negative pause consistent with the headline
    total, and non-negative locality/pin-down deltas
    (--expect-migration additionally requires the section to be present)
  * comm_fraction and every other fraction in [0, 1]
  * histogram bucket counts sum to the histogram's count, bucket upper
    bounds strictly ascending, sum consistent with the bucket ranges,
    and p50 <= p95 <= p99 with each a valid bucket upper bound
  * counter/profile consistency: per-channel op counters equal the
    profile's channel table (Table-I path), eager + rndv sends equal the
    channel-op total
  * spans.by_category counts sum to spans.count

trace (spans only; nothing emits instant events):
  * the document is a Chrome/Perfetto trace: {"traceEvents": [...]}
  * every event has ph in {X, M, s, f}, ts >= 0 and (for X) dur >= 0
  * X timestamps are monotone in file order per (pid, tid) track
  * duration events nest properly on every rank track (pid < 1000):
    a span that begins inside an open span must end within it
  * flow events ('s' -> 'f') pair up by id: every flow finish has a
    matching start and ids are not reused

Usage:
  tools/check_report.py --report report.json --trace trace.json

Exit status is the number of problems found; each problem is printed as
`file: message`.
"""

import argparse
import json
import os
import re
import sys

CHANNEL_PID_BASE = 1000
REPORT_HEADER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "src", "obs", "report.hpp")
REQUIRED_TOP_KEYS = ["schema", "version", "mode", "job", "result", "profile",
                     "metrics", "spans", "faults", "recovery"]
RECOVERY_COUNTERS = ["crashes", "requeues", "restarts_from_checkpoint",
                     "checkpoints", "jobs_failed", "blacklisted_hosts"]
JOB_OUTCOMES = ("completed", "crashed", "failed")
REQUIRED_PROFILE_KEYS = ["ranks", "comm_fraction", "comm_time_us",
                         "compute_time_us", "recovery_time_us", "calls",
                         "channels", "coll_algos"]

problems = []


def problem(path, message):
    problems.append(f"{path}: {message}")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        problem(path, f"cannot parse: {exc}")
        return None


def emitter_version():
    """The schema version the emitter writes: kRunReportVersion, read from
    the header so the two cannot drift apart."""
    with open(REPORT_HEADER, "r", encoding="utf-8") as f:
        match = re.search(r"kRunReportVersion\s*=\s*(\d+)\s*;", f.read())
    if match is None:
        sys.exit(f"{REPORT_HEADER}: kRunReportVersion not found")
    return int(match.group(1))


def check_fraction(path, name, value):
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        problem(path, f"{name} = {value!r} is not a fraction in [0, 1]")


def check_histogram(path, hist):
    name = hist.get("name", "?")
    count = hist.get("count", 0)
    buckets = hist.get("buckets", [])
    total = sum(b.get("count", 0) for b in buckets)
    if total != count:
        problem(path, f"histogram {name}: bucket counts sum to {total}, "
                      f"count says {count}")
    uppers = [b.get("le", 0) for b in buckets]
    if uppers != sorted(uppers) or len(set(uppers)) != len(uppers):
        problem(path, f"histogram {name}: bucket bounds not strictly ascending")
    # The sum must be achievable from the bucket ranges: every bucket's
    # values lie in (previous upper, upper].
    lo = 0
    max_sum = 0
    prev_upper = -1
    for b in buckets:
        upper = b.get("le", 0)
        n = b.get("count", 0)
        lo += n * max(prev_upper + 1, 0) if prev_upper >= 0 else 0
        max_sum += n * upper
        prev_upper = upper
    s = hist.get("sum", 0)
    if buckets and not lo <= s <= max_sum:
        problem(path, f"histogram {name}: sum {s} outside the bucket-implied "
                      f"range [{lo}, {max_sum}]")
    # Percentiles are derived from the buckets, so each must be one of the
    # bucket upper bounds and the sequence must be monotone in q.
    quants = [hist.get(q) for q in ("p50", "p95", "p99")]
    if any(q is None for q in quants):
        problem(path, f"histogram {name}: missing percentiles {quants}")
    elif not quants[0] <= quants[1] <= quants[2]:
        problem(path, f"histogram {name}: percentiles not monotone "
                      f"{quants}")
    elif buckets and any(q not in uppers for q in quants):
        problem(path, f"histogram {name}: percentile not a bucket upper "
                      f"bound ({quants} vs {uppers})")


def check_report(path):
    doc = load(path)
    if doc is None:
        return
    if doc.get("schema") != "cbmpi.run_report":
        problem(path, f"schema is {doc.get('schema')!r}, "
                      f"expected 'cbmpi.run_report'")
    expected = emitter_version()
    if doc.get("version") != expected:
        problem(path, f"version is {doc.get('version')!r}, expected "
                      f"{expected} (kRunReportVersion)")

    mode = doc.get("mode")
    if mode == "schedule":
        for key in ["schema", "version", "mode", "job", "cluster", "jobs"]:
            if key not in doc:
                problem(path, f"missing top-level key {key!r}")
        check_schedule(path, doc)
        return
    if mode != "single":
        problem(path, f"mode is {mode!r}, expected 'single' or 'schedule'")

    for key in REQUIRED_TOP_KEYS:
        if key not in doc:
            problem(path, f"missing top-level key {key!r}")

    profile = doc.get("profile", {})
    for key in REQUIRED_PROFILE_KEYS:
        if key not in profile:
            problem(path, f"profile missing key {key!r}")
    check_fraction(path, "profile.comm_fraction",
                   profile.get("comm_fraction", -1))

    result = doc.get("result", {})
    job_time = result.get("job_time_us", -1)
    if not isinstance(job_time, (int, float)) or job_time < 0:
        problem(path, f"result.job_time_us = {job_time!r} is not >= 0")
    rank_times = result.get("rank_times_us", [])
    if rank_times and abs(max(rank_times) - job_time) > 1e-6 * max(job_time, 1):
        problem(path, "result.job_time_us is not the max of rank_times_us")

    metrics = doc.get("metrics", {})
    for hist in metrics.get("histograms", []):
        check_histogram(path, hist)

    # Counter/profile consistency (Table-I path): the ADI3 hot-path counters
    # and the profile's channel table observe the same channel decisions.
    counters = {c.get("name"): c.get("value", 0)
                for c in metrics.get("counters", [])}
    channel_counter_total = sum(v for n, v in counters.items()
                                if n and n.startswith("channel."))
    profile_channel_total = sum(c.get("ops", 0)
                                for c in profile.get("channels", []))
    if counters and channel_counter_total != profile_channel_total:
        problem(path, f"channel.* counters sum to {channel_counter_total}, "
                      f"profile channels sum to {profile_channel_total}")
    if "adi3.eager_sends" in counters or "adi3.rndv_sends" in counters:
        sends = counters.get("adi3.eager_sends", 0) + \
            counters.get("adi3.rndv_sends", 0)
        if sends != profile_channel_total:
            problem(path, f"eager + rndv sends = {sends}, channel ops "
                          f"= {profile_channel_total}")

    spans = doc.get("spans", {})
    by_cat = sum(c.get("count", 0) for c in spans.get("by_category", []))
    if by_cat != spans.get("count", 0):
        problem(path, f"spans.by_category sums to {by_cat}, "
                      f"spans.count says {spans.get('count')}")

    if "recovery" in doc:
        check_recovery(path, doc["recovery"])
    if "net" in doc:
        check_net(path, doc["net"])
    if "reg_cache" in doc:
        check_reg_cache(path, doc["reg_cache"], counters)
    if "analysis" in doc:
        check_analysis(path, doc["analysis"], "analysis")
    if "migration" in doc:
        check_migration(path, doc["migration"])


BLAME_CATEGORIES = ["compute", "eager", "rndv", "registration", "contention",
                    "retry", "recovery", "mpi-other", "idle"]


def check_analysis(path, analysis, where):
    """Analysis section: the critical-path walk tiles [0, critical_path]
    exactly, so the blame table must sum to the path length; every fraction
    is in [0, 1]; every segment and wait-state time is a non-negative
    virtual-time interval inside the path."""
    cp = analysis.get("critical_path_us", -1)
    if not isinstance(cp, (int, float)) or cp < 0:
        problem(path, f"{where}.critical_path_us = {cp!r} is not >= 0")
        return
    eps = 1e-6 * max(cp, 1.0)
    if analysis.get("end_rank", -1) < 0:
        problem(path, f"{where}.end_rank = {analysis.get('end_rank')!r} "
                      f"is not a rank")
    blames = analysis.get("blame", [])
    if [b.get("category") for b in blames] != BLAME_CATEGORIES:
        problem(path, f"{where}.blame categories are not exactly "
                      f"{BLAME_CATEGORIES}")
    total = 0.0
    for b in blames:
        cat = b.get("category", "?")
        t = b.get("time_us", -1)
        if t < 0:
            problem(path, f"{where}.blame[{cat}].time_us = {t!r} is negative")
        total += max(t, 0)
        check_fraction(path, f"{where}.blame[{cat}].fraction",
                       b.get("fraction", -1))
    if blames and abs(total - cp) > eps:
        problem(path, f"{where}: blame sums to {total}, critical path "
                      f"is {cp} (segments must tile the path)")
    if analysis.get("segments", -1) < 0:
        problem(path, f"{where}.segments is negative")
    for i, seg in enumerate(analysis.get("top_segments", [])):
        b, e = seg.get("begin_us", -1), seg.get("end_us", -1)
        if not -eps <= b < e <= cp + eps:
            problem(path, f"{where}.top_segments[{i}]: [{b}, {e}] not a "
                          f"forward interval inside [0, {cp}]")
        if abs(seg.get("time_us", -1) - (e - b)) > eps:
            problem(path, f"{where}.top_segments[{i}]: time_us "
                          f"{seg.get('time_us')!r} != end - begin")
        if seg.get("category") not in BLAME_CATEGORIES:
            problem(path, f"{where}.top_segments[{i}]: unknown category "
                          f"{seg.get('category')!r}")
    for ws in analysis.get("wait_states", []):
        rank = ws.get("rank", "?")
        for key in ("late_sender_us", "late_receiver_us", "coll_imbalance_us",
                    "contention_us", "registration_us"):
            if ws.get(key, -1) < 0:
                problem(path, f"{where}.wait_states[rank {rank}].{key} "
                              f"is negative")
    for g in analysis.get("coll_groups", []):
        if g.get("calls", 0) < 1:
            problem(path, f"{where}.coll_groups[{g.get('name')!r}]: no calls")
        if g.get("imbalance_us", -1) < 0:
            problem(path, f"{where}.coll_groups[{g.get('name')!r}]: "
                          f"negative imbalance")


def check_net(path, net):
    """Net section: emitted only for non-Ideal fabric runs. Utilizations
    are fractions of link capacity, the hop histogram partitions the recorded
    transfers, and congested transfers are a subset of all transfers."""
    transfers = net.get("transfers", 0)
    congested = net.get("congested_transfers", 0)
    if congested < 0 or congested > transfers:
        problem(path, f"net: congested_transfers {congested} outside "
                      f"[0, transfers={transfers}]")
    if net.get("max_factor", 1.0) < 1.0:
        problem(path, f"net: max_factor {net.get('max_factor')!r} < 1")
    check_fraction(path, "net.max_peak_util", net.get("max_peak_util", -1))
    check_fraction(path, "net.mean_util", net.get("mean_util", -1))
    hops = net.get("hop_histogram", [])
    if sum(hops) != transfers:
        problem(path, f"net: hop_histogram sums to {sum(hops)}, "
                      f"transfers says {transfers}")
    if any(h < 0 for h in hops):
        problem(path, "net: negative hop_histogram bucket")
    for link in net.get("link_utils", []):
        lid = link.get("link", "?")
        check_fraction(path, f"net.link_utils[{lid}].peak",
                       link.get("peak", -1))
        check_fraction(path, f"net.link_utils[{lid}].mean",
                       link.get("mean", -1))
        if link.get("mean", 0) > link.get("peak", 0) + 1e-9:
            problem(path, f"net: link {lid} mean util exceeds peak")
    links = net.get("links", 0)
    if len(net.get("link_utils", [])) > links:
        problem(path, f"net: more link_utils rows than links={links}")


def check_reg_cache(path, reg, counters):
    """Reg_cache section: emitted only when the registration model is on.
    Byte gauges obey pinned <= peak <= capacity and pinned <= registered
    (entries still pinned at job end are a subset of everything ever
    registered), and the section's lookup counts must agree with the ADI3
    hot-path counters — both observe the same cache lookups."""
    for key in ("capacity_bytes", "hits", "misses", "evictions",
                "pinned_bytes", "peak_pinned_bytes", "registered_bytes"):
        if reg.get(key, -1) < 0:
            problem(path, f"reg_cache.{key} = {reg.get(key)!r} is not >= 0")
    pinned = reg.get("pinned_bytes", 0)
    peak = reg.get("peak_pinned_bytes", 0)
    if pinned > peak:
        problem(path, f"reg_cache: pinned_bytes {pinned} exceeds "
                      f"peak_pinned_bytes {peak}")
    if peak > reg.get("capacity_bytes", 0):
        problem(path, f"reg_cache: peak_pinned_bytes {peak} exceeds "
                      f"capacity_bytes {reg.get('capacity_bytes')}")
    if pinned > reg.get("registered_bytes", 0):
        problem(path, f"reg_cache: pinned_bytes {pinned} exceeds "
                      f"registered_bytes {reg.get('registered_bytes')}")
    if reg.get("misses", 0) == 0 and reg.get("registered_bytes", 0) > 0:
        problem(path, "reg_cache: registered bytes without a single miss")
    for key in ("hits", "misses", "evictions"):
        counter = f"hca.reg_cache.{key}"
        if counter in counters and counters[counter] != reg.get(key, 0):
            problem(path, f"reg_cache.{key} = {reg.get(key)!r} but counter "
                          f"{counter} says {counters[counter]}")


MIGRATION_POLICIES = ("off", "defrag", "evacuate", "colocate")


def check_migration(path, mig):
    """Migration section: counters form a funnel (executed moves are the
    accepted proposals that reached their epoch), one record per executed
    move, and each record describes a real container move — a positive
    quiesce round, resume at or after the quiesce, non-negative pause and
    pin-down invalidation, and a pause consistent with the headline total."""
    if mig.get("policy") not in MIGRATION_POLICIES:
        problem(path, f"migration.policy {mig.get('policy')!r} not in "
                      f"{MIGRATION_POLICIES}")
    proposed = mig.get("proposed", 0)
    rejected = mig.get("rejected", 0)
    executed = mig.get("executed", 0)
    for key in ("proposed", "rejected", "executed"):
        if mig.get(key, -1) < 0:
            problem(path, f"migration.{key} is negative")
    if rejected + executed > proposed:
        problem(path, f"migration: rejected {rejected} + executed {executed} "
                      f"exceed proposed {proposed}")
    records = mig.get("records", [])
    if len(records) != executed:
        problem(path, f"migration.executed = {executed} but {len(records)} "
                      f"records listed")
    for key in ("total_pause_us", "predicted_win_us", "predicted_cost_us"):
        if mig.get(key, -1) < 0:
            problem(path, f"migration.{key} is negative")
    pause_total = 0.0
    for i, rec in enumerate(records):
        move = rec.get("move", {})
        if not move.get("ranks"):
            problem(path, f"migration record {i}: empty rank set")
        if move.get("dst_phys_host", -1) < 0:
            problem(path, f"migration record {i}: no destination host")
        if rec.get("quiesce_round", -1) < 1:
            problem(path, f"migration record {i}: quiesce_round "
                          f"{rec.get('quiesce_round')!r} must be >= 1 (ranks "
                          f"drain at a completed round boundary)")
        if rec.get("resume_at_us", -1) < rec.get("quiesce_at_us", 0):
            problem(path, f"migration record {i}: resumed before the quiesce")
        for key in ("snapshot_bytes", "drained_msgs", "pause_us",
                    "pairs_to_local", "pairs_to_remote",
                    "invalidated_reg_entries", "invalidated_reg_bytes"):
            if rec.get(key, -1) < 0:
                problem(path, f"migration record {i}: negative {key}")
        pause_total += max(rec.get("pause_us", 0), 0)
    total = mig.get("total_pause_us", 0)
    if records and abs(pause_total - total) > 1e-6 * max(total, 1.0):
        problem(path, f"migration: record pauses sum to {pause_total}, "
                      f"total_pause_us says {total}")


def check_recovery(path, recovery):
    """Single-report recovery section: committed checkpoint events must be
    monotone in both round and virtual time, and the headline count must
    match the event list."""
    events = recovery.get("events", [])
    if recovery.get("checkpoints", -1) != len(events):
        problem(path, f"recovery.checkpoints = {recovery.get('checkpoints')!r}"
                      f" but {len(events)} events listed")
    prev_round, prev_at = -1, -1.0
    for i, ev in enumerate(events):
        rnd, at = ev.get("round", -1), ev.get("at_us", -1)
        if rnd <= prev_round:
            problem(path, f"recovery event {i}: round {rnd} not strictly "
                          f"after round {prev_round}")
        if at <= prev_at:
            problem(path, f"recovery event {i}: at_us {at} not strictly "
                          f"after {prev_at} (checkpoints must be monotone in "
                          f"virtual time)")
        if ev.get("bytes", -1) < 0:
            problem(path, f"recovery event {i}: negative bytes")
        prev_round, prev_at = rnd, at
    if not recovery.get("restored", False):
        if recovery.get("restore_round", 0) != 0:
            problem(path, "recovery.restore_round set without restored=true")


def check_schedule(path, doc):
    cluster = doc.get("cluster", {})
    check_fraction(path, "cluster.utilization", cluster.get("utilization", -1))
    if "migration" in doc:
        check_migration(path, doc["migration"])
    rec = cluster.get("recovery")
    if not isinstance(rec, dict):
        problem(path, "schedule report missing cluster.recovery")
        rec = {}
    for key in RECOVERY_COUNTERS:
        if rec.get(key, 0) < 0:
            problem(path, f"cluster.recovery.{key} is negative")
    if rec.get("restarts_from_checkpoint", 0) > rec.get("crashes", 0):
        problem(path, "cluster.recovery: more restarts than crashes")
    if rec.get("requeues", 0) > rec.get("crashes", 0):
        problem(path, "cluster.recovery: more requeues than crashes")
    crashed_rows = 0
    for job in doc.get("jobs", []):
        name = job.get("name", "?")
        if job.get("start_us", 0) < job.get("submit_us", 0):
            problem(path, f"job {name}: started before submission")
        if job.get("end_us", 0) < job.get("start_us", 0):
            problem(path, f"job {name}: ended before it started")
        check_fraction(path, f"job {name} intra_host_share",
                       job.get("intra_host_share", -1))
        if "analysis" in job:
            check_analysis(path, job["analysis"], f"job {name} analysis")
        if job.get("attempt", 0) < 0:
            problem(path, f"job {name}: negative attempt")
        outcome = job.get("outcome")
        if outcome not in JOB_OUTCOMES:
            problem(path, f"job {name}: outcome {outcome!r} not in "
                          f"{JOB_OUTCOMES}")
        crash = job.get("crash")
        if crash is not None:
            crashed_rows += 1
            if crash.get("rank", -1) < 0:
                problem(path, f"job {name}: crash row without a root-cause "
                              f"rank")
            if crash.get("at_us", -1) <= 0:
                problem(path, f"job {name}: crash at_us must be a positive "
                              f"virtual time")
    if crashed_rows > rec.get("crashes", 0):
        problem(path, f"{crashed_rows} crash rows but cluster.recovery "
                      f"counts only {rec.get('crashes', 0)} crashes")


def check_trace(path):
    doc = load(path)
    if doc is None:
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        problem(path, "missing traceEvents array")
        return

    last_ts = {}      # (pid, tid) -> last ts seen, file order
    open_spans = {}   # (pid, tid) -> stack of (ts, ts + dur, name)
    flow_starts = set()
    flow_finishes = set()
    saw_duration = False
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("X", "M", "s", "f"):
            problem(path, f"event {i}: unexpected ph {ph!r}")
            continue
        if ph == "M":
            continue
        ts = ev.get("ts", -1)
        if not isinstance(ts, (int, float)) or ts < 0:
            problem(path, f"event {i}: ts = {ts!r} is not >= 0")
            continue
        if ph in ("s", "f"):
            fid = ev.get("id")
            if fid is None:
                problem(path, f"event {i}: flow event without an id")
                continue
            if ph == "s":
                if fid in flow_starts:
                    problem(path, f"event {i}: flow id {fid!r} started twice")
                flow_starts.add(fid)
            else:
                if ev.get("bp") != "e":
                    problem(path, f"event {i}: flow finish without bp='e' "
                                  f"(must bind to the enclosing slice)")
                if fid in flow_finishes:
                    problem(path, f"event {i}: flow id {fid!r} finished twice")
                flow_finishes.add(fid)
            continue
        track = (ev.get("pid", 0), ev.get("tid", 0))
        if ts < last_ts.get(track, 0):
            problem(path, f"event {i}: ts {ts} goes backwards on track {track}")
        last_ts[track] = ts
        saw_duration = True
        dur = ev.get("dur", -1)
        if not isinstance(dur, (int, float)) or dur < 0:
            problem(path, f"event {i}: dur = {dur!r} is not >= 0")
            continue
        if ev.get("pid", 0) >= CHANNEL_PID_BASE:
            continue  # channel tracks interleave transfers; no nesting claim
        # ts and dur are formatted with ~10 significant digits, so two spans
        # sharing a boundary can disagree in the last digit.
        eps = 1e-6 * max(ts + dur, 1.0)
        stack = open_spans.setdefault(track, [])
        while stack and stack[-1][1] <= ts + eps:
            stack.pop()
        if stack and stack[-1][1] < ts + dur - eps:
            problem(path, f"event {i} ({ev.get('name')!r}): [{ts}, {ts + dur}] "
                          f"overlaps open span {stack[-1][2]!r} "
                          f"[{stack[-1][0]}, {stack[-1][1]}] on track {track}")
        stack.append((ts, ts + dur, ev.get("name")))
    if not saw_duration:
        problem(path, "no duration ('X') events found")
    unmatched = flow_finishes - flow_starts
    if unmatched:
        problem(path, f"{len(unmatched)} flow finishes with no matching "
                      f"start (e.g. id {sorted(unmatched)[0]!r})")
    dangling = flow_starts - flow_finishes
    if dangling:
        problem(path, f"{len(dangling)} flow starts never finished "
                      f"(e.g. id {sorted(dangling)[0]!r})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", help="run report JSON to validate")
    parser.add_argument("--trace", help="Perfetto trace JSON to validate")
    parser.add_argument("--expect-migration", action="store_true",
                        help="require the migration section in --report")
    args = parser.parse_args()
    if not args.report and not args.trace:
        parser.error("nothing to check: pass --report and/or --trace")
    if args.report:
        check_report(args.report)
        if args.expect_migration:
            doc = load(args.report)
            if doc is not None and "migration" not in doc:
                problem(args.report, "migration section expected but absent")
    if args.trace:
        check_trace(args.trace)
    for p in problems:
        print(p)
    if not problems:
        checked = [p for p in (args.report, args.trace) if p]
        print(f"ok: {', '.join(checked)}")
    return len(problems)


if __name__ == "__main__":
    sys.exit(main())
