"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qft_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (and writes a Chrome trace file under
``.perfbench/``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds provenance and the per-circuit rows.  The exit code is 0
only when every output passed the checks.  Metric definitions are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
#: Share of a traced run spent untraced, as the baseline of the overhead.
TRACE_BASELINE_SHARE = 0.3
READY = "PERFBENCH-READY"
RECOVERY_COUNTERS = ("retries", "respawns", "lost_tasks", "executor_downgrades",
                     "transport_downgrades", "reconnects", "host_downgrades")
FRONT_STAGES = ("clean", "unroll", "reclean", "coupling", "coverage", "analyze")
ROW_FIELDS = ("circuit", "topology", "method", "seed", "depth", "pulses", "swaps",
              "mirrors", "candidates", "accept_share", "sabre_depth", "digest", "error")


def _prepare_environment() -> None:
    """Import ``repro`` from this checkout and keep every file inside it."""
    for name in [name for name in os.environ if name.startswith("MIRAGE_")]:
        del os.environ[name]  # measure the library's defaults
    os.environ["MIRAGE_CACHE_DIR"] = str(STATE_DIR / "cache")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    parser.add_argument("--probe-setup", action="store_true",
                        help="set up, print the ready marker, tear down")
    return parser.parse_args(argv)


# -- provenance and resources --------------------------------------------------


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "hostname_hash": hashlib.sha256(socket.gethostname().encode()).hexdigest()[:12],
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(worker_pids) -> float:
    """Peak resident memory of this process plus its live workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_hwm_mb(pid) for pid in worker_pids)


def measure_setup(workload: str, seed: int, tiny: bool) -> list[float]:
    """Seconds from spawning a fresh interpreter to the workload being ready."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--probe-setup"] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # Its own session, so a failed probe can take its workers down with it.
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                 start_new_session=True)
        try:
            ready = None
            for line in child.stdout:
                if line.strip() == READY:
                    ready = time.perf_counter() - start
                    break
            child.stdout.read()
            code = child.wait(timeout=120)
        finally:
            if child.poll() is None:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(child.pid, signal.SIGKILL)
                child.wait()
            child.stdout.close()
        if ready is None or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(ready)
    return times


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The library's shared-memory transport starts the tracker the first
    time it creates a segment.  Left alone it outlives the workers and
    only exits after this process does, so a run would end with a
    process of its own still running.
    """
    from multiprocessing import resource_tracker

    with contextlib.suppress(Exception):
        resource_tracker._resource_tracker._stop()


# -- checks --------------------------------------------------------------------


def check_passes(records, reference_problems) -> tuple[int, list[str]]:
    """Failed operations across the passes, and what went wrong."""
    problems = list(reference_problems)
    failed = len(reference_problems)
    first = records[0].rows
    for k, record in enumerate(records):
        for row, base in zip(record.rows, first):
            reasons = []
            if row.get("error"):
                reasons.append(row["error"])
            reasons.extend(row["violations"])
            if row["digest"] != base["digest"]:
                reasons.append(f"digest {row['digest']} != first pass {base['digest']}")
            if reasons:
                failed += 1
                problems.append(f"pass {k} {row['circuit']} {row['topology']} "
                                f"{row['method']}: " + "; ".join(reasons))
    return failed, problems


# -- metrics -------------------------------------------------------------------


def percentile(values, q: int) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(records, setup_times, rss_mb, attempted, failed) -> dict:
    # Percentiles of each pass, then their median: a pass is a fixed mix of
    # calls, so one slow spell of the host moves one pass, not the pool.
    passes = [record.latencies for record in records if record.latencies] or [[]]
    rows = [row for row in records[0].rows if not row.get("error")]
    mirage = [row for row in rows if row["method"] == "mirage"]
    sabre = {row["key"]: row["depth"] for row in rows if row["method"] == "sabre"}
    ratios = [row["depth"] / base for row in mirage
              if (base := sabre.get(row["key"], row.get("sabre_depth")))]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(record.wall for record in records), "s"),
        "latency_p50_s": (statistics.median(percentile(v, 50) for v in passes), "s"),
        "latency_p90_s": (statistics.median(percentile(v, 90) for v in passes), "s"),
        "depth_total": (sum(row["depth"] for row in mirage), "pulses"),
        "pulses_total": (sum(row["pulses"] for row in mirage), "pulses"),
        "swaps_total": (sum(row["swaps"] for row in mirage), "count"),
        "depth_ratio_vs_sabre": (statistics.geometric_mean(ratios) if ratios else 0.0,
                                 "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_share": (1.0 - failed / attempted, "share"),
    }


def _pipeline(rows) -> dict:
    totals = dict.fromkeys(("front", "consolidate", "vf2", "route", "select"), 0.0)
    for row in rows:
        stages = row["stages"]
        totals["front"] += sum(stages.get(name, 0.0) for name in FRONT_STAGES)
        totals["consolidate"] += stages.get("consolidate", 0.0)
        totals["vf2"] += stages.get("vf2", 0.0)
        # Batch fan-out reports trial work (on the workers) in trial_seconds
        # next to a "plan" stage; in-line routing counts it in "route".
        totals["route"] += stages.get("plan", 0.0) + stages.get("route", 0.0)
        if "plan" in stages:
            totals["route"] += row["trial_seconds"]
        totals["select"] += stages.get("select", 0.0)
    return totals


class PhaseStats:
    """What the recorder and the library's counters saw during one phase."""

    def __init__(self, before: dict, after: dict, passes: int) -> None:
        self.passes = passes
        self._after, self._before = after, before

    def _delta(self, group: str, key: str, index: int | None = None) -> float:
        after = self._after[group].get(key, 0)
        before = self._before[group].get(key, 0)
        if index is not None:
            after = after[index] if after else 0
            before = before[index] if before else 0
        return after - before

    def calls(self, name: str) -> int:
        return self._delta("totals", name, 0)

    def seconds(self, name: str) -> float:
        return self._delta("totals", name, 1) / 1e9

    def self_seconds(self, name: str) -> float:
        return self._delta("totals", name, 2) / 1e9

    def counter(self, group: str, name: str) -> float:
        return self._delta(group, name)


def snapshot(recorder, instrumentation, workload) -> dict:
    from repro.polytopes.cache import GLOBAL_COORDINATE_CACHE

    return {
        "totals": {name: list(total) for name, total in recorder.totals.items()},
        "counters": dict(recorder.counters),
        "gates": {"distinct": len(instrumentation.distinct_gates)},
        "cache": GLOBAL_COORDINATE_CACHE.info(),
        "registry": workload.registry_stats(),
        "service": workload.service_counts(),
    }


def per_layer(workload, traced, untraced, spans: PhaseStats, counts: PhaseStats,
              coverage_times: dict) -> dict:
    """Per-layer metrics, per pass.

    ``spans`` covers the phase whose in-process spans describe the route
    layers (the traced passes, or the serial reference pass of
    ``suite_batch``); ``counts`` covers the traced passes.
    """
    med = statistics.median
    n = spans.passes
    values = {}
    pipelines = [_pipeline(record.rows) for record in traced]
    for stage in ("front", "consolidate", "vf2", "route", "select"):
        values[f"pipeline.{stage}_s"] = (med(p[stage] for p in pipelines), "s")

    mirage_rows = [row for row in traced[0].rows
                   if row["method"] == "mirage" and not row.get("error")]
    candidates = sum(row["candidates"] for row in mirage_rows)
    accepted = sum(row["mirrors"] for row in mirage_rows)
    calls = spans.calls("weyl.gate_coordinate") / n
    distinct = spans.counter("gates", "distinct") / n
    hits, misses = spans.counter("cache", "hits"), spans.counter("cache", "misses")
    values.update({
        "kernel.route_kernel_s": (spans.self_seconds("kernel.route_kernel") / n, "s"),
        "kernel.route_kernel_calls": (spans.calls("kernel.route_kernel") / n, "count"),
        "kernel.choose_swap_s": (spans.seconds("kernel.choose_swap") / n, "s"),
        "kernel.choose_swap_calls": (spans.calls("kernel.choose_swap") / n, "count"),
        "kernel.extended_set_s": (spans.seconds("kernel.extended_ids") / n, "s"),
        "kernel.lookahead_s": (spans.self_seconds("kernel.lookahead_pairs") / n, "s"),
        "kernel.swaps": (spans.counter("counters", "kernel.swaps") / n, "count"),
        "mirage.commit_s": (spans.self_seconds("mirage.commit") / n, "s"),
        "mirage.candidates": (candidates, "count"),
        "mirage.accepted": (accepted, "count"),
        "mirage.accept_share": (accepted / candidates if candidates else 0.0, "share"),
        "weyl.gate_coordinate_calls": (calls, "count"),
        "weyl.gate_coordinate_s": (spans.seconds("weyl.gate_coordinate") / n, "s"),
        "weyl.distinct_gates": (distinct, "count"),
        "weyl.unique_share": (distinct / calls if calls else 0.0, "share"),
        "weyl.coordinate_cache_hit_share": (
            hits / (hits + misses) if hits + misses else 0.0, "share"),
        "coverage.cost_of_many_calls": (spans.calls("coverage.cost_of_many") / n, "count"),
        "coverage.cost_of_many_s": (spans.seconds("coverage.cost_of_many") / n, "s"),
        "coverage.registry_hits": (counts.counter("registry", "hits") / counts.passes,
                                   "count"),
        "coverage.registry_misses": (
            counts.counter("registry", "misses") / counts.passes, "count"),
        "coverage.load_s": (coverage_times["load"], "s"),
        "coverage.build_s": (coverage_times["build"], "s"),
    })

    def dispatch(key):
        return med(record.dispatch.get(key, 0) for record in traced)

    busy = [sum(row["trial_seconds"] for row in record.rows) for record in traced]
    values.update({
        "dispatch.chunks": (dispatch("chunks"), "count"),
        "dispatch.tasks": (dispatch("tasks"), "count"),
        "dispatch.plan_tasks": (dispatch("plan_tasks"), "count"),
        "dispatch.bytes_shipped": (dispatch("bytes_shipped"), "bytes"),
        "dispatch.plan_return_bytes": (dispatch("plan_return_bytes"), "bytes"),
        "dispatch.plan_s": (dispatch("plan_seconds"), "s"),
        "dispatch.overlap_s": (dispatch("overlap_seconds"), "s"),
        "dispatch.worker_busy_s": (med(busy), "s"),
        "dispatch.worker_busy_share": (
            med(b / (record.wall * workload.workers) for b, record in zip(busy, traced)),
            "share"),
        "dispatch.recoveries": (
            sum(record.dispatch.get(key, 0) for record in traced
                for key in RECOVERY_COUNTERS), "count"),
    })

    waits = [latency - row["runtime_seconds"] for record in traced
             for latency, row in zip(record.latencies, record.rows)
             if not row.get("error")] if not workload.closed_loop else []
    windows = counts.counter("service", "windows")
    requests = counts.counter("service", "requests")
    values.update({
        "service.windows": (windows / counts.passes, "count"),
        "service.requests_per_window": (requests / windows if windows else 0.0, "count"),
        "service.queue_wait_p50_s": (percentile(waits, 50), "s"),
        "service.queue_wait_p90_s": (percentile(waits, 90), "s"),
        "service.shed": (counts.counter("service", "shed"), "count"),
        "service.deadline_expirations": (
            counts.counter("service", "deadline_expirations"), "count"),
        "service.breaker_trips": (counts.counter("service", "breaker_trips"), "count"),
        "loadgen.late_max_s": (
            max((v for record in traced for v in record.late), default=0.0), "s"),
        "trace.overhead_s": (
            med(r.wall for r in traced) - med(r.wall for r in untraced), "s"),
    })
    return values


# -- the run -------------------------------------------------------------------


def coverage_times() -> dict:
    """Warm disk-cache load, and a cold build in a fresh cache directory."""
    from repro.polytopes import CoverageRegistry
    from perfbench.workloads import BASIS

    loads = []
    for _ in range(5):
        start = time.perf_counter()
        CoverageRegistry().get(BASIS)
        loads.append(time.perf_counter() - start)
    load = statistics.median(loads)
    cold_dir = STATE_DIR / f"cold-{os.getpid()}"
    shutil.rmtree(cold_dir, ignore_errors=True)
    warm_dir = os.environ["MIRAGE_CACHE_DIR"]
    os.environ["MIRAGE_CACHE_DIR"] = str(cold_dir)
    try:
        start = time.perf_counter()
        CoverageRegistry().get(BASIS)
        build = time.perf_counter() - start
    finally:
        os.environ["MIRAGE_CACHE_DIR"] = warm_dir
        shutil.rmtree(cold_dir, ignore_errors=True)
    return {"load": load, "build": build}


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (details, result line)."""
    from perfbench.spans import Instrumentation, Recorder
    from perfbench.workloads import BASIS, WORKLOADS
    from repro.polytopes import get_coverage_set

    get_coverage_set(BASIS)  # fills the disk cache on a first run
    details = {"workload": args.workload, "trace": args.trace,
               "provenance": provenance(args.seed)}
    if args.trace:
        load_build = coverage_times()
    else:
        setup_times = measure_setup(args.workload, args.seed, args.tiny)

    recorder = Recorder()
    instrumentation = Instrumentation(recorder)
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        workload.open()
        if args.trace:
            instrumentation.install()
            start = snapshot(recorder, instrumentation, workload)
            recorder.enabled = workload.span_phase == "reference"
        reference = workload.reference(recorder if args.trace else None)
        recorder.enabled = False
        if args.trace:
            after_reference = snapshot(recorder, instrumentation, workload)
            untraced = workload.passes(args.seconds * TRACE_BASELINE_SHARE)
            before = snapshot(recorder, instrumentation, workload)
            recorder.enabled = True
            records = workload.passes(args.seconds * (1 - TRACE_BASELINE_SHARE), recorder)
            recorder.enabled = False
            after = snapshot(recorder, instrumentation, workload)
        else:
            records = workload.passes(args.seconds)
        checked, reference_problems = workload.reference_failures(
            reference, records[0].rows)
        rss = peak_rss_mb(workload.worker_pids())
    finally:
        instrumentation.uninstall()
        workload.close()

    failed, problems = check_passes(records, reference_problems)
    attempted = sum(len(record.rows) for record in records) + checked
    details.update({
        "passes": len(records),
        "pass_walls_s": [round(record.wall, 4) for record in records],
        "operations_per_pass": len(records[0].rows),
        "latency_samples": sum(len(record.latencies) for record in records),
        "failed_share": failed / attempted,
        "problems": problems[:50],
        "rows": [
            {key: row[key] for key in ROW_FIELDS if row.get(key) is not None}
            for row in records[0].rows
        ],
    })
    if args.trace:
        counts = PhaseStats(before, after, len(records))
        spans = (PhaseStats(start, after_reference, 1)
                 if workload.span_phase == "reference" else counts)
        metrics = per_layer(workload, records, untraced, spans, counts, load_build)
        trace_path = STATE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.write_chrome_trace(trace_path)
        details.update({"trace_file": str(trace_path.relative_to(ROOT)),
                        "spans_dropped": recorder.dropped,
                        "untraced_passes": len(untraced)})
    else:
        metrics = end_to_end(records, setup_times, rss, attempted, failed)
        details["setup_samples_s"] = setup_times
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return details, result


def probe_setup(args) -> None:
    """Set up to ready, say so on stdout, tear down (for ``setup_s``)."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        workload.open()
        print(READY, flush=True)
    finally:
        workload.close()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    _prepare_environment()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        if args.probe_setup:
            probe_setup(args)
            return 0
        details, result = run(args)
    finally:
        stop_resource_tracker()
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
