"""Hot-path micro-benchmarks: batched vs scalar, emitting BENCH_hotpaths.json.

Measures the four paths the vectorized overhaul touched, each against a
faithful reimplementation of the pre-overhaul scalar code, and asserts the
outputs are element-wise / byte-for-byte identical while timing both:

* ``coverage_cost``   — ``CoverageSet.cost_of`` loop vs ``cost_of_many``.
* ``weyl``            — per-candidate Python loop vs ``weyl_coordinates_many``.
* ``swap_choice``     — copy-layout-and-rescore SWAP selection vs the
                        incremental delta scoring, timed inside the object
                        router (``MIRAGE_ROUTE_KERNEL=object``, where
                        ``_choose_swap`` runs), plus the default flat
                        kernel's whole route for comparison.
* ``coverage_cache``  — cold coverage build vs warm load from the persistent
                        disk cache (isolated in a temporary ``MIRAGE_CACHE_DIR``).
* ``depth_metric``    — MIRAGE's depth selection score of one routed QFT-20
                        on the 5x5 lattice: building the routed DAG and
                        walking it with ``evaluate`` vs scoring the routed
                        event stream (``DepthMetric``); the scores must be
                        equal.

Run ``python benchmarks/bench_hotpaths.py --smoke`` for the CI-sized run or
without flags for the full sizes; the machine-readable result lands in
``BENCH_hotpaths.json`` (override with ``--out``).  The JSON also records
fixed-seed transpile digests so perf trajectories across PRs can confirm
behaviour never drifted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.circuits.library import benchmark_circuit, twolocal_full
from repro.core.mirage_pass import MirageSwap
from repro.core.transpile import transpile
from repro.linalg.constants import MAGIC, MAGIC_DAG
from repro.linalg.random import haar_unitary
from repro.polytopes.coverage import (
    build_coverage_set,
    get_coverage_set,
    load_or_build_coverage_set,
)
from repro.transpiler.layout import Layout
from repro.transpiler.metrics import evaluate
from repro.transpiler.passes.sabre_layout import DepthMetric
from repro.transpiler.passes.sabre_swap import SabreSwap
from repro.transpiler.topologies import grid_topology, topology_by_name
from repro.weyl.canonical import canonicalize_coordinate
from repro.weyl.coordinates import weyl_coordinates_many
from repro.weyl.haar import cached_haar_samples
from repro.weyl.invariants import (
    invariants_close,
    makhlin_from_coordinate,
    makhlin_invariants,
)


def circuit_digest(circuit) -> str:
    """Stable digest of a circuit's gate stream (names, params, qubits)."""
    lines = []
    for instruction in circuit:
        gate = instruction.gate
        params = ",".join(f"{p:.12e}" for p in gate.params)
        lines.append(f"{gate.name}({params})@{instruction.qubits}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- pre-overhaul reference implementations ---------------------------------


def _reference_weyl(unitary: np.ndarray, atol: float = 1e-6):
    """The historical per-candidate Python loop for Weyl extraction."""
    import itertools

    det = np.linalg.det(unitary)
    su = unitary / det**0.25
    um = MAGIC_DAG @ su @ MAGIC
    gamma = um.T @ um
    eigenvalues = np.linalg.eigvals(gamma)
    eigenvalues = eigenvalues / np.abs(eigenvalues)
    thetas = np.angle(eigenvalues) / 2.0
    target = makhlin_invariants(unitary)

    def candidates():
        for selection in itertools.permutations(range(4), 3):
            t1, t2, t3 = (thetas[i] for i in selection)
            yield ((t1 + t2) / 2.0, (t2 + t3) / 2.0, (t1 + t3) / 2.0)
        for selection in itertools.permutations(range(4), 3):
            base = [thetas[i] for i in selection]
            for shift_index in range(3):
                shifted = list(base)
                shifted[shift_index] += math.pi
                t1, t2, t3 = shifted
                yield ((t1 + t2) / 2.0, (t2 + t3) / 2.0, (t1 + t3) / 2.0)

    best = None
    for raw in candidates():
        candidate = canonicalize_coordinate(raw)
        cand_inv = makhlin_from_coordinate(candidate)
        if invariants_close(cand_inv, target, atol=atol):
            return candidate
        error = float(np.linalg.norm(np.subtract(cand_inv, target)))
        if best is None or error < best[0]:
            best = (error, candidate)
    return best[1]


class _FullRescoreSwap(SabreSwap):
    """Router with the historical copy-layout-and-rescore SWAP selection."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.choose_seconds = 0.0

    def _choose_swap(self, front, layout, dag, rng):
        start = time.perf_counter()
        candidates = self._swap_candidates(front, layout)
        if not candidates:
            raise RuntimeError("no SWAP candidates")
        extended = self._extended_set(front, dag)
        best_score = np.inf
        best_edges = []
        for edge in candidates:
            trial = layout.copy()
            trial.swap_physical(*edge)
            score = self.routing_heuristic(front, extended, trial)
            score *= max(self._decay[edge[0]], self._decay[edge[1]])
            if score < best_score - 1e-12:
                best_score = score
                best_edges = [edge]
            elif abs(score - best_score) <= 1e-12:
                best_edges.append(edge)
        choice = best_edges[int(rng.integers(len(best_edges)))]
        self.choose_seconds += time.perf_counter() - start
        return choice


class _TimedDeltaSwap(SabreSwap):
    """Current router instrumented to accumulate SWAP-selection time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.choose_seconds = 0.0

    def _choose_swap(self, front, layout, dag, rng):
        start = time.perf_counter()
        choice = super()._choose_swap(front, layout, dag, rng)
        self.choose_seconds += time.perf_counter() - start
        return choice


# -- benchmark sections ------------------------------------------------------


def bench_coverage_cost(num_coordinates: int, coverage_samples: int) -> dict:
    coverage = build_coverage_set(
        "sqrt_iswap", num_samples=coverage_samples, seed=7, mirror=True
    )
    samples = cached_haar_samples(num_coordinates, 2024)

    coverage.clear_cache()
    start = time.perf_counter()
    scalar = np.array([coverage.cost_of(row) for row in samples])
    scalar_seconds = time.perf_counter() - start

    coverage.clear_cache()
    start = time.perf_counter()
    batched = coverage.cost_of_many(samples)
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = coverage.cost_of_many(samples)
    warm_seconds = time.perf_counter() - start

    return {
        "num_coordinates": num_coordinates,
        "scalar_s": scalar_seconds,
        "batched_s": batched_seconds,
        "warm_cache_s": warm_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "equal": bool(np.array_equal(scalar, batched) and np.array_equal(warm, batched)),
    }


def bench_weyl(num_unitaries: int) -> dict:
    rng = np.random.default_rng(5)
    unitaries = np.stack([haar_unitary(4, rng) for _ in range(num_unitaries)])

    start = time.perf_counter()
    scalar = np.array([_reference_weyl(u) for u in unitaries])
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = weyl_coordinates_many(unitaries)
    batched_seconds = time.perf_counter() - start

    return {
        "num_unitaries": num_unitaries,
        "scalar_s": scalar_seconds,
        "batched_s": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "equal": bool(np.array_equal(scalar, batched)),
    }


def _route_object(router: SabreSwap, dag, layout: Layout):
    """Route with the object router, whose ``_choose_swap`` the timed
    routers override; the default flat kernel never calls it."""
    previous = os.environ.get("MIRAGE_ROUTE_KERNEL")
    os.environ["MIRAGE_ROUTE_KERNEL"] = "object"
    try:
        return router.run(dag, layout, seed=3)
    finally:
        if previous is None:
            os.environ.pop("MIRAGE_ROUTE_KERNEL", None)
        else:
            os.environ["MIRAGE_ROUTE_KERNEL"] = previous


def bench_swap_choice(width: int) -> dict:
    coupling = topology_by_name("square", width)
    circuit = benchmark_circuit("qft", width)
    dag = circuit.to_dag()
    layout = Layout.trivial(width, coupling.num_qubits)

    full = _FullRescoreSwap(coupling, seed=3)
    start = time.perf_counter()
    full_result = _route_object(full, dag, layout.copy())
    full_seconds = time.perf_counter() - start

    delta = _TimedDeltaSwap(coupling, seed=3)
    start = time.perf_counter()
    delta_result = _route_object(delta, dag, layout.copy())
    delta_seconds = time.perf_counter() - start

    flat = SabreSwap(coupling, seed=3)
    start = time.perf_counter()
    flat_result = flat.run(dag, layout.copy(), seed=3)
    flat_seconds = time.perf_counter() - start

    digests = {
        circuit_digest(result.dag.to_circuit())
        for result in (full_result, delta_result, flat_result)
    }
    swaps = {
        result.swaps_added for result in (full_result, delta_result, flat_result)
    }
    return {
        "width": width,
        "swaps": delta_result.swaps_added,
        "full_route_s": full_seconds,
        "delta_route_s": delta_seconds,
        "flat_route_s": flat_seconds,
        "full_choose_s": full.choose_seconds,
        "delta_choose_s": delta.choose_seconds,
        "choose_speedup": full.choose_seconds / delta.choose_seconds,
        "route_speedup": full_seconds / delta_seconds,
        "equal": len(digests) == 1 and len(swaps) == 1,
    }


def bench_coverage_cache(coverage_samples: int) -> dict:
    samples = cached_haar_samples(500, 2024)
    with tempfile.TemporaryDirectory() as tmp:
        previous = os.environ.get("MIRAGE_CACHE_DIR")
        disable = os.environ.pop("MIRAGE_CACHE_DISABLE", None)
        os.environ["MIRAGE_CACHE_DIR"] = tmp
        try:
            start = time.perf_counter()
            cold = load_or_build_coverage_set(
                "sqrt_iswap", num_samples=coverage_samples, seed=7, mirror=True
            )
            cold_seconds = time.perf_counter() - start

            start = time.perf_counter()
            warm = load_or_build_coverage_set(
                "sqrt_iswap", num_samples=coverage_samples, seed=7, mirror=True
            )
            warm_seconds = time.perf_counter() - start
        finally:
            if previous is None:
                os.environ.pop("MIRAGE_CACHE_DIR", None)
            else:
                os.environ["MIRAGE_CACHE_DIR"] = previous
            if disable is not None:
                os.environ["MIRAGE_CACHE_DISABLE"] = disable
    return {
        "coverage_samples": coverage_samples,
        "cold_s": cold_seconds,
        "warm_s": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "equal": bool(
            np.array_equal(cold.cost_of_many(samples), warm.cost_of_many(samples))
        ),
    }


def bench_depth_metric(coverage_samples: int, repeats: int) -> dict:
    coverage = get_coverage_set("sqrt_iswap", num_samples=coverage_samples, seed=7)
    coupling = grid_topology(5, 5)
    dag = benchmark_circuit("qft", 20).to_dag()
    layout = Layout.random(20, coupling.num_qubits, np.random.default_rng(3))
    result = MirageSwap(coupling, coverage=coverage).run(dag, layout, seed=3)
    routed = result.routed
    metric = DepthMetric(coverage=coverage)

    stream_seconds = []
    dag_seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        stream_score = metric(result)
        stream_seconds.append(time.perf_counter() - start)

        start = time.perf_counter()
        dag_score = evaluate(routed.to_dag(), coverage=coverage).depth
        dag_seconds.append(time.perf_counter() - start)
    stream_s = float(np.median(stream_seconds))
    dag_s = float(np.median(dag_seconds))
    return {
        "swaps": result.swaps_added,
        "mirrors": result.mirrors_accepted,
        "score": stream_score,
        "stream_score_s": stream_s,
        "dag_score_s": dag_s,
        "speedup": dag_s / stream_s,
        "equal": stream_score == dag_score,
    }


def bench_transpile_digests() -> dict:
    digests = {}
    for method in ("sabre", "mirage"):
        result = transpile(
            twolocal_full(6, reps=1),
            coupling="line",
            basis="sqrt_iswap",
            method=method,
            layout_trials=2,
            refinement_rounds=1,
            seed=11,
        )
        digests[method] = {
            "digest": circuit_digest(result.circuit),
            "swaps": result.swaps_added,
            "mirrors": result.mirrors_accepted,
            "depth": result.metrics.depth,
        }
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (smaller coverage sets, fewer samples)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_hotpaths.json"),
        help="output JSON path (default: ./BENCH_hotpaths.json)",
    )
    args = parser.parse_args()

    if args.smoke:
        coverage_samples, num_coordinates, num_unitaries, width = 400, 1000, 150, 25
        repeats = 5
    else:
        coverage_samples, num_coordinates, num_unitaries, width = 1200, 2000, 500, 36
        repeats = 20

    report = {
        "config": {
            "smoke": args.smoke,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "coverage_cost": bench_coverage_cost(num_coordinates, coverage_samples),
        "weyl": bench_weyl(num_unitaries),
        "swap_choice": bench_swap_choice(width),
        "coverage_cache": bench_coverage_cache(coverage_samples),
        "depth_metric": bench_depth_metric(coverage_samples, repeats),
        "transpile_digests": bench_transpile_digests(),
    }

    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"[hotpaths] {'smoke' if args.smoke else 'full'} -> {args.out}")
    sections = ("coverage_cost", "weyl", "swap_choice", "coverage_cache", "depth_metric")
    for section in sections:
        entry = report[section]
        speedup = entry.get("choose_speedup", entry.get("speedup"))
        print(
            f"  {section:<14} speedup {speedup:6.1f}x  equal={entry['equal']}"
        )

    failures = [section for section in sections if not report[section]["equal"]]
    if failures:
        print(f"EQUIVALENCE FAILURES: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
