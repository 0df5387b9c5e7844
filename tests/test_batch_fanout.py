"""Tests for the circuit-level batch fan-out engine and shared dispatch.

Covers the three hard guarantees of the batch engine:

* fixed-seed :func:`repro.core.transpile.transpile_many` outputs are
  byte-identical across the sequential (``"trials"``) and circuit-level
  (``"circuits"``) fan-out modes, and across all three executors;
* the chunked shared-payload dispatch pickles the coverage set exactly
  once per batch (the re-pickling regression check);
* the delta-based :class:`repro.core.mirage_pass.MirageSwap` commit is
  byte-identical to the historical copy-layout-and-rescore decision.
"""

import pickle

import pytest

from repro.exceptions import TranspilerError
from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import transpile_many
from repro.core.mirage_pass import MirageSwap
from repro.core.transpile import prepare_circuit
from repro.polytopes import get_coverage_set
from repro.polytopes.coverage import CoverageSet
from repro.transpiler import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    line_topology,
)
from repro.transpiler.layout import Layout
from repro.transpiler.passes import SabreLayout, run_layout_trial, run_trial

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)


def _fingerprint(result):
    """Byte-level identity of a transpile result, modulo wall-clock."""
    return (
        [(instr.gate.name, instr.qubits) for instr in result.circuit],
        result.initial_layout.virtual_to_physical(),
        result.final_layout.virtual_to_physical(),
        result.swaps_added,
        result.mirrors_accepted,
        result.trial_index,
        round(result.metrics.depth, 9),
    )


def _batch(fanout, executor=None, circuits=None, **kwargs):
    return transpile_many(
        circuits if circuits is not None else [qft(4), ghz(5), twolocal_full(4)],
        line_topology(5),
        coverage=COVERAGE,
        use_vf2=False,
        layout_trials=3,
        seed=7,
        fanout=fanout,
        executor=executor,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Byte-identical results across fan-out modes and executors
# ---------------------------------------------------------------------------


def test_circuit_fanout_matches_sequential():
    sequential = _batch("trials")
    fanned = _batch("circuits")
    assert sequential.fanout == "trials"
    assert fanned.fanout == "circuits"
    assert [_fingerprint(r) for r in sequential] == [
        _fingerprint(r) for r in fanned
    ]


@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    lambda: ThreadExecutor(max_workers=2),
    lambda: ProcessExecutor(max_workers=2),
], ids=["serial", "threads", "processes"])
def test_circuit_fanout_identical_across_executors(make_executor):
    reference = _batch("trials")
    with make_executor() as executor:
        fanned = _batch("circuits", executor=executor)
    assert [_fingerprint(r) for r in reference] == [
        _fingerprint(r) for r in fanned
    ]


def test_fanout_auto_picks_circuits_for_real_batches():
    assert _batch("auto").fanout == "circuits"
    single = _batch("auto", circuits=[qft(4)])
    assert single.fanout == "trials"
    # "sequential" is an accepted alias for "trials".
    assert _batch("sequential").fanout == "trials"


def test_fanout_rejects_unknown_mode():
    with pytest.raises(TranspilerError):
        _batch("galaxies")


@pytest.mark.parametrize("knob, value", [
    ("fanout", "galaxies"),
    ("fanout", "TRIALS "),
    ("fanout", 3),
    ("scheduler", "warp"),
    ("scheduler", "streaming"),
    ("scheduler", None),
    ("plan", "remote"),
    ("plan", "exec"),
    ("plan", 1.5),
])
def test_string_knobs_rejected_up_front_with_accepted_values(knob, value):
    """Typos in ``fanout=``/``scheduler=``/``plan=`` fail fast as
    ``ValueError`` naming the accepted modes — before any coverage-set
    build or executor spawn (an empty batch and no coverage set: if
    validation were not first, this would try to build one)."""
    with pytest.raises(ValueError, match="accepted:") as excinfo:
        transpile_many([], line_topology(4), **{knob: value})
    assert f"unknown {knob} mode" in str(excinfo.value)


def test_mode_error_is_both_transpiler_and_value_error():
    """Callers catching either historical type keep working."""
    with pytest.raises(TranspilerError):
        transpile_many([], line_topology(4), coverage=COVERAGE, scheduler="warp")
    with pytest.raises(ValueError):
        transpile_many([], line_topology(4), coverage=COVERAGE, fanout="warp")


def test_explicit_circuit_seeds_match_direct_transpile():
    """``circuit_seeds`` pins each slot to its own seed root: position i
    is byte-identical to ``transpile(seed=circuit_seeds[i])``, which is
    what lets the service tier coalesce requests without changing any
    output bit."""
    from repro.core.transpile import transpile

    seeds = [5, 91, 17]
    circuits = [qft(4), ghz(5), twolocal_full(4)]
    batch = _batch("circuits", circuits=circuits, circuit_seeds=seeds,
                   scheduler="stream")
    direct = [
        transpile(circuit, line_topology(5), coverage=COVERAGE,
                  use_vf2=False, layout_trials=3, seed=seed)
        for circuit, seed in zip(circuits, seeds)
    ]
    assert [_fingerprint(r) for r in batch] == [
        _fingerprint(r) for r in direct
    ]


def test_circuit_seeds_length_mismatch_rejected():
    with pytest.raises(TranspilerError, match="circuit_seeds"):
        _batch("circuits", circuits=[qft(4), ghz(5)], circuit_seeds=[1])


def test_circuit_fanout_handles_vf2_embedded_circuits():
    """Circuits VF2 embeds contribute no trials but keep their slot."""
    circuits = [ghz(4), qft(4), ghz(3)]
    sequential = transpile_many(
        circuits, line_topology(4), coverage=COVERAGE, layout_trials=2,
        seed=5, fanout="trials",
    )
    fanned = transpile_many(
        circuits, line_topology(4), coverage=COVERAGE, layout_trials=2,
        seed=5, fanout="circuits",
    )
    assert [r.method for r in fanned] == ["vf2", "mirage", "vf2"]
    assert [_fingerprint(r) for r in sequential] == [
        _fingerprint(r) for r in fanned
    ]
    assert fanned.dispatch["routed"] == 1
    assert fanned.dispatch["circuits"] == 3


def test_circuit_fanout_empty_batch():
    batch = transpile_many(
        [], line_topology(4), coverage=COVERAGE, seed=1, fanout="circuits"
    )
    assert len(batch) == 0
    assert batch.summary()["circuits"] == 0
    assert batch.stage_seconds() == {}


def test_circuit_fanout_reports_and_provenance():
    fanned = _batch("circuits")
    # Per-circuit reports show the full front pipeline plus route/select.
    names = [rec["name"] for rec in fanned[0].pipeline_report]
    assert names == [
        "clean", "unroll", "reclean", "consolidate", "coupling",
        "coverage", "analyze", "vf2", "plan", "route", "select",
    ]
    assert all(r.trial_seconds is not None and r.trial_seconds > 0
               for r in fanned)
    assert all(r.runtime_seconds > 0 for r in fanned)
    assert fanned.trial_seconds() > 0
    assert len(fanned.circuit_seconds()) == 3
    assert fanned.dispatch["tasks"] == 9  # 3 circuits x 3 layout trials
    assert fanned.summary()["fanout"] == "circuits"


# ---------------------------------------------------------------------------
# Chunked shared-payload dispatch: re-pickling regression checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["stream", "barrier"])
def test_process_fanout_pickles_coverage_once(monkeypatch, scheduler):
    """One batch dispatch must serialise the coverage set exactly once.

    Before the shared-payload dispatch, process-pool trials re-pickled
    the coverage set (inside the router factory / metric) once per chunk
    of every circuit; the barrier engine serialises it once inside the
    pooled spec tuple, the streaming engine once as the session anchor.
    """
    calls = {"count": 0}
    original = CoverageSet.__getstate__

    def counting_getstate(self):
        calls["count"] += 1
        return original(self)

    monkeypatch.setattr(CoverageSet, "__getstate__", counting_getstate)
    with ProcessExecutor(max_workers=2) as executor:
        fanned = _batch("circuits", executor=executor, scheduler=scheduler)
    assert fanned.dispatch["shared_pickles"] == 1
    assert calls["count"] == 1
    assert fanned.dispatch["chunks"] >= 1
    assert fanned.dispatch["tasks"] == 9


def test_trial_refs_are_light():
    """The per-trial records must not drag the DAG or coverage along."""
    driver = SabreLayout(line_topology(5), layout_trials=4, seed=2)
    refs = driver.trial_refs()
    payload = pickle.dumps(refs, protocol=pickle.HIGHEST_PROTOCOL)
    # A SeedSequence plus an int pickles to well under a kilobyte each.
    assert len(payload) < 1024 * len(refs)
    assert b"CoverageSet" not in payload
    assert b"DAGCircuit" not in payload


def test_map_shared_preserves_order_and_results():
    tasks = list(range(23))
    expected = [x * 3 for x in tasks]
    serial = SerialExecutor()
    assert serial.map_shared(lambda s, x: x * s, 3, tasks) == expected
    with ThreadExecutor(max_workers=3) as threads:
        assert threads.map_shared(lambda s, x: x * s, 3, tasks) == expected
    with ProcessExecutor(max_workers=2) as processes:
        assert processes.map_shared(_times, 3, tasks) == expected
        stats = processes.dispatch_stats
        assert stats["shared_pickles"] == 1
        assert stats["tasks"] == 23
        assert stats["chunks"] >= 2


def _times(shared, task):
    return task * shared


def test_map_shared_single_task_stays_inline():
    with ProcessExecutor(max_workers=2) as processes:
        assert processes.map_shared(_times, 5, [7]) == [35]
        assert processes.dispatch_stats["shared_pickles"] == 0


def test_run_trial_matches_legacy_task_form():
    driver = SabreLayout(line_topology(4), layout_trials=2, seed=8)
    dag = prepare_circuit(qft(4)).to_dag()
    spec = driver.trial_spec(dag)
    refs = driver.trial_refs()
    tasks = driver.trial_tasks(dag)
    for ref, task in zip(refs, tasks):
        split = run_trial(spec, ref)
        legacy = run_layout_trial(task)
        assert split.score == legacy.score
        assert split.trial_index == legacy.trial_index


# ---------------------------------------------------------------------------
# Delta MirageSwap commit: digest parity with copy-and-rescore
# ---------------------------------------------------------------------------


class _ReferenceMirage(MirageSwap):
    """The historical copy-layout-and-rescore mirror decision.

    It overrides the object router's ``_mirror_routing_costs``, so it only
    takes effect under ``MIRAGE_ROUTE_KERNEL=object``; ``calls`` proves it
    ran.
    """

    calls = 0

    def _mirror_routing_costs(self, lookahead, layout, physical):
        self.calls += 1
        current = self.routing_heuristic([], lookahead, layout)
        trial_layout = layout.copy()
        trial_layout.swap_physical(*physical)
        mirrored = self.routing_heuristic([], lookahead, trial_layout)
        return current, mirrored


def _routing_digest(result):
    return [
        (node.gate.name, tuple(node.qubits))
        for node in result.dag.topological_nodes()
    ]


@pytest.mark.parametrize("aggression", [1, 2, 3])
@pytest.mark.parametrize("circuit", [qft(6), twolocal_full(5)],
                         ids=["qft6", "twolocal5"])
def test_delta_mirror_commit_matches_copy_rescore(monkeypatch, circuit, aggression):
    dag = prepare_circuit(circuit).to_dag()
    coupling = line_topology(dag.num_qubits)
    for seed in (1, 5):
        layout = Layout.random(dag.num_qubits, coupling.num_qubits, seed=seed)
        monkeypatch.delenv("MIRAGE_ROUTE_KERNEL", raising=False)
        fast = MirageSwap(coupling, COVERAGE, aggression=aggression).run(
            dag, layout, seed=seed
        )
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "object")
        router = _ReferenceMirage(coupling, COVERAGE, aggression=aggression)
        reference = router.run(dag, layout, seed=seed)
        assert router.calls > 0
        assert _routing_digest(fast) == _routing_digest(reference)
        assert fast.mirrors_accepted == reference.mirrors_accepted
        assert fast.final_layout == reference.final_layout
