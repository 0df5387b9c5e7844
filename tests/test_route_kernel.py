"""Tests for the flat routing kernel (``repro.transpiler.kernel``).

Covers the PR-6 guarantees:

* ``MIRAGE_ROUTE_KERNEL`` resolution (flat default, object opt-out,
  unknown values rejected);
* fixed-seed byte-identity between the flat and object kernels across
  seeds x topologies x executors, for SABRE and MIRAGE, plus a pinned
  digest so *both* kernels drifting together is caught;
* ``IntDAG`` round-trip properties (op table, CSR adjacency, front
  layer, interpreter-cache hygiene under pickle);
* the decay-reset ordering regression at the ``DECAY_RESET_INTERVAL``
  boundary (reset-on-execute vs. reset-on-interval must interleave
  identically in both kernels);
* the per-gate mirror table (equal to the scalar coordinate/mirror/cost
  chain, never pickled) and the lazily built routed DAG;
* the depth selection score over the event stream, equal to
  ``evaluate(result.dag).depth`` exactly, with only the kept routing ever
  built into a DAG;
* the compiled routing loop: the same event stream, layout, counts and
  generator state as the Python loop and the object router (seeded
  differential fuzz, a hypothesis property, error-path parity), the C
  tie-break draw equal to ``Generator.integers`` with the probe's Python
  fallback, identity with the object router when it is unavailable, and
  a build cache that rebuilds corrupt files, never loads files another
  user could have written, and never raises.
"""

import dataclasses
import hashlib
import os
import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TranspilerError
from repro.circuits.circuit import QuantumCircuit, random_two_qubit_block_circuit
from repro.circuits.dag import DAGCircuit
from repro.circuits.library import TABLE_III_SUITE, ghz, qft, twolocal_full
from repro.core import MirageSwap, transpile
from repro.core.mirage_pass import mirror_table
from repro.polytopes import CoverageSet, get_coverage_set
from repro.transpiler import (
    CouplingMap,
    Layout,
    grid_topology,
    heavy_hex_topology,
    line_topology,
    ring_topology,
)
from repro.transpiler.kernel import (
    IntDAG,
    adopt_intdag,
    int_dag,
    neighbor_table,
    route_kernel_mode,
)
from repro.transpiler.kernel import native, route
from repro.linalg.random import haar_unitary
from repro.transpiler.metrics import evaluate, gate_coordinate
from repro.transpiler.passes import (
    DepthMetric,
    SabreRouterFactory,
    SabreSwap,
    TrialSpec,
    TrialRef,
    clean_input,
    consolidate_blocks,
    run_trial,
    swap_count_metric,
    unroll_to_two_qubit,
)
from repro.transpiler.passes.sabre_swap import RoutedOps
from repro.weyl.mirror import mirror_coordinate

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)

#: Digest of the fixed reference config in :func:`test_pinned_digest` —
#: gate names, qubits and params of the routed circuit (matrices are
#: excluded so the pin is libm-independent).  Both kernels must produce
#: it; a change here means routing behaviour changed for everyone.
PINNED_SHA256 = (
    "6ca10f054205fb28db1a48fbbbd75f071d4084b047ba826d1f365d377a8c7413"
)


def _op_stream(result, with_matrices: bool = True):
    stream = []
    for instr in result.circuit.instructions:
        entry = (instr.gate.name, tuple(instr.qubits), tuple(instr.gate.params))
        if with_matrices:
            try:
                entry += (instr.gate.matrix().tobytes(),)
            except Exception:
                pass
        stream.append(entry)
    return stream


def _digest(result, with_matrices: bool = True) -> str:
    payload = hashlib.sha256()
    for entry in _op_stream(result, with_matrices):
        payload.update(repr(entry).encode())
    return payload.hexdigest()


def _transpile_both(monkeypatch, *args, **kwargs):
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")
    flat = transpile(*args, **kwargs)
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "object")
    obj = transpile(*args, **kwargs)
    monkeypatch.delenv("MIRAGE_ROUTE_KERNEL")
    return flat, obj


# ---------------------------------------------------------------------------
# Kernel switch
# ---------------------------------------------------------------------------


def test_route_kernel_mode_resolution(monkeypatch):
    monkeypatch.delenv("MIRAGE_ROUTE_KERNEL", raising=False)
    assert route_kernel_mode() == "flat"
    for value in ("flat", "default", "", "  FLAT "):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", value)
        assert route_kernel_mode() == "flat"
    for value in ("object", "legacy", "OBJECT"):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", value)
        assert route_kernel_mode() == "object"
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "turbo")
    with pytest.raises(TranspilerError, match="MIRAGE_ROUTE_KERNEL"):
        route_kernel_mode()


def test_object_mode_skips_the_flat_kernel(monkeypatch):
    """``object`` must dispatch to the object-path router, not the kernel."""
    from repro.transpiler.passes import sabre_swap as sabre_mod

    def _boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("flat kernel invoked in object mode")

    monkeypatch.setattr(sabre_mod, "route_kernel", _boom)
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "object")
    coupling = line_topology(4)
    router = SabreSwap(coupling)
    dag = DAGCircuit.from_circuit(ghz(4))
    result = router.run(dag, Layout.trivial(4, 4), seed=2)
    assert result.swaps_added >= 0

    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")
    with pytest.raises(AssertionError, match="flat kernel"):
        router.run(dag, Layout.trivial(4, 4), seed=2)


# ---------------------------------------------------------------------------
# Flat vs object identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11, 29])
@pytest.mark.parametrize(
    "topology",
    [
        line_topology(5),
        ring_topology(6),
        grid_topology(2, 3),
        heavy_hex_topology(12),
    ],
    ids=["line5", "ring6", "grid23", "hh12"],
)
def test_flat_object_identity_across_seeds_and_topologies(
    monkeypatch, topology, seed
):
    circuit = qft(5)
    flat, obj = _transpile_both(
        monkeypatch,
        circuit,
        topology,
        method="mirage",
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=seed,
    )
    assert _digest(flat) == _digest(obj)
    assert flat.metrics.swap_count == obj.metrics.swap_count
    assert flat.metrics.depth == obj.metrics.depth


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
@pytest.mark.parametrize("method", ["sabre", "mirage"])
def test_flat_object_identity_across_executors(monkeypatch, method, executor):
    flat, obj = _transpile_both(
        monkeypatch,
        twolocal_full(5),
        grid_topology(2, 3),
        method=method,
        layout_trials=3,
        use_vf2=False,
        coverage=COVERAGE,
        seed=17,
        executor=executor,
    )
    assert _digest(flat) == _digest(obj)


def test_pinned_digest(monkeypatch):
    """Both kernels must reproduce the pinned reference digest.

    The identity tests above would pass if flat and object drifted
    *together*; this pin detects that.  Matrices are excluded from the
    digest (gate parameters are exact binary fractions of pi, so their
    reprs are platform-stable; matrix entries go through libm).
    """
    flat, obj = _transpile_both(
        monkeypatch,
        qft(5),
        grid_topology(2, 3),
        method="mirage",
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=7,
    )
    assert _digest(flat, with_matrices=False) == PINNED_SHA256
    assert _digest(obj, with_matrices=False) == PINNED_SHA256


def test_direct_router_identity_with_aggressions(monkeypatch):
    """Router-level identity: full op streams, layouts and stats."""
    coupling = heavy_hex_topology(12)
    dag = DAGCircuit.from_circuit(qft(6))
    rng = np.random.default_rng(9)
    layout = Layout.random(dag.num_qubits, coupling.num_qubits, rng)

    def run(mode, aggression):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", mode)
        router = MirageSwap(coupling, coverage=COVERAGE, aggression=aggression)
        result = router.run(dag, layout.copy(), seed=13)
        ops = [
            (node.gate.name, tuple(node.qubits), node.gate.matrix().tobytes())
            for node_id in sorted(result.dag.nodes)
            for node in (result.dag.nodes[node_id],)
        ]
        return (
            ops,
            result.final_layout.virtual_to_physical(),
            result.swaps_added,
            result.mirrors_accepted,
            result.mirror_candidates,
        )

    for aggression in (0, 1, 2, 3):
        assert run("flat", aggression) == run("object", aggression)


# ---------------------------------------------------------------------------
# IntDAG round-trip properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "circuit", [ghz(5), qft(4), twolocal_full(4)], ids=["ghz5", "qft4", "tl4"]
)
def test_intdag_round_trip(circuit):
    dag = DAGCircuit.from_circuit(circuit)
    lowered = int_dag(dag)

    assert lowered.num_qubits == dag.num_qubits
    assert lowered.num_nodes == len(dag.nodes)
    for node_id, node in dag.nodes.items():
        assert lowered.gate(node_id) is node.gate
        assert lowered.node_qubits(node_id) == tuple(node.qubits)
        assert lowered.successor_ids(node_id) == dag._successors[node_id]
        assert lowered.predecessor_ids(node_id) == dag._predecessors[node_id]
        assert bool(lowered.two_qubit[node_id]) == node.is_two_qubit
    assert lowered.front_ids() == [n.node_id for n in dag.front_layer()]

    rebuilt = lowered.to_dag(dag.name)
    assert len(rebuilt.nodes) == len(dag.nodes)
    for node_id, node in dag.nodes.items():
        clone = rebuilt.nodes[node_id]
        assert clone.gate is node.gate
        assert tuple(clone.qubits) == tuple(node.qubits)
    assert rebuilt._successors == dag._successors
    assert rebuilt._predecessors == dag._predecessors


def test_intdag_csr_consistency():
    dag = DAGCircuit.from_circuit(qft(5))
    lowered = int_dag(dag)
    # CSR pointers are monotone and the in-degree vector matches the
    # predecessor table (what the kernel's front advance relies on).
    assert list(lowered.succ_indptr) == sorted(lowered.succ_indptr)
    assert list(lowered.pred_indptr) == sorted(lowered.pred_indptr)
    assert lowered.succ_indptr[-1] == len(lowered.succ_ids)
    for node_id in range(lowered.num_nodes):
        assert lowered.indegree[node_id] == len(dag._predecessors[node_id])
    lists = lowered.lists()
    assert lists.succ_tuples == tuple(
        tuple(dag._successors[i]) for i in range(lowered.num_nodes)
    )


def test_intdag_memo_and_adoption():
    dag = DAGCircuit.from_circuit(ghz(4))
    lowered = int_dag(dag)
    assert int_dag(dag) is lowered  # memoised on the DAG

    fresh = DAGCircuit.from_circuit(ghz(4))
    adopt_intdag(fresh, lowered)
    assert int_dag(fresh) is lowered  # adopted table wins

    # A stale table (node-count mismatch) is refused.
    smaller = DAGCircuit.from_circuit(ghz(3))
    adopt_intdag(smaller, lowered)
    assert int_dag(smaller) is not lowered


def test_intdag_pickle_drops_interpreter_caches():
    dag = DAGCircuit.from_circuit(qft(4))
    lowered = int_dag(dag)
    lowered.lists()  # populate the cache
    assert "_lists" in lowered.__dict__
    clone = pickle.loads(pickle.dumps(lowered))
    assert "_lists" not in clone.__dict__
    assert clone.num_nodes == lowered.num_nodes
    assert np.array_equal(clone.qubit0, lowered.qubit0)
    assert np.array_equal(clone.succ_ids, lowered.succ_ids)
    assert clone.lists().qubit_tuples == lowered.lists().qubit_tuples


def test_intdag_requires_dense_node_ids():
    dag = DAGCircuit.from_circuit(ghz(4))
    del dag.nodes[0]
    with pytest.raises(TranspilerError, match="densely numbered"):
        IntDAG.from_dag(dag)


def test_neighbor_table_matches_coupling():
    coupling = heavy_hex_topology(12)
    table = neighbor_table(coupling)
    assert neighbor_table(coupling) is table  # memoised
    assert table.num_qubits == coupling.num_qubits
    edges = sorted(set(coupling.edges))
    assert list(zip(table.edges_a, table.edges_b)) == edges
    for qubit in range(coupling.num_qubits):
        start, stop = table.indptr[qubit], table.indptr[qubit + 1]
        assert list(table.neighbor_ids[start:stop]) == coupling.neighbors(qubit)
        assert [edges[e] for e in table.incident[qubit]] == [
            edge for edge in edges if qubit in edge
        ]
    assert table.connected
    assert np.array_equal(
        table.dist_int.astype(float), coupling.distance_matrix
    )


# ---------------------------------------------------------------------------
# Property-based differential fuzzing: random DAGs x couplings x seeds
# ---------------------------------------------------------------------------
#
# A seeded generator rather than hypothesis keeps every case exactly
# reproducible from its index (no shrinking, no example database) while
# still sweeping structurally random inputs: Haar-random two-qubit block
# circuits, random connected couplings (random spanning tree plus random
# chords), random layouts, seeds and aggressions.


def _random_connected_coupling(rng, num_qubits):
    """Random connected topology: a spanning tree plus random chords."""
    order = rng.permutation(num_qubits)
    edges = set()
    for position in range(1, num_qubits):
        anchor = order[int(rng.integers(0, position))]
        edges.add(tuple(sorted((int(order[position]), int(anchor)))))
    for _ in range(int(rng.integers(0, num_qubits))):
        a, b = rng.choice(num_qubits, size=2, replace=False)
        edges.add(tuple(sorted((int(a), int(b)))))
    return CouplingMap(
        sorted(edges), num_qubits=num_qubits, name=f"random-{num_qubits}"
    )


def _routing_stream(result):
    return (
        [
            (node.gate.name, tuple(node.qubits))
            for node_id in sorted(result.dag.nodes)
            for node in (result.dag.nodes[node_id],)
        ],
        result.final_layout.virtual_to_physical(),
        result.swaps_added,
    )


@pytest.mark.parametrize("case", range(10))
def test_property_random_dag_coupling_seed_identity(monkeypatch, case):
    """Differential fuzz: both kernels route every random instance
    identically — op stream, final layout and SWAP count."""
    rng = np.random.default_rng(0xC0FFEE + case)
    num_qubits = int(rng.integers(4, 8))
    circuit = random_two_qubit_block_circuit(
        num_qubits, int(rng.integers(5, 16)), rng
    )
    coupling = _random_connected_coupling(
        rng, num_qubits + int(rng.integers(0, 3))
    )
    dag = DAGCircuit.from_circuit(circuit)
    layout = Layout.random(dag.num_qubits, coupling.num_qubits, rng)
    seed = int(rng.integers(0, 2**31))
    aggression = int(rng.integers(0, 4))

    def run(mode, router_factory):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", mode)
        return _routing_stream(
            router_factory().run(dag, layout.copy(), seed=seed)
        )

    sabre = lambda: SabreSwap(coupling)  # noqa: E731 - tiny local factories
    mirage = lambda: MirageSwap(  # noqa: E731
        coupling, coverage=COVERAGE, aggression=aggression
    )
    assert run("flat", sabre) == run("object", sabre)
    assert run("flat", mirage) == run("object", mirage)


@pytest.mark.parametrize("case", range(3))
def test_property_full_transpile_identity_on_random_couplings(
    monkeypatch, case
):
    """End-to-end digests agree on random couplings (layout trials,
    selection and routing all downstream of the kernel switch)."""
    rng = np.random.default_rng(1729 + case)
    circuit = random_two_qubit_block_circuit(5, int(rng.integers(6, 12)), rng)
    coupling = _random_connected_coupling(rng, 6)
    seed = int(rng.integers(0, 2**31))
    flat, obj = _transpile_both(
        monkeypatch,
        circuit,
        coupling,
        method="mirage",
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=seed,
    )
    assert _digest(flat) == _digest(obj)
    assert flat.metrics.depth == obj.metrics.depth


# ---------------------------------------------------------------------------
# Decay-reset ordering at the DECAY_RESET_INTERVAL boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("interval", [1, 2, 5])
def test_decay_reset_boundary_identity(monkeypatch, interval):
    """Interval-reset and execute-reset must interleave identically.

    Small ``decay_reset_interval`` values force resets *between*
    consecutive stalls (the interval branch) as well as after execution
    sweeps (the dirty-flag branch); any ordering difference between the
    kernels shifts decay factors and changes the SWAP stream.
    """
    coupling = line_topology(6)  # line = stall-heavy
    dag = DAGCircuit.from_circuit(qft(6))
    layout = Layout.random(6, 6, np.random.default_rng(21))

    def run(mode):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", mode)
        router = SabreSwap(coupling, decay_reset_interval=interval)
        result = router.run(dag, layout.copy(), seed=33)
        return (
            [
                (node.gate.name, tuple(node.qubits))
                for node_id in sorted(result.dag.nodes)
                for node in (result.dag.nodes[node_id],)
            ],
            result.final_layout.virtual_to_physical(),
            result.swaps_added,
        )

    assert run("flat") == run("object")


# ---------------------------------------------------------------------------
# Per-gate mirror table
# ---------------------------------------------------------------------------


def _fresh(coverage):
    """A copy of ``coverage`` with an empty cost memo (pickle drops it)."""
    return pickle.loads(pickle.dumps(coverage))


def _routing_input(circuit):
    """The DAG the route stage sees: cleaned, unrolled, consolidated."""
    prepared = consolidate_blocks(
        clean_input(unroll_to_two_qubit(clean_input(circuit)))
    )
    return DAGCircuit.from_circuit(prepared)


MIRROR_TABLE_CIRCUITS = [qft(12), twolocal_full(6)] + [
    spec.build() for spec in TABLE_III_SUITE
]


@pytest.mark.parametrize(
    "coverage",
    [COVERAGE, get_coverage_set("cx", num_samples=100, seed=3)],
    ids=["sqrt_iswap", "cx"],
)
def test_mirror_table_matches_scalar_chain(coverage):
    """Every entry equals gate_coordinate -> mirror_coordinate -> cost_of,
    evaluated against a coverage copy whose memo the table never saw."""
    scalar = _fresh(coverage)
    unit = coverage.unit_cost
    checked = 0
    for circuit in MIRROR_TABLE_CIRCUITS:
        for dag in (DAGCircuit.from_circuit(circuit), _routing_input(circuit)):
            lowered = int_dag(dag)
            table = mirror_table(lowered, _fresh(coverage))
            for node in dag.nodes.values():
                if not node.is_two_qubit:
                    continue
                gate_id = int(lowered.gate_ids[node.node_id])
                coordinate = gate_coordinate(node.gate)
                mirrored = mirror_coordinate(coordinate)
                assert table.cost[gate_id] == scalar.cost_of(coordinate) / unit
                assert (
                    table.mirror_cost[gate_id]
                    == scalar.cost_of(mirrored) / unit
                )
                assert tuple(table.mirror_coordinates[gate_id].tolist()) == mirrored
                checked += 1
    assert checked > 1000


def test_mirror_table_memoised_per_coverage_and_not_pickled():
    dag = _routing_input(qft(6))
    lowered = int_dag(dag)
    bare = pickle.dumps(lowered)
    table = mirror_table(lowered, COVERAGE)
    assert mirror_table(lowered, COVERAGE) is table
    other = _fresh(COVERAGE)
    assert mirror_table(lowered, other) is not table

    payload = pickle.dumps(lowered)
    assert payload == bare
    clone = pickle.loads(payload)
    assert "_mirror_tables" not in clone.__dict__
    rebuilt = mirror_table(clone, COVERAGE)
    assert rebuilt.cost == table.cost
    assert rebuilt.mirror_cost == table.mirror_cost
    assert np.array_equal(rebuilt.mirror_coordinates, table.mirror_coordinates)


@pytest.mark.parametrize("aggression", [0, 1, 2, 3])
def test_flat_object_digest_identity_per_aggression(monkeypatch, aggression):
    """Aggression 3 accepts every candidate, so it emits mirror gates
    built from the table's coordinates; the digest includes their
    matrices."""
    flat, obj = _transpile_both(
        monkeypatch,
        qft(6),
        heavy_hex_topology(12),
        method="mirage",
        aggression=aggression,
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=23,
    )
    assert _digest(flat) == _digest(obj)
    assert flat.mirrors_accepted == obj.mirrors_accepted
    if aggression == 3:
        assert flat.mirrors_accepted == flat.mirror_candidates > 0


# ---------------------------------------------------------------------------
# Lazily built routed DAG
# ---------------------------------------------------------------------------


def test_refinement_run_builds_no_dag(monkeypatch):
    coupling = heavy_hex_topology(12)
    dag = DAGCircuit.from_circuit(qft(6))
    layout = Layout.random(6, coupling.num_qubits, np.random.default_rng(4))
    router = MirageSwap(coupling, coverage=COVERAGE, aggression=2)

    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")
    lazy = router.run(dag, layout.copy(), seed=8)
    assert isinstance(lazy.routed, RoutedOps)
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "object")
    full = router.run(dag, layout.copy(), seed=8)
    assert isinstance(full.routed, DAGCircuit)

    assert (
        lazy.final_layout.virtual_to_physical()
        == full.final_layout.virtual_to_physical()
    )
    assert isinstance(lazy.routed, RoutedOps)  # reading the layout built nothing
    built = lazy.dag
    assert lazy.dag is built  # built exactly once
    assert _routing_stream(lazy) == _routing_stream(full)


@pytest.mark.parametrize(
    "metric, scores_depth",
    [(swap_count_metric, False), (DepthMetric(coverage=COVERAGE), True)],
)
def test_kept_routing_builds_dag_only_when_read(monkeypatch, metric, scores_depth):
    """Neither selection metric builds the kept routing's DAG inside the
    trial: the depth metric scores the routed event stream, and the DAG
    is left to whoever reads ``.dag`` next."""
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")
    coupling = grid_topology(2, 3)
    dag = DAGCircuit.from_circuit(qft(5))
    spec = TrialSpec(
        dag=dag,
        reverse_dag=None,
        coupling=coupling,
        router_factory=SabreRouterFactory(coupling),
        refinement_rounds=2,
        routing_trials=1,
        selection_metric=metric,
    )
    outcome = run_trial(spec, TrialRef(0, np.random.SeedSequence(3)))
    assert isinstance(outcome.routing.routed, RoutedOps)
    clone = pickle.loads(pickle.dumps(outcome.routing))
    assert _routing_stream(clone) == _routing_stream(outcome.routing)
    if scores_depth:
        assert outcome.score == evaluate(outcome.routing.dag, coverage=COVERAGE).depth
    else:
        assert outcome.score == outcome.routing.swaps_added


def test_mirage_transpile_builds_one_routed_dag(monkeypatch):
    """Refinement rounds and every scored trial leave their event streams
    unbuilt; only the kept routing becomes a DAG."""
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")
    calls = []
    monkeypatch.setattr(RoutedOps, "to_dag", _spy(RoutedOps.to_dag, calls))
    result = transpile(
        qft(8), grid_topology(3, 3), method="mirage", layout_trials=4,
        routing_trials=2, use_vf2=False, coverage=COVERAGE, seed=5,
    )
    assert result.swaps_added > 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# The depth selection metric over the event stream
# ---------------------------------------------------------------------------

CBRT_COVERAGE = get_coverage_set("cbrt_iswap", num_samples=250, seed=3)


def _calibrated(coverage):
    """``coverage`` with pulse costs that are not whole multiples of its
    unit, as calibrated pulse durations would be.

    The library's own polytope costs are ``depth * unit``, and those
    survive ``cost / unit * unit`` unchanged even for the non-dyadic unit
    1/3.  Each cost here is the first two-decimal value from
    ``depth * unit`` up that does not, so a score that goes through unit
    counts rounds differently from one built from the raw costs.
    """
    unit = coverage.unit_cost
    polytopes = []
    for polytope in coverage.polytopes:
        cost = round(polytope.depth * unit, 2)
        while polytope.depth and cost / unit * unit == cost:
            cost = round(cost + 0.01, 2)
        polytopes.append(dataclasses.replace(polytope, cost=cost))
    calibrated = CoverageSet(coverage.basis, polytopes, mirrored=coverage.mirrored,
                             atol=coverage.atol)
    assert [p.depth for p in calibrated.polytopes] == [p.depth for p in polytopes]
    return calibrated


CALIBRATED_COVERAGE = _calibrated(CBRT_COVERAGE)


def _scoring_circuit(rng, num_qubits):
    """Haar blocks and controlled phases (whose mirrors cost more, so
    aggression 3 accepts costlier mirrors), single-qubit gates, barriers
    over some wires and full-width barriers."""
    circuit = QuantumCircuit(num_qubits)
    for _ in range(int(rng.integers(10, 30))):
        roll = rng.random()
        a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
        if roll < 0.45:
            circuit.unitary(haar_unitary(4, rng), [a, b], check=False)
        elif roll < 0.65:
            circuit.cp(float(rng.uniform(0.1, 3.0)), a, b)
        elif roll < 0.8:
            circuit.rz(float(rng.random()), a)
        elif roll < 0.92:
            qubits = rng.choice(num_qubits, size=int(rng.integers(2, num_qubits + 1)),
                                replace=False)
            circuit.barrier(*(int(q) for q in qubits))
        else:
            circuit.barrier()
    return circuit


@pytest.mark.parametrize("loop", ["compiled", "python"])
@pytest.mark.parametrize(
    "coverage",
    [COVERAGE, CBRT_COVERAGE, CALIBRATED_COVERAGE],
    ids=["sqrt_iswap", "cbrt_iswap", "calibrated"],
)
def test_event_stream_score_equals_evaluate(monkeypatch, coverage, loop):
    """Oracle: ``DepthMetric`` on a flat-kernel result equals
    ``evaluate(result.dag).depth`` exactly, and equals its score of the
    object router's DAG, for SABRE and MIRAGE at aggressions 0-3 over
    random couplings, in every routing trial of a layout trial."""
    if loop == "compiled" and native.router() is None:
        pytest.skip("no C compiler: the compiled routing loop is unavailable")
    if loop == "python":
        monkeypatch.setattr(native, "router", lambda: None)
    metric = DepthMetric(coverage=coverage)
    scored = []

    def checked(result):
        score = metric(result)
        assert isinstance(result.routed, RoutedOps)  # scoring built nothing
        assert score == evaluate(result.dag, coverage=coverage).depth
        scored.append(result)
        return score

    for case in range(8):
        rng = np.random.default_rng(0xDE97 + case)
        num_qubits = int(rng.integers(3, 7))
        dag = DAGCircuit.from_circuit(_scoring_circuit(rng, num_qubits))
        coupling = _random_connected_coupling(rng, num_qubits + int(rng.integers(0, 3)))
        aggression = case % 4
        for factory in (
            SabreRouterFactory(coupling),
            lambda trial: MirageSwap(coupling, coverage=coverage, aggression=aggression),
        ):
            spec = TrialSpec(
                dag=dag, reverse_dag=None, coupling=coupling, router_factory=factory,
                refinement_rounds=1, routing_trials=3, selection_metric=checked,
            )
            ref = TrialRef(0, np.random.SeedSequence(case))
            monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")
            flat = run_trial(spec, ref)
            monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "object")
            obj = run_trial(dataclasses.replace(spec, selection_metric=metric), ref)
            assert isinstance(obj.routing.routed, DAGCircuit)
            assert flat.score == obj.score
            assert _routing_stream(flat.routing) == _routing_stream(obj.routing)
    assert len(scored) == 8 * 2 * 3
    assert sum(result.mirrors_accepted for result in scored) > 0
    assert any(result.swaps_added for result in scored)


# ---------------------------------------------------------------------------
# Compiled routing loop: equal to the Python loop and the object router
# ---------------------------------------------------------------------------

SCORER_TOPOLOGIES = {
    "grid33": grid_topology(3, 3),
    "grid55": grid_topology(5, 5),
    "hh57": heavy_hex_topology(57),
    "line8": line_topology(8),
    "ring8": ring_topology(8),
}

needs_native = pytest.mark.skipif(
    native.router() is None, reason="no C compiler: the compiled routing loop is unavailable"
)


def _spy(function, calls):
    def spy(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)
    return spy


def _compiled_runs(monkeypatch):
    """Record the outcome of every ``native.route`` call: ``True`` when the
    compiled loop routed, ``False`` when it declined, ``"raised"``."""
    runs = []
    original = native.route

    def recording(*args, **kwargs):
        try:
            routed = original(*args, **kwargs)
        except Exception:
            runs.append("raised")
            raise
        runs.append(routed is not None)
        return routed

    monkeypatch.setattr(native, "route", recording)
    return runs


@st.composite
def _routing_case(draw, coupling):
    """A random routing input: circuit, layout, seed and SABRE parameters.

    About half of the two-qubit gates sit on a coupling edge under the
    layout, so stalls mix with gates that execute at once.
    """
    num_physical = coupling.num_qubits
    num_virtual = draw(st.integers(2, min(num_physical, 12)))
    v2p = draw(st.permutations(range(num_physical)))[:num_virtual]
    p2v = {physical: virtual for virtual, physical in enumerate(v2p)}
    mapped_edges = [
        (p2v[a], p2v[b]) for a, b in sorted(set(coupling.edges)) if a in p2v and b in p2v
    ]
    pair = st.lists(st.integers(0, num_virtual - 1), min_size=2, max_size=2,
                     unique=True).map(tuple)
    if mapped_edges:
        pair = st.one_of(pair, st.sampled_from(mapped_edges))
    circuit = QuantumCircuit(num_virtual)
    for a, b in draw(st.lists(pair, min_size=1, max_size=30)):
        circuit.cx(a, b)
        if draw(st.booleans()):
            circuit.h(b)
    kwargs = {
        "extended_set_size": draw(st.sampled_from([0, 1, 20])),
        "extended_set_weight": draw(st.sampled_from([0.5, 0.0, 1.0, 0.3])),
        "decay_delta": draw(st.sampled_from([0.001, 0.5])),
        "decay_reset_interval": draw(st.sampled_from([1, 2, 5])),
    }
    return circuit, list(v2p), draw(st.integers(0, 2**31)), kwargs


@needs_native
@pytest.mark.parametrize("name", sorted(SCORER_TOPOLOGIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_native_scorer_matches_python_scorer(name, data):
    """Every SWAP the compiled loop scores and draws equals the Python
    loop's: the same event stream, final layout and SWAP count, and the
    generator left in the same state."""
    coupling = SCORER_TOPOLOGIES[name]
    circuit, v2p, seed, kwargs = data.draw(_routing_case(coupling))
    intdag, table = int_dag(circuit.to_dag()), neighbor_table(coupling)

    def run(library):
        rng = np.random.default_rng(seed)
        original = native.router
        native.router = lambda: library
        try:
            state = route.route_kernel(
                intdag, table, v2p, rng, stall_limit=1000,
                commit=lambda state, node_id, physical: state.emit(node_id),
                **kwargs,
            )
        finally:
            native.router = original
        return list(state.events), state.v2p, state.swaps_added, rng.integers(2**40)

    assert run(native.router()) == run(None)


def _fuzz_circuit(rng, num_qubits):
    """Haar blocks, single-qubit gates, barriers and a wide directive."""
    circuit = QuantumCircuit(num_qubits)
    for _ in range(int(rng.integers(6, 18))):
        roll = rng.random()
        if roll < 0.6:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.unitary(haar_unitary(4, rng), [int(a), int(b)], check=False)
        elif roll < 0.8:
            circuit.rz(float(rng.random()), int(rng.integers(num_qubits)))
        elif roll < 0.9:
            qubits = rng.choice(num_qubits, size=int(rng.integers(2, num_qubits + 1)),
                                replace=False)
            circuit.barrier(*(int(q) for q in qubits))
        else:
            circuit.barrier()
    return circuit


def _three_way(monkeypatch, router_factory, dag, layout, seed):
    """Route with the compiled loop, the Python loop and the object router;
    each outcome: op stream with matrices, final layout, counts, and the
    generator's next draw."""
    outcomes = {}
    original = native.router
    for name, mode, library in (
        ("compiled", "flat", original()),
        ("python", "flat", None),
        ("object", "object", None),
    ):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", mode)
        monkeypatch.setattr(native, "router", lambda library=library: library)
        rng = np.random.default_rng(seed)
        result = router_factory().run(dag, layout.copy(), seed=rng)
        ops = [
            (node.gate.name, tuple(node.qubits),
             None if node.is_directive else node.gate.matrix().tobytes())
            for node_id in sorted(result.dag.nodes)
            for node in (result.dag.nodes[node_id],)
        ]
        outcomes[name] = (
            ops,
            result.final_layout.virtual_to_physical(),
            result.swaps_added,
            result.mirror_candidates,
            result.mirrors_accepted,
            int(rng.integers(2**40)),
        )
    monkeypatch.setattr(native, "router", original)
    return outcomes


@pytest.mark.parametrize("case", range(12))
def test_compiled_python_and_object_routers_agree(monkeypatch, case):
    """Seeded differential fuzz of the three routers over random block
    circuits with single-qubit gates and directives, random connected
    couplings, aggressions 0-3, decomposition weights, lookahead window
    sizes and decay-reset intervals."""
    rng = np.random.default_rng(0x5EED + case)
    num_qubits = int(rng.integers(3, 8))
    dag = DAGCircuit.from_circuit(_fuzz_circuit(rng, num_qubits))
    coupling = _random_connected_coupling(rng, num_qubits + int(rng.integers(0, 3)))
    layout = Layout.random(dag.num_qubits, coupling.num_qubits, rng)
    seed = int(rng.integers(0, 2**31))
    options = {
        "extended_set_size": (0, 1, 20)[case % 3],
        "decay_reset_interval": (1, 5)[case % 2],
    }
    aggression = case % 4
    weight = (1.0, 0.5, 2.0)[case % 3]
    runs = _compiled_runs(monkeypatch)
    for factory in (
        lambda: SabreSwap(coupling, **options),
        lambda: MirageSwap(coupling, coverage=COVERAGE, aggression=aggression,
                           decomposition_weight=weight, **options),
    ):
        outcomes = _three_way(monkeypatch, factory, dag, layout, seed)
        assert outcomes["compiled"] == outcomes["python"] == outcomes["object"]
    compiled = native.router() is not None
    assert runs == [compiled, False] * 2  # the compiled loop routed the first


@pytest.mark.parametrize("library", ["compiled", "python"])
def test_error_paths_match_the_object_router(monkeypatch, library):
    """A three-qubit gate and the stall limit raise the object router's
    ``TranspilerError`` from either flat loop."""
    if library == "compiled" and native.router() is None:
        pytest.skip("no C compiler: the compiled routing loop is unavailable")
    if library == "python":
        monkeypatch.setattr(native, "router", lambda: None)
    runs = _compiled_runs(monkeypatch)
    coupling = line_topology(4)
    circuit = QuantumCircuit(4).cx(0, 1).ccx(0, 1, 2)
    dag = DAGCircuit.from_circuit(circuit)
    messages = []
    for mode in ("flat", "object"):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", mode)
        with pytest.raises(TranspilerError) as raised:
            SabreSwap(coupling).run(dag, Layout.trivial(4, 4), seed=1)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] == "router requires gates with at most two qubits"

    stalled = DAGCircuit.from_circuit(QuantumCircuit(4).cx(0, 3))
    with pytest.raises(TranspilerError, match="^router failed to make progress$"):
        route.route_kernel(
            int_dag(stalled), neighbor_table(coupling), [0, 1, 2, 3],
            np.random.default_rng(1), extended_set_size=20, extended_set_weight=0.5,
            decay_delta=0.001, decay_reset_interval=5, stall_limit=0,
            commit=lambda state, node_id, physical: state.emit(node_id),
        )
    assert runs == ([False, False] if library == "python" else ["raised", "raised"])


@pytest.mark.parametrize(
    "test, kwargs",
    [
        (test_pinned_digest, {}),
        (test_direct_router_identity_with_aggressions, {}),
        (test_flat_object_identity_across_executors, {"method": "mirage", "executor": "serial"}),
        (test_flat_object_identity_across_executors, {"method": "sabre", "executor": "threads"}),
        (test_decay_reset_boundary_identity, {"interval": 2}),
        (test_property_random_dag_coupling_seed_identity, {"case": 0}),
    ],
    ids=["pinned", "aggressions", "mirage-serial", "sabre-threads", "decay", "random"],
)
def test_flat_object_identity_without_native_scorer(monkeypatch, test, kwargs):
    """With the compiled loop unavailable, the Python loop keeps the flat
    kernel byte-identical to the object router."""
    monkeypatch.setattr(native, "router", lambda: None)
    calls = []
    monkeypatch.setattr(route, "_best_edges_float", _spy(route._best_edges_float, calls))
    test(monkeypatch, **kwargs)
    assert calls


@needs_native
@pytest.mark.parametrize("method", ["sabre", "mirage"])
def test_native_run_leaves_pickles_unchanged(monkeypatch, method):
    """The compiled loop's memoised arrays live beside the IntDAG, the
    NeighborTable and the mirror table, never on them."""
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")
    coupling = grid_topology(3, 3)
    dag = _routing_input(qft(7))
    lowered = int_dag(dag)
    table = neighbor_table(coupling)
    before = (pickle.dumps(lowered), pickle.dumps(table))
    runs = _compiled_runs(monkeypatch)
    router = (
        SabreSwap(coupling) if method == "sabre"
        else MirageSwap(coupling, coverage=COVERAGE, aggression=2)
    )
    result = router.run(dag, Layout.trivial(7, 9), seed=4)
    assert result.swaps_added > 0 and runs == [True]  # the compiled loop ran
    assert (pickle.dumps(lowered), pickle.dumps(table)) == before


def test_native_scorer_loads_when_a_compiler_is_found():
    """Where ``cc`` exists the compiled loop must load, so a broken build
    cannot silently fall back to the slower Python loop."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert native.router() is not None
    assert native.load_router() is not None


# ---------------------------------------------------------------------------
# The random-stream bridge: the C tie-break draw is Generator.integers
# ---------------------------------------------------------------------------

BIT_GENERATORS = [
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
    np.random.SFC64,
]


@needs_native
@pytest.mark.parametrize("kind", BIT_GENERATORS, ids=lambda kind: kind.__name__)
def test_c_draw_equals_generator_integers(kind):
    """n = 1-200 drawn in C equal ``rng.integers(n)``, and both generators
    continue with the same stream (an odd number of 32-bit draws first, so
    a buffered half-word is in play)."""
    bounds = list(range(1, 201))
    for seed in (0, 7, 123):
        ours = np.random.Generator(kind(seed))
        numpys = np.random.Generator(kind(seed))
        ours.integers(5)
        numpys.integers(5)
        assert native.draws(native.router(), ours.bit_generator, bounds) == [
            int(numpys.integers(n)) for n in bounds
        ]
        np.testing.assert_equal(ours.bit_generator.state, numpys.bit_generator.state)
        assert (ours.integers(2**40), ours.random()) == (numpys.integers(2**40), numpys.random())
        assert native.draw_matches(native.router(), ours)


@needs_native
def test_failed_draw_probe_routes_in_python(monkeypatch):
    """A bit-generator type whose C draw disagrees with ``integers`` in the
    probe is routed by the Python loop, with identical output."""
    coupling = grid_topology(3, 3)
    dag = _routing_input(qft(7))

    def routed():
        result = MirageSwap(coupling, coverage=COVERAGE, aggression=2).run(
            dag, Layout.trivial(7, 9), seed=np.random.default_rng(5)
        )
        return _routing_stream(result), result.mirrors_accepted

    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")
    expected = routed()
    monkeypatch.setattr(native, "_draw_matches", {})
    real_draws = native.draws
    monkeypatch.setattr(native, "draws", lambda *args: [
        value + 1 for value in real_draws(*args)
    ])
    runs = _compiled_runs(monkeypatch)
    calls = []
    monkeypatch.setattr(route, "_best_edges_float", _spy(route._best_edges_float, calls))
    assert routed() == expected
    assert runs == [False] and calls
    assert native._draw_matches == {np.random.PCG64: False}


def test_unseedable_bit_generator_fails_the_probe(monkeypatch):
    """A bit-generator type that cannot be built from a seed never passes."""
    class Unseedable(np.random.PCG64):
        def __init__(self):
            super().__init__(0)

    monkeypatch.setattr(native, "_draw_matches", {})
    library = native.router()
    if library is None:
        pytest.skip("no C compiler: the compiled routing loop is unavailable")
    assert not native.draw_matches(library, np.random.Generator(Unseedable()))


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh routing-library build cache, with the loader's compiler checked."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("MIRAGE_CACHE_DISABLE", raising=False)
    return tmp_path / "native"


def _cached_library(cache_dir):
    return cache_dir / f"route-{native.cache_key(shutil.which('cc'))}.so"


def _opened_paths(monkeypatch):
    opened = []
    original = native._open
    monkeypatch.setattr(native, "_open", lambda path: opened.append(Path(path)) or original(path))
    return opened


def test_loader_builds_into_the_cache_once(cache_dir, monkeypatch):
    assert native.load_router() is not None
    library = _cached_library(cache_dir)
    assert library.is_file() and native._trusted(library)
    assert [p.name for p in cache_dir.iterdir()] == [library.name]  # no temp left
    builds = []
    monkeypatch.setattr(native, "_compile", _spy(native._compile, builds))
    assert native.load_router() is not None
    assert not builds  # the second load reuses the cached build


@pytest.mark.parametrize("content", [b"", b"not a shared library"], ids=["empty", "garbage"])
def test_loader_rebuilds_a_corrupt_cached_library(cache_dir, monkeypatch, content):
    library = _cached_library(cache_dir)
    cache_dir.mkdir(parents=True)
    library.write_bytes(content)
    library.chmod(0o755)
    builds = []
    monkeypatch.setattr(native, "_compile", _spy(native._compile, builds))
    assert native.load_router() is not None
    assert len(builds) == 1
    assert library.stat().st_size > len(content)


def test_loader_falls_back_when_the_rebuild_fails(cache_dir, monkeypatch):
    library = _cached_library(cache_dir)
    cache_dir.mkdir(parents=True)
    library.write_bytes(b"garbage")
    library.chmod(0o755)
    monkeypatch.setattr(native, "_compile", lambda compiler, directory: None)
    assert native.load_router() is None
    assert not library.exists()


def test_loader_without_a_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    assert native.load_router() is None
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("mode", [0o775, 0o757], ids=["group-writable", "world-writable"])
def test_loader_never_loads_a_writable_cached_library(cache_dir, monkeypatch, mode):
    assert native.load_router() is not None
    library = _cached_library(cache_dir)
    library.chmod(mode)
    opened = _opened_paths(monkeypatch)
    assert native.load_router() is not None  # built privately instead
    assert opened and library not in opened
    assert library.stat().st_mode & 0o777 == mode  # left alone


def test_loader_never_loads_a_foreign_cached_library(cache_dir, monkeypatch):
    assert native.load_router() is not None
    library = _cached_library(cache_dir)
    uid = os.getuid()
    monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
    opened = _opened_paths(monkeypatch)
    assert native.load_router() is not None
    assert opened and library not in opened


def test_loader_with_cache_disabled_builds_in_a_removed_temp_dir(cache_dir, monkeypatch):
    monkeypatch.setenv("MIRAGE_CACHE_DISABLE", "1")
    made = []
    original = tempfile.mkdtemp
    monkeypatch.setattr(native.tempfile, "mkdtemp",
                        lambda **kwargs: made.append(original(**kwargs)) or made[-1])
    opened = _opened_paths(monkeypatch)
    assert native.load_router() is not None
    assert len(made) == 1 and not os.path.exists(made[0])
    assert opened[0].parent == Path(made[0])
    assert not cache_dir.exists()
