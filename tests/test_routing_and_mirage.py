"""Tests for SABRE routing, the MIRAGE pass and the top-level transpile API."""

import pytest

from repro.exceptions import TranspilerError
from repro.circuits import QuantumCircuit
from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import (
    Aggression,
    MirageSwap,
    accept_mirror,
    aggression_schedule,
    compare_methods,
    fixed_schedule,
    prepare_circuit,
    schedule_from_spec,
    transpile,
)
from repro.linalg import equal_up_to_global_phase
from repro.polytopes import get_coverage_set
from repro.transpiler import Layout, grid_topology, line_topology, ring_topology
from repro.transpiler.passes import SabreLayout, SabreSwap, depth_metric, swap_count_metric

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)


def _route_and_verify(circuit, coupling, router_cls=SabreSwap, **router_kwargs):
    """Route with a trivial layout and verify unitary equivalence."""
    prepared = prepare_circuit(circuit)
    dag = prepared.to_dag()
    router = router_cls(coupling, **router_kwargs)
    layout = Layout.trivial(prepared.num_qubits, coupling.num_qubits)
    result = router.run(dag, layout, seed=5)

    routed = result.to_circuit()
    assert routed.num_qubits == coupling.num_qubits
    # Every two-qubit gate must respect the coupling graph.
    for instr in routed:
        if instr.is_two_qubit:
            assert coupling.are_connected(*instr.qubits)

    # Unitary correctness up to the final layout permutation.
    embedded = prepared.remap(
        [result.initial_layout.v2p(q) for q in range(prepared.num_qubits)],
        coupling.num_qubits,
    )
    fixup = QuantumCircuit(coupling.num_qubits)
    position = {v: result.final_layout.v2p(v) for v in range(prepared.num_qubits)}
    target = {v: result.initial_layout.v2p(v) for v in range(prepared.num_qubits)}
    for virtual in range(prepared.num_qubits):
        if position[virtual] != target[virtual]:
            other = next(
                (w for w, p in position.items() if p == target[virtual]), None
            )
            fixup.swap(position[virtual], target[virtual])
            if other is not None:
                position[other] = position[virtual]
            position[virtual] = target[virtual]
    total = fixup.to_matrix() @ routed.to_matrix()
    assert equal_up_to_global_phase(total, embedded.to_matrix(), atol=1e-6)
    return result


# ---------------------------------------------------------------------------
# SABRE baseline
# ---------------------------------------------------------------------------


def test_sabre_routes_connected_circuit_without_swaps():
    result = _route_and_verify(ghz(4), line_topology(4))
    assert result.swaps_added == 0


def test_sabre_inserts_swaps_when_needed():
    circuit = QuantumCircuit(4)
    circuit.cx(0, 3)
    result = _route_and_verify(circuit, line_topology(4))
    assert result.swaps_added >= 1


def test_sabre_routes_qft_on_line_correctly():
    result = _route_and_verify(qft(5), line_topology(5))
    assert result.swaps_added > 0


def test_sabre_routes_on_ring_and_grid():
    _route_and_verify(qft(5), ring_topology(5))
    _route_and_verify(twolocal_full(6), grid_topology(2, 3))


def test_sabre_rejects_disconnected_stall():
    from repro.transpiler import CouplingMap

    disconnected = CouplingMap([(0, 1), (2, 3)], 4)
    circuit = QuantumCircuit(4)
    circuit.cx(0, 2)
    with pytest.raises(TranspilerError):
        SabreSwap(disconnected).run(
            prepare_circuit(circuit).to_dag(), Layout.trivial(4, 4), seed=1
        )


def test_sabre_rejects_wide_gates():
    circuit = QuantumCircuit(3)
    circuit.ccx(0, 1, 2)  # not unrolled on purpose
    with pytest.raises(TranspilerError):
        SabreSwap(line_topology(3)).run(circuit.to_dag(), Layout.trivial(3, 3))


# ---------------------------------------------------------------------------
# MIRAGE router
# ---------------------------------------------------------------------------


def test_mirage_routes_correctly_with_mirrors():
    result = _route_and_verify(
        twolocal_full(4),
        line_topology(4),
        router_cls=MirageSwap,
        coverage=COVERAGE,
        aggression=Aggression.NEUTRAL,
    )
    assert result.mirrors_accepted > 0
    assert result.mirror_candidates >= result.mirrors_accepted


def test_mirage_aggression_zero_matches_sabre_swap_count():
    circuit = twolocal_full(4)
    sabre = _route_and_verify(circuit, line_topology(4))
    mirage0 = _route_and_verify(
        circuit,
        line_topology(4),
        router_cls=MirageSwap,
        coverage=COVERAGE,
        aggression=Aggression.NEVER,
    )
    assert mirage0.mirrors_accepted == 0
    assert mirage0.swaps_added == sabre.swaps_added


def test_mirage_reduces_depth_on_twolocal_line():
    """Paper Fig. 8: MIRAGE absorbs all SWAPs of the fully-entangling ansatz."""
    circuit = twolocal_full(4)
    sabre = transpile(circuit, line_topology(4), method="sabre",
                      selection="swaps", layout_trials=4, use_vf2=False, seed=3)
    mirage = transpile(circuit, line_topology(4), method="mirage",
                       selection="depth", layout_trials=4, use_vf2=False, seed=3)
    assert mirage.metrics.depth < sabre.metrics.depth
    assert mirage.swaps_added <= sabre.swaps_added
    assert mirage.mirrors_accepted > 0


def test_mirage_correct_on_random_circuits():
    from repro.circuits import random_two_qubit_block_circuit

    for seed in range(3):
        circuit = random_two_qubit_block_circuit(5, 10, seed=seed)
        _route_and_verify(
            circuit,
            line_topology(5),
            router_cls=MirageSwap,
            coverage=COVERAGE,
            aggression=Aggression.IMPROVE,
        )


# ---------------------------------------------------------------------------
# Aggression policy
# ---------------------------------------------------------------------------


def test_accept_mirror_levels():
    assert not accept_mirror(1.0, 0.5, 0)
    assert accept_mirror(1.0, 0.5, 1)
    assert not accept_mirror(1.0, 1.0, 1)
    assert accept_mirror(1.0, 1.0, 2)
    assert not accept_mirror(1.0, 1.5, 2)
    assert accept_mirror(1.0, 99.0, 3)
    with pytest.raises(ValueError):
        accept_mirror(1.0, 1.0, 7)


def test_aggression_schedule_distribution():
    schedule = aggression_schedule(20)
    counts = {level: schedule.count(level) for level in Aggression}
    assert counts[Aggression.IMPROVE] == 9
    assert counts[Aggression.NEUTRAL] == 9
    assert counts[Aggression.NEVER] == 1
    assert counts[Aggression.ALWAYS] == 1


def test_aggression_schedule_small_budget():
    schedule = aggression_schedule(4)
    assert len(schedule) == 4
    assert set(schedule) <= set(Aggression)


def test_schedule_from_spec_variants():
    assert schedule_from_spec(3, 2) == fixed_schedule(3, 2)
    assert len(schedule_from_spec(5, "mixed")) == 5
    assert schedule_from_spec(4, [1, 3]) == [1, 3, 1, 3]
    with pytest.raises(ValueError):
        schedule_from_spec(3, "bogus")
    with pytest.raises(ValueError):
        schedule_from_spec(3, [])
    with pytest.raises(ValueError):
        aggression_schedule(0)


# ---------------------------------------------------------------------------
# SabreLayout driver and transpile API
# ---------------------------------------------------------------------------


def test_sabre_layout_picks_best_trial():
    circuit = prepare_circuit(qft(5))
    driver = SabreLayout(
        line_topology(5),
        layout_trials=3,
        refinement_rounds=1,
        selection_metric=swap_count_metric,
        seed=2,
    )
    best = driver.run(circuit.to_dag())
    assert best.score == best.routing.swaps_added
    assert best.trial_index in range(3)


def test_depth_metric_factory():
    metric = depth_metric(coverage=COVERAGE)
    circuit = prepare_circuit(ghz(3))
    router = SabreSwap(line_topology(3))
    result = router.run(circuit.to_dag(), Layout.trivial(3, 3), seed=0)
    assert metric(result) > 0


def test_transpile_vf2_short_circuit():
    result = transpile(ghz(4), line_topology(4), method="mirage", seed=1)
    assert result.method == "vf2"
    assert result.swaps_added == 0


def _matches_input_unitary(result, circuit) -> bool:
    """Whether ``result.circuit`` implements ``circuit`` on the device.

    Input qubit ``q`` starts on physical ``initial_layout.v2p(q)`` and ends
    on ``final_layout.v2p(output_permutation[q])``; every other physical
    qubit starts in |0>, so only those columns of the routed unitary are
    compared (ancilla wires may be permuted among themselves).
    """
    width = result.circuit.num_qubits
    start = [result.initial_layout.v2p(q) for q in range(circuit.num_qubits)]
    end = [
        result.final_layout.v2p(result.output_permutation[q])
        for q in range(circuit.num_qubits)
    ]
    # Expected: the input at its start positions, then a wire permutation
    # carrying start[q] to end[q] (ancillas fill the remaining slots).
    expected = circuit.remap(start, width)
    free_starts = [p for p in range(width) if p not in start]
    free_ends = [p for p in range(width) if p not in end]
    destination = dict(zip(start + free_starts, end + free_ends))
    where = list(range(width))  # where[p]: current wire of the content from p
    for source in range(width):
        target = destination[source]
        current = where[source]
        if current != target:
            expected.swap(current, target)
            other = where.index(target)
            where[other], where[source] = current, target
    columns = [
        index
        for index in range(2**width)
        if all(not (index >> (width - 1 - p)) & 1 for p in free_starts)
    ]
    probe = QuantumCircuit(width)
    probe.x(0)
    if probe.to_matrix()[1, 0] != 0:  # little-endian qubit order
        columns = [
            index
            for index in range(2**width)
            if all(not (index >> p) & 1 for p in free_starts)
        ]
    return equal_up_to_global_phase(
        result.circuit.to_matrix()[:, columns],
        expected.to_matrix()[:, columns],
        atol=1e-6,
    )


@pytest.mark.parametrize("num_qubits", [4, 5, 6])
@pytest.mark.parametrize("method", ["sabre", "mirage"])
def test_transpile_records_input_swap_permutation(num_qubits, method):
    """QFT ends in input SWAPs; with the recorded permutation the routed
    circuit equals the input unitary (up to layouts) on the 3x3 lattice."""
    circuit = qft(num_qubits)
    assert "swap" in circuit.count_ops()
    result = transpile(circuit, grid_topology(3, 3), method=method,
                       coverage=COVERAGE, layout_trials=2, seed=7)
    assert result.method == method
    assert sorted(result.output_permutation) == list(range(num_qubits))
    assert result.output_permutation != list(range(num_qubits))
    assert _matches_input_unitary(result, circuit)


def test_output_permutation_is_identity_without_input_swaps():
    result = transpile(qft(4, do_swaps=False), grid_topology(3, 3),
                       coverage=COVERAGE, layout_trials=2, seed=7)
    assert result.output_permutation == [0, 1, 2, 3]
    assert _matches_input_unitary(result, qft(4, do_swaps=False))


def test_transpile_validation_errors():
    with pytest.raises(TranspilerError):
        transpile(ghz(4), line_topology(3), seed=1)
    with pytest.raises(TranspilerError):
        transpile(ghz(3), line_topology(3), method="magic", seed=1)
    with pytest.raises(TranspilerError):
        transpile(ghz(3), line_topology(3), selection="volume", seed=1)


def test_transpile_by_topology_name():
    result = transpile(qft(4), "line", method="mirage", layout_trials=2,
                       use_vf2=False, seed=4)
    assert result.circuit.num_qubits == 4
    assert result.metrics.depth > 0


def test_compare_methods_returns_all_variants():
    results = compare_methods(
        twolocal_full(4), line_topology(4), layout_trials=2, seed=5
    )
    assert set(results) == {"sabre", "mirage-swaps", "mirage-depth"}
    summary = results["mirage-depth"].summary()
    assert summary["method"] == "mirage"
    assert results["mirage-depth"].metrics.depth <= results["sabre"].metrics.depth
