"""Transpilation quality metrics.

The paper evaluates transpilers on three axes (Section V / VI-B):

* **critical-path depth** — the weighted longest path through the mapped
  DAG, where every two-qubit block is weighted by its estimated
  decomposition cost in normalised pulse units (iSWAP = 1.0, sqrt(iSWAP) =
  0.5, a SWAP in the sqrt(iSWAP) basis = 1.5, ...);
* **total two-qubit gate cost** — the same weights summed over all nodes;
* **SWAP count** — explicitly inserted SWAP gates (a mirrored gate absorbs
  its SWAP and therefore does not count).

The decomposition-cost estimate comes from the coverage set of the target
basis gate, exactly as MIRAGE itself estimates costs while routing.
"""

from __future__ import annotations

import dataclasses

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit, DAGNode
from repro.circuits.gates import UnitaryGate
from repro.polytopes.cache import GLOBAL_COORDINATE_CACHE
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.weyl.catalog import coordinate_of_named_gate


def gate_coordinate(gate) -> tuple[float, float, float]:
    """Weyl coordinate of a two-qubit gate.

    Uses, in order of preference: the coordinate annotation cached on a
    consolidated :class:`UnitaryGate` block, the closed-form coordinate of a
    named gate, or a (cached) extraction from the gate matrix.
    """
    if isinstance(gate, UnitaryGate) and gate.coordinate is not None:
        return gate.coordinate
    try:
        return coordinate_of_named_gate(gate.name, *gate.params).to_tuple()
    except ValueError:
        return GLOBAL_COORDINATE_CACHE.coordinate(gate.matrix())


def node_coordinate(node: DAGNode) -> tuple[float, float, float]:
    """Weyl coordinate of a DAG node's two-qubit gate."""
    return gate_coordinate(node.gate)


def gate_cost(node: DAGNode, coverage: CoverageSet) -> float:
    """Estimated decomposition cost (in pulse units) of a DAG node."""
    if not node.is_two_qubit:
        return 0.0
    return coverage.cost_of(node_coordinate(node))


@dataclasses.dataclass(frozen=True)
class CircuitMetrics:
    """Quality metrics of a routed circuit.

    Attributes:
        depth: weighted critical-path length in pulse units.
        total_cost: summed pulse cost over all two-qubit gates.
        swap_count: number of explicit SWAP gates in the circuit.
        two_qubit_count: number of two-qubit gates (blocks count as one).
        gate_depth: plain (unweighted) two-qubit gate depth.
        mirrors_accepted: number of mirror substitutions (MIRAGE only).
    """

    depth: float
    total_cost: float
    swap_count: int
    two_qubit_count: int
    gate_depth: int
    mirrors_accepted: int = 0

    def as_dict(self) -> dict[str, float | int]:
        return dataclasses.asdict(self)


def evaluate(
    circuit: QuantumCircuit | DAGCircuit,
    basis: str = "sqrt_iswap",
    coverage: CoverageSet | None = None,
    mirrors_accepted: int = 0,
) -> CircuitMetrics:
    """Compute :class:`CircuitMetrics` for a (routed) circuit or DAG.

    Args:
        circuit: the circuit or DAG to score.
        basis: target basis-gate name used for the cost weights.
        coverage: reuse an existing coverage set (otherwise the shared,
            memoised set for ``basis`` is used).
        mirrors_accepted: forwarded into the result for reporting.
    """
    dag = circuit if isinstance(circuit, DAGCircuit) else circuit.to_dag()
    coverage = coverage if coverage is not None else get_coverage_set(basis)

    # One batched coverage query for every two-qubit node up front; the
    # critical-path walk then reads costs from a plain dict.
    two_qubit_nodes = [
        node for node in dag.nodes.values() if node.is_two_qubit
    ]
    if two_qubit_nodes:
        coordinates = [node_coordinate(node) for node in two_qubit_nodes]
        cost_by_node = dict(zip(
            (node.node_id for node in two_qubit_nodes),
            coverage.cost_of_many(coordinates).tolist(),
        ))
    else:
        cost_by_node = {}

    # One walk in insertion (topological) order computes both critical
    # paths — weighted by cost, and by one per two-qubit gate — with the
    # per-wire clocks of ``DAGCircuit.longest_path_length``.
    clock: dict[int, float] = {}
    gate_clock: dict[int, float] = {}
    weights: list[float] = []
    depth = 0.0
    gate_depth = 0.0
    swap_count = 0
    for node in dag.nodes.values():
        qubits = node.qubits
        weight = cost_by_node.get(node.node_id)
        if weight is None:
            weight = 0.0
            gate_weight = 0.0
        else:
            gate_weight = 1.0
        weights.append(weight)
        distance = max(
            (clock[q] for q in qubits if q in clock), default=0.0
        ) + weight
        gate_distance = max(
            (gate_clock[q] for q in qubits if q in gate_clock), default=0.0
        ) + gate_weight
        for qubit in qubits:
            clock[qubit] = distance
            gate_clock[qubit] = gate_distance
        depth = max(depth, distance)
        gate_depth = max(gate_depth, gate_distance)
        if node.gate.name == "swap":
            swap_count += 1
    return CircuitMetrics(
        depth=float(depth),
        total_cost=float(sum(weights)),
        swap_count=swap_count,
        two_qubit_count=len(two_qubit_nodes),
        gate_depth=int(gate_depth),
        mirrors_accepted=mirrors_accepted,
    )


def improvement(before: CircuitMetrics, after: CircuitMetrics) -> dict[str, float]:
    """Relative improvements (positive = ``after`` is better), as fractions."""

    def relative(old: float, new: float) -> float:
        if old == 0:
            return 0.0
        return (old - new) / old

    return {
        "depth": relative(before.depth, after.depth),
        "total_cost": relative(before.total_cost, after.total_cost),
        "swap_count": relative(before.swap_count, after.swap_count),
    }
