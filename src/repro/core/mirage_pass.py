"""The MIRAGE routing pass (paper Section IV).

MIRAGE inherits the SABRE workflow — front layer, execute layer, SWAP
scoring — and adds an *intermediate layer* between execution and the mapped
DAG: every two-qubit gate that becomes executable is compared against its
mirror gate (the same gate followed by a virtual SWAP of its output wires).
The comparison combines

* the estimated decomposition cost of the gate vs. its mirror (from the
  coverage set of the target basis gate), and
* the routing pressure of the layout that each choice leaves behind (the
  same distance + lookahead heuristic SABRE uses for SWAP selection),

and the mirror is accepted according to the configured aggression level
(Algorithm 2).  Accepting a mirror swaps the two virtual qubits in the
layout — data moves without any inserted SWAP gate, which is exactly the
"mirage SWAP" the paper is named after.

The three per-gate facts the decision needs — the gate's cost, its
mirror's cost and its mirror's coordinate — depend only on the gate and
the basis, never the layout.  The flat kernel therefore reads them from a
:class:`MirrorTable` lowered once per ``IntDAG`` and coverage set; its
compiled loop makes the whole decision from the table's costs and the
aggression level, with no call back into Python.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.dag import DAGCircuit, DAGNode
from repro.circuits.gates import Gate, UnitaryGate
from repro.core.aggression import Aggression, accept_mirror
from repro.linalg.constants import SWAP
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.transpiler.kernel import IntDAG, KernelState, MirrorDecision
from repro.transpiler.layout import Layout
from repro.transpiler.metrics import gate_coordinate, node_coordinate
from repro.transpiler.passes.sabre_swap import SabreSwap
from repro.transpiler.topologies import CouplingMap
from repro.weyl.mirror import mirror_coordinate, mirror_coordinates_many

#: The gate the router inserts for a SWAP (see ``route.replay``).
_SWAP_GATE = Gate("swap", 2)


@dataclasses.dataclass
class MirrorTable:
    """Layout-independent mirror facts per gate id of one ``IntDAG``.

    Rows are indexed like ``IntDAG.gates`` and filled for the gates of
    two-qubit nodes only (other rows stay zero):

    * ``cost``: decomposition cost of the gate over ``unit_cost``;
    * ``mirror_cost``: the same for its mirror ``SWAP . U``;
    * ``pulse_cost``/``mirror_pulse_cost``: the same two costs in pulse
      units, exactly as ``cost_of_many`` returned them;
    * ``mirror_coordinates``: the mirror's canonical Weyl coordinate.

    ``swap_pulse_cost`` is the pulse cost of the named ``swap`` gate the
    router inserts.  Every value equals what the scalar
    ``gate_coordinate`` → ``mirror_coordinate`` → ``cost_of`` chain gives
    for that gate.  The compiled routing loop reads ``cost`` and
    ``mirror_cost`` as ``double`` arrays; they are python lists for the
    Python loop's commit hook, where scalar list indexing is several times
    faster than ndarray indexing.  The depth selection metric weights a
    routed event stream with the pulse costs (see
    :func:`~repro.transpiler.kernel.route.critical_path`): the raw values,
    because ``cost * unit_cost`` need not round-trip.  A mirror coordinate
    is read only when a routed DAG with an accepted mirror is built.  The
    table lives as long as its ``IntDAG`` (and the routed op streams that
    reference it); in a worker that is as long as the payload memo keeps
    the payload.
    """

    cost: list[float]
    mirror_cost: list[float]
    pulse_cost: list[float]
    mirror_pulse_cost: list[float]
    swap_pulse_cost: float
    mirror_coordinates: np.ndarray

    @classmethod
    def build(cls, intdag: IntDAG, coverage: CoverageSet) -> "MirrorTable":
        """One coordinate per distinct gate, then one batched mirror
        transform and one batched coverage query over (gate, mirror) rows
        and the ``swap`` gate's row.

        ``mirror_coordinates_many`` and ``cost_of_many`` are element-wise
        identical to their scalar forms, so the table equals a per-gate
        scalar fill.
        """
        size = len(intdag.gates)
        pulse_cost = np.zeros(size)
        mirror_pulse_cost = np.zeros(size)
        mirrored = np.zeros((size, 3))
        gate_ids = np.unique(intdag.gate_ids[intdag.two_qubit == 1])
        coordinates = np.array(
            [gate_coordinate(intdag.gates[g]) for g in gate_ids.tolist()],
            dtype=float,
        ).reshape(-1, 3)
        mirrors = mirror_coordinates_many(coordinates)
        # Interleaved (gate, mirror) rows: the coverage memo is filled in
        # the pairwise order the per-commit queries used.  The swap row
        # goes last.
        rows = np.concatenate((
            np.stack((coordinates, mirrors), axis=1).reshape(-1, 3),
            [gate_coordinate(_SWAP_GATE)],
        ))
        costs = coverage.cost_of_many(rows)
        pulse_cost[gate_ids] = costs[0:-1:2]
        mirror_pulse_cost[gate_ids] = costs[1:-1:2]
        mirrored[gate_ids] = mirrors
        unit = coverage.unit_cost
        return cls(
            cost=(pulse_cost / unit).tolist(),
            mirror_cost=(mirror_pulse_cost / unit).tolist(),
            pulse_cost=pulse_cost.tolist(),
            mirror_pulse_cost=mirror_pulse_cost.tolist(),
            swap_pulse_cost=float(costs[-1]),
            mirror_coordinates=mirrored,
        )

    def mirror_gate(self, gate, gate_id: int) -> UnitaryGate:
        """The mirror of ``gate`` (row ``gate_id``), built from the table's
        coordinate."""
        coordinate = tuple(self.mirror_coordinates[gate_id].tolist())
        return MirageSwap._mirror_gate(gate, coordinate)


def mirror_table(intdag: IntDAG, coverage: CoverageSet) -> MirrorTable:
    """The :class:`MirrorTable` of ``intdag`` under ``coverage``, memoised.

    Memoised on the ``IntDAG`` per coverage set, like the lookahead
    windows of :meth:`KernelState.lookahead_pairs`, so every routing run
    over one lowering (refinement rounds, layout trials) shares it.  It
    is dropped from the ``IntDAG`` pickle; workers rebuild it on first
    use.
    """
    tables = intdag.__dict__.setdefault("_mirror_tables", {})
    table = tables.get(coverage)
    if table is None:
        table = tables[coverage] = MirrorTable.build(intdag, coverage)
    return table


class MirageSwap(SabreSwap):
    """SABRE-style router with mirror-gate substitution.

    Args:
        coupling: device coupling map.
        coverage: coverage set of the target basis gate (cost oracle).
        aggression: mirror acceptance level 0-3 (paper Algorithm 2).
        decomposition_weight: weight of the decomposition-cost term relative
            to the routing-heuristic term in the mirror decision.
        kwargs: forwarded to :class:`SabreSwap` (lookahead, decay, seed).
    """

    def __init__(
        self,
        coupling: CouplingMap,
        coverage: CoverageSet | None = None,
        *,
        basis: str = "sqrt_iswap",
        aggression: int | Aggression = Aggression.IMPROVE,
        decomposition_weight: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(coupling, **kwargs)
        self.coverage = coverage if coverage is not None else get_coverage_set(basis)
        self.aggression = Aggression(int(aggression))
        self.decomposition_weight = decomposition_weight

    # -- the intermediate layer ---------------------------------------------

    def _commit_two_qubit(
        self,
        node: DAGNode,
        physical: tuple[int, ...],
        layout: Layout,
        out: DAGCircuit,
        dag: DAGCircuit,
    ) -> None:
        self._stats["candidates"] += 1

        coordinate = node_coordinate(node)
        mirrored_coordinate = mirror_coordinate(coordinate)

        unit = self.coverage.unit_cost
        # Gate and mirror resolved by one batched coverage query (and the
        # shared memo table, so repeated blocks stay cached).
        pair_costs = self.coverage.cost_of_many(
            (coordinate, mirrored_coordinate)
        )
        decomposition_current = float(pair_costs[0]) / unit
        decomposition_mirror = float(pair_costs[1]) / unit

        lookahead = self._extended_set([node], dag)
        routing_current, routing_mirror = self._mirror_routing_costs(
            lookahead, layout, physical
        )

        cost_current = (
            self.decomposition_weight * decomposition_current + routing_current
        )
        cost_trial = (
            self.decomposition_weight * decomposition_mirror + routing_mirror
        )

        if accept_mirror(cost_current, cost_trial, self.aggression):
            self._stats["mirrors"] += 1
            mirrored_gate = self._mirror_gate(node.gate, mirrored_coordinate)
            out.add_node(mirrored_gate, physical)
            layout.swap_physical(*physical)
        else:
            out.add_node(node.gate, physical)

    # -- the intermediate layer, flat-kernel twin ---------------------------

    def _flat_mirror(self, intdag: IntDAG) -> MirrorDecision:
        """This lowering's mirror table and the decision's parameters.

        The compiled routing loop makes the decision from these alone; the
        Python loop calls :meth:`_commit_two_qubit_flat`, which reads the
        same table.
        """
        self._mirror_table = mirror_table(intdag, self.coverage)
        return MirrorDecision(
            self._mirror_table, int(self.aggression), self.decomposition_weight
        )

    def _commit_two_qubit_flat(
        self, state: KernelState, node_id: int, physical: tuple[int, int]
    ) -> None:
        """Mirror decision over flat kernel state (same arithmetic, same
        acceptance, byte-identical outputs as :meth:`_commit_two_qubit`
        and as the compiled loop).

        The decomposition terms come from the run's :class:`MirrorTable`;
        only the routing terms depend on the layout.
        """
        state.mirror_candidates += 1

        gate_id = state.gate_id(node_id)
        table = self._mirror_table

        lookahead = state.lookahead_pairs(node_id)
        routing_current, routing_mirror = self._mirror_routing_costs_flat(
            state, lookahead, physical
        )

        cost_current = (
            self.decomposition_weight * table.cost[gate_id] + routing_current
        )
        cost_trial = (
            self.decomposition_weight * table.mirror_cost[gate_id]
            + routing_mirror
        )

        if accept_mirror(cost_current, cost_trial, self.aggression):
            state.mirrors_accepted += 1
            state.emit_mirror(node_id, physical)
        else:
            state.emit(node_id)

    def _mirror_routing_costs_flat(
        self,
        state: KernelState,
        pairs: list[tuple[int, int]],
        physical: tuple[int, int],
    ) -> tuple[float, float]:
        """Current/mirrored routing pressure over flat lookahead pairs.

        On connected graphs both window sums run in exact int arithmetic;
        the float path reproduces the object path's inf handling.  Either
        way the returned floats match :meth:`_mirror_routing_costs` —
        integer-valued distances make the delta-adjusted sum equal the
        direct sum computed here.
        """
        if not pairs:
            return 0.0, 0.0
        swap_a, swap_b = physical
        table = state.table
        if table.connected:
            distance = table.dist_int_lists()
            base = 0
            swapped = 0
        else:
            distance = table.dist_lists()
            base = 0.0
            swapped = 0.0
        for left, right in pairs:
            base += distance[left][right]
            new_left = (
                swap_b if left == swap_a else swap_a if left == swap_b else left
            )
            new_right = (
                swap_b if right == swap_a
                else swap_a if right == swap_b
                else right
            )
            swapped += distance[new_left][new_right]
        count = len(pairs)
        weight = self.extended_set_weight
        current = float(0.0 + weight * base / count)
        mirrored = float(0.0 + weight * swapped / count)
        return current, mirrored

    def _mirror_routing_costs(
        self,
        lookahead: list[DAGNode],
        layout: Layout,
        physical: tuple[int, ...],
    ) -> tuple[float, float]:
        """Routing pressure of the current layout and of the mirrored one.

        Historically this copied the layout, applied the virtual SWAP and
        rescored the whole lookahead window; now only the lookahead gates
        touching the two swapped physical qubits are re-evaluated as a
        delta on the base sum.  Hop-count distances are integer-valued, so
        the delta-adjusted sum is exactly the sum a full rescore would
        produce and the returned floats are bit-identical to the
        copy-and-rescore pair.
        """
        if not lookahead:
            return 0.0, 0.0
        distance = self.coupling.distance_matrix
        pairs = [
            (layout.v2p(node.qubits[0]), layout.v2p(node.qubits[1]))
            for node in lookahead
        ]
        base = sum(distance[left, right] for left, right in pairs)
        swap_a, swap_b = physical
        if not np.isfinite(base):
            # Infinite distances (disconnected coupling) poison the delta
            # arithmetic with inf - inf; rescore against a swapped copy.
            trial_layout = layout.copy()
            trial_layout.swap_physical(swap_a, swap_b)
            return (
                self.routing_heuristic([], lookahead, layout),
                self.routing_heuristic([], lookahead, trial_layout),
            )
        delta = 0.0
        for left, right in pairs:
            left_hit = left == swap_a or left == swap_b
            right_hit = right == swap_a or right == swap_b
            if not (left_hit or right_hit):
                continue
            if left_hit and right_hit:
                continue  # both endpoints swap; distance unchanged
            new_left = (
                swap_b if left == swap_a else swap_a if left == swap_b else left
            )
            new_right = (
                swap_b if right == swap_a
                else swap_a if right == swap_b
                else right
            )
            delta += distance[new_left, new_right] - distance[left, right]
        count = len(pairs)
        weight = self.extended_set_weight
        current = float(0.0 + weight * base / count)
        mirrored = float(0.0 + weight * (base + delta) / count)
        return current, mirrored

    @staticmethod
    def _mirror_gate(
        gate, mirrored_coordinate: tuple[float, float, float]
    ) -> UnitaryGate:
        """Build the mirror gate ``SWAP . U`` as an annotated block.

        The full gate is replaced with a new unitary rather than an
        appended SWAP gate (paper Section VI-C), the mirrored coordinate is
        attached analytically (no re-extraction), and the unitarity check is
        skipped because mirroring preserves unitarity by construction.
        """
        matrix = SWAP @ gate.matrix()
        return UnitaryGate(
            matrix,
            label=f"{gate.name}_mirror",
            check=False,
            coordinate=tuple(mirrored_coordinate),
        )
