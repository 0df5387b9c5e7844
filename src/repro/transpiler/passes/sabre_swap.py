"""SABRE swap routing (Li, Ding, Xie — ASPLOS 2019), the paper's baseline.

The router walks the circuit DAG keeping a *front layer* of gates whose
dependencies are resolved.  Gates whose qubits are adjacent on the device
execute immediately; when the front layer stalls, candidate SWAPs on edges
touching the front-layer qubits are scored with the distance + lookahead +
decay heuristic and the best one is inserted.

The class is written so that MIRAGE (:mod:`repro.core.mirage_pass`) can
subclass it and override only :meth:`SabreSwap._commit_two_qubit` — the hook
where the paper's intermediate layer decides between a gate and its mirror.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Sequence

import numpy as np

from repro.exceptions import TranspilerError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit, DAGNode
from repro.circuits.gates import Gate
from repro.linalg.random import _as_rng
from repro.transpiler.kernel import (
    IntDAG,
    KernelState,
    MirrorDecision,
    int_dag,
    neighbor_table,
    route_kernel,
    route_kernel_mode,
)
from repro.transpiler.kernel.route import critical_path, replay
from repro.transpiler.layout import Layout
from repro.transpiler.topologies import CouplingMap

#: Default SABRE hyper-parameters (paper Section V keeps the defaults).
EXTENDED_SET_SIZE = 20
EXTENDED_SET_WEIGHT = 0.5
DECAY_DELTA = 0.001
DECAY_RESET_INTERVAL = 5


@dataclasses.dataclass(frozen=True)
class RoutedOps:
    """The flat kernel's routed event stream, not yet built into a DAG.

    ``events`` is :func:`~repro.transpiler.kernel.route_kernel`'s stream;
    :meth:`to_dag` replays it from ``initial_v2p``, taking a mirrored
    node's gate from ``mirrors.mirror_gate`` (MIRAGE's
    :class:`~repro.core.mirage_pass.MirrorTable`), and
    :meth:`critical_path` scores it without building the DAG.
    """

    num_qubits: int
    name: str
    intdag: IntDAG
    initial_v2p: list[int]
    events: Sequence[int]
    mirrors: Any = None

    def to_dag(self) -> DAGCircuit:
        mirror_gate = None if self.mirrors is None else self.mirrors.mirror_gate
        out = DAGCircuit(self.num_qubits, self.name)
        for gate, physical in replay(
            self.intdag, self.num_qubits, self.initial_v2p, self.events, mirror_gate
        ):
            out.add_node(gate, physical)
        return out

    def critical_path(self, costs: Any) -> float:
        """``metrics.evaluate(self.to_dag()).depth``, from the event stream
        (see :func:`~repro.transpiler.kernel.route.critical_path`)."""
        return critical_path(
            self.intdag, self.num_qubits, self.initial_v2p, self.events, costs
        )


@dataclasses.dataclass
class RoutingResult:
    """Outcome of one routing run.

    Attributes:
        routed: the mapped circuit on physical qubits (includes inserted
            SWAPs) — a ``DAGCircuit``, or the flat kernel's
            :class:`RoutedOps` until :attr:`dag` is first read.
        initial_layout: layout at circuit start.
        final_layout: layout after the last gate.
        swaps_added: number of SWAP gates inserted by the router.
        mirrors_accepted: number of mirror-gate substitutions (MIRAGE only).
        mirror_candidates: number of gates that reached the intermediate layer.
    """

    routed: DAGCircuit | RoutedOps
    initial_layout: Layout
    final_layout: Layout
    swaps_added: int
    mirrors_accepted: int = 0
    mirror_candidates: int = 0

    @property
    def dag(self) -> DAGCircuit:
        """The mapped DAG, built from the op stream on first access.

        Refinement rounds only read ``final_layout`` and both selection
        metrics score the op stream itself, so only the kept routing
        builds one, once, when the pipeline publishes it.
        """
        if isinstance(self.routed, RoutedOps):
            self.routed = self.routed.to_dag()
        return self.routed

    def to_circuit(self) -> QuantumCircuit:
        return self.dag.to_circuit()

    @property
    def mirror_acceptance_rate(self) -> float:
        if self.mirror_candidates == 0:
            return 0.0
        return self.mirrors_accepted / self.mirror_candidates


class SabreSwap:
    """SABRE heuristic router.

    Args:
        coupling: device coupling map.
        extended_set_size: lookahead window size ``|E|``.
        extended_set_weight: lookahead weight ``W``.
        decay_delta: per-SWAP decay increment.
        decay_reset_interval: SWAP insertions between decay resets.
        seed: RNG seed used only for tie-breaking.
    """

    def __init__(
        self,
        coupling: CouplingMap,
        *,
        extended_set_size: int = EXTENDED_SET_SIZE,
        extended_set_weight: float = EXTENDED_SET_WEIGHT,
        decay_delta: float = DECAY_DELTA,
        decay_reset_interval: int = DECAY_RESET_INTERVAL,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.coupling = coupling
        self.extended_set_size = extended_set_size
        self.extended_set_weight = extended_set_weight
        self.decay_delta = decay_delta
        self.decay_reset_interval = decay_reset_interval
        self._rng = _as_rng(seed)

    # -- public API --------------------------------------------------------

    def run(
        self,
        dag: DAGCircuit,
        initial_layout: Layout,
        seed: int | np.random.Generator | None = None,
    ) -> RoutingResult:
        """Route ``dag`` starting from ``initial_layout``.

        Dispatches to the flat int-array kernel by default; setting
        ``MIRAGE_ROUTE_KERNEL=object`` keeps the historical object walk
        for differential testing.  Both paths are byte-identical at a
        fixed seed.
        """
        rng = _as_rng(seed) if seed is not None else self._rng
        if route_kernel_mode() == "object":
            return self._run_object(dag, initial_layout, rng)
        return self._run_flat(dag, initial_layout, rng)

    def _run_flat(
        self,
        dag: DAGCircuit,
        initial_layout: Layout,
        rng: np.random.Generator,
    ) -> RoutingResult:
        """Flat-kernel routing over the lowered int arrays."""
        intdag = int_dag(dag)
        initial_v2p = initial_layout.virtual_to_physical()
        mirror = self._flat_mirror(intdag)
        state = route_kernel(
            intdag,
            neighbor_table(self.coupling),
            initial_v2p,
            rng,
            extended_set_size=self.extended_set_size,
            extended_set_weight=self.extended_set_weight,
            decay_delta=self.decay_delta,
            decay_reset_interval=self.decay_reset_interval,
            stall_limit=10 * max(10, self.coupling.num_qubits),
            commit=self._commit_two_qubit_flat,
            mirror=mirror,
        )
        return RoutingResult(
            routed=RoutedOps(
                self.coupling.num_qubits,
                dag.name,
                intdag,
                initial_v2p,
                state.events,
                None if mirror is None else mirror.table,
            ),
            initial_layout=initial_layout.copy(),
            final_layout=Layout(state.v2p, self.coupling.num_qubits),
            swaps_added=state.swaps_added,
            mirrors_accepted=state.mirrors_accepted,
            mirror_candidates=state.mirror_candidates,
        )

    def _flat_mirror(self, intdag: IntDAG) -> MirrorDecision | None:
        """The mirror decision the flat kernel makes per committed gate:
        none for SABRE.  MIRAGE overrides this."""
        return None

    def _commit_two_qubit_flat(
        self, state: KernelState, node_id: int, physical: tuple[int, int]
    ) -> None:
        """Flat twin of :meth:`_commit_two_qubit`, called by the Python
        loop.  MIRAGE overrides this."""
        state.emit(node_id)

    def _run_object(
        self,
        dag: DAGCircuit,
        initial_layout: Layout,
        rng: np.random.Generator,
    ) -> RoutingResult:
        """Historical object-path routing (``MIRAGE_ROUTE_KERNEL=object``)."""
        layout = initial_layout.copy()
        out = DAGCircuit(self.coupling.num_qubits, dag.name)

        predecessors_left = dict(dag.in_degrees())
        front: list[DAGNode] = dag.front_layer()
        self._decay = np.ones(self.coupling.num_qubits)
        self._decay_steps = 0
        swaps_added = 0
        self._stats = {"mirrors": 0, "candidates": 0}
        stall_counter = 0
        stall_limit = 10 * max(10, self.coupling.num_qubits)

        while front:
            executed_any = False
            still_blocked: list[DAGNode] = []
            for node in front:
                if self._is_executable(node, layout):
                    self._execute(node, layout, out, dag)
                    executed_any = True
                    for successor in dag.successors(node):
                        predecessors_left[successor.node_id] -= 1
                        if predecessors_left[successor.node_id] == 0:
                            still_blocked.append(successor)
                else:
                    still_blocked.append(node)
            front = still_blocked
            if executed_any:
                self._decay[:] = 1.0
                self._decay_steps = 0
                stall_counter = 0
                continue
            if not front:
                break

            # Stalled: insert the best-scoring SWAP.
            stall_counter += 1
            if stall_counter > stall_limit:
                raise TranspilerError("router failed to make progress")
            swap_edge = self._choose_swap(front, layout, dag, rng)
            self._apply_swap(swap_edge, layout, out)
            swaps_added += 1

        return RoutingResult(
            routed=out,
            initial_layout=initial_layout.copy(),
            final_layout=layout,
            swaps_added=swaps_added,
            mirrors_accepted=self._stats["mirrors"],
            mirror_candidates=self._stats["candidates"],
        )

    # -- execution ----------------------------------------------------------

    def _is_executable(self, node: DAGNode, layout: Layout) -> bool:
        if node.is_directive or len(node.qubits) == 1:
            return True
        if len(node.qubits) != 2:
            raise TranspilerError("router requires gates with at most two qubits")
        physical = [layout.v2p(q) for q in node.qubits]
        return self.coupling.are_connected(*physical)

    def _execute(
        self, node: DAGNode, layout: Layout, out: DAGCircuit, dag: DAGCircuit
    ) -> None:
        physical = tuple(layout.v2p(q) for q in node.qubits)
        if node.is_two_qubit:
            self._commit_two_qubit(node, physical, layout, out, dag)
        else:
            out.add_node(node.gate, physical)

    def _commit_two_qubit(
        self,
        node: DAGNode,
        physical: tuple[int, ...],
        layout: Layout,
        out: DAGCircuit,
        dag: DAGCircuit,
    ) -> None:
        """Place a two-qubit gate on the device.  MIRAGE overrides this."""
        out.add_node(node.gate, physical)

    # -- swap selection --------------------------------------------------------

    def _apply_swap(
        self, edge: tuple[int, int], layout: Layout, out: DAGCircuit
    ) -> None:
        out.add_node(Gate("swap", 2), edge)
        layout.swap_physical(*edge)
        self._decay[edge[0]] += self.decay_delta
        self._decay[edge[1]] += self.decay_delta
        self._decay_steps += 1
        if self._decay_steps >= self.decay_reset_interval:
            self._decay[:] = 1.0
            self._decay_steps = 0

    def _swap_candidates(
        self, front: list[DAGNode], layout: Layout
    ) -> list[tuple[int, int]]:
        active_physical = set()
        for node in front:
            if len(node.qubits) == 2:
                active_physical.update(layout.v2p(q) for q in node.qubits)
        candidates = set()
        for physical in active_physical:
            for neighbor in self.coupling.neighbors(physical):
                candidates.add(tuple(sorted((physical, neighbor))))
        return sorted(candidates)

    def _extended_set(self, front: list[DAGNode], dag: DAGCircuit) -> list[DAGNode]:
        """Upcoming two-qubit gates after the front layer (lookahead window)."""
        extended: list[DAGNode] = []
        queue = deque(front)
        seen = {node.node_id for node in front}
        while queue and len(extended) < self.extended_set_size:
            node = queue.popleft()
            for successor in dag.successors(node):
                if successor.node_id in seen:
                    continue
                seen.add(successor.node_id)
                queue.append(successor)
                if successor.is_two_qubit:
                    extended.append(successor)
                    if len(extended) >= self.extended_set_size:
                        break
        return extended

    def routing_heuristic(
        self,
        front: list[DAGNode],
        extended: list[DAGNode],
        layout: Layout,
    ) -> float:
        """Distance + lookahead heuristic of a layout (lower is better)."""
        distance = self.coupling.distance_matrix
        front_pairs = [node for node in front if len(node.qubits) == 2]
        total = 0.0
        if front_pairs:
            total += sum(
                distance[layout.v2p(node.qubits[0]), layout.v2p(node.qubits[1])]
                for node in front_pairs
            ) / len(front_pairs)
        if extended:
            total += self.extended_set_weight * sum(
                distance[layout.v2p(node.qubits[0]), layout.v2p(node.qubits[1])]
                for node in extended
            ) / len(extended)
        return float(total)

    def _candidate_scores(
        self,
        front: list[DAGNode],
        extended: list[DAGNode],
        layout: Layout,
        candidates: list[tuple[int, int]],
    ) -> list[float]:
        """Heuristic score of each candidate SWAP, by incremental deltas.

        The front and lookahead distance sums are computed once for the
        current layout; each candidate edge then only re-evaluates the
        distances of gates touching its two physical qubits.  Distances are
        integer-valued hop counts, so the delta-adjusted sums are exactly
        the sums a full rescore would produce and the chosen edge is
        bit-identical to the historical copy-layout-and-rescore loop.
        """
        distance = self.coupling.distance_matrix
        front_pairs = [
            tuple(layout.v2p(q) for q in node.qubits)
            for node in front
            if len(node.qubits) == 2
        ]
        extended_pairs = [
            tuple(layout.v2p(q) for q in node.qubits) for node in extended
        ]

        groups = ((0, front_pairs), (1, extended_pairs))
        sums = [0.0, 0.0]
        touching: dict[int, list[tuple[int, int, int]]] = {}
        for group, pairs in groups:
            for left, right in pairs:
                sums[group] += distance[left, right]
                touching.setdefault(left, []).append((group, left, right))
                if right != left:
                    touching.setdefault(right, []).append((group, left, right))

        finite = all(np.isfinite(total) for total in sums)
        scores = []
        for edge_a, edge_b in candidates:
            if finite:
                deltas = [0.0, 0.0]
                for group, left, right in touching.get(edge_a, ()):
                    if left == edge_b or right == edge_b:
                        continue  # both endpoints swap; distance unchanged
                    new_left = edge_b if left == edge_a else left
                    new_right = edge_b if right == edge_a else right
                    deltas[group] += (
                        distance[new_left, new_right] - distance[left, right]
                    )
                for group, left, right in touching.get(edge_b, ()):
                    if left == edge_a or right == edge_a:
                        continue
                    new_left = edge_a if left == edge_b else left
                    new_right = edge_a if right == edge_b else right
                    deltas[group] += (
                        distance[new_left, new_right] - distance[left, right]
                    )
                front_sum = sums[0] + deltas[0]
                extended_sum = sums[1] + deltas[1]
            else:
                # Infinite distances (disconnected coupling) poison the
                # delta arithmetic with inf - inf; fall back to direct sums.
                front_sum = sum(
                    distance[
                        edge_b if left == edge_a else edge_a if left == edge_b else left,
                        edge_b if right == edge_a else edge_a if right == edge_b else right,
                    ]
                    for left, right in front_pairs
                )
                extended_sum = sum(
                    distance[
                        edge_b if left == edge_a else edge_a if left == edge_b else left,
                        edge_b if right == edge_a else edge_a if right == edge_b else right,
                    ]
                    for left, right in extended_pairs
                )
            score = 0.0
            if front_pairs:
                score += front_sum / len(front_pairs)
            if extended_pairs:
                score += self.extended_set_weight * extended_sum / len(
                    extended_pairs
                )
            scores.append(float(score))
        return scores

    def _choose_swap(
        self,
        front: list[DAGNode],
        layout: Layout,
        dag: DAGCircuit,
        rng: np.random.Generator,
    ) -> tuple[int, int]:
        candidates = self._swap_candidates(front, layout)
        if not candidates:
            raise TranspilerError(
                "no SWAP candidates: the coupling graph is likely disconnected"
            )
        extended = self._extended_set(front, dag)
        scores = self._candidate_scores(front, extended, layout, candidates)
        best_score = np.inf
        best_edges: list[tuple[int, int]] = []
        for edge, base_score in zip(candidates, scores):
            score = base_score * max(self._decay[edge[0]], self._decay[edge[1]])
            if score < best_score - 1e-12:
                best_score = score
                best_edges = [edge]
            elif abs(score - best_score) <= 1e-12:
                best_edges.append(edge)
        if not best_edges:
            raise TranspilerError(
                "cannot route: some target qubits are unreachable on this coupling map"
            )
        return best_edges[int(rng.integers(len(best_edges)))]
