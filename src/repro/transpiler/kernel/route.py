"""``build_swap_map``-style flat routing loop.

:func:`route_kernel` routes an :class:`~repro.transpiler.kernel.intdag.IntDAG`
over a :class:`~repro.transpiler.kernel.neighbors.NeighborTable` and
returns a :class:`KernelState`: the final layout, the SWAP count, the
mirror counts and an int event stream — ``2 * node + mirrored`` per
executed node, ``-(1 + a * num_qubits + b)`` per SWAP on edge ``(a, b)`` —
from which :class:`~repro.transpiler.passes.sabre_swap.RoutedOps` replays
the routed gates when, and only when, someone reads the routed DAG, and
from which :func:`critical_path` computes the depth selection score
without building it.

On connected coupling maps the whole run is one call into the compiled
loop ``mirage_route`` (``_route.c``, built and loaded by
:mod:`repro.transpiler.kernel.native`): front advance, the lookahead BFS,
SWAP scoring, decay, the tie-break draw and, for MIRAGE, the mirror
decision all run in C, so a stall never crosses from Python into C.  The
tie-break draw calls the trial generator's own ``next_uint32`` with
numpy's bounded-integer algorithm, so the generator is left exactly as
``rng.integers`` would leave it.

The Python loop below is the single fallback: disconnected maps, hosts
without a C compiler, and bit-generator types whose C draw failed the
once-per-process probe.  It calls the router's ``commit`` hook for every
executable two-qubit gate and scores stalls with :func:`_best_edges_float`.
Both loops compute the object router's score expressions and tolerance
tie-break term for term — hop distances are integers, so the window sums
are exact — keep tied-best edges in candidate order and draw once per
stall, so fixed-seed outputs are byte-identical to each other and to
``MIRAGE_ROUTE_KERNEL=object``.
"""

from __future__ import annotations

import os
from array import array
from collections import deque
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.exceptions import TranspilerError
from repro.circuits.gates import Gate
from repro.transpiler.kernel import native
from repro.transpiler.kernel.intdag import KIND_CHECK2, KIND_FREE, IntDAG
from repro.transpiler.kernel.neighbors import NeighborTable

#: Values accepted by ``MIRAGE_ROUTE_KERNEL``.
_FLAT_VALUES = frozenset({"", "flat", "default"})
_OBJECT_VALUES = frozenset({"object", "legacy"})


def route_kernel_mode() -> str:
    """Resolve the active kernel (``flat`` default, ``object`` opt-out)."""
    value = os.environ.get("MIRAGE_ROUTE_KERNEL", "").strip().lower()
    if value in _FLAT_VALUES:
        return "flat"
    if value in _OBJECT_VALUES:
        return "object"
    raise TranspilerError(
        f"unknown MIRAGE_ROUTE_KERNEL value {value!r} (use 'flat' or 'object')"
    )


class MirrorDecision(NamedTuple):
    """What the compiled loop needs to make MIRAGE's mirror decision.

    ``table`` has per-gate-id ``cost`` and ``mirror_cost`` sequences (a
    :class:`~repro.core.mirage_pass.MirrorTable`).
    """

    table: Any
    aggression: int
    decomposition_weight: float


class KernelState:
    """Flat state of one routing run — the commit hooks' view and the result.

    ``MirageSwap``'s intermediate layer runs against this object in the
    Python loop: it reads gates by int id, queries the lookahead window as
    physical-qubit pairs, appends events and applies virtual swaps, never
    touching ``DAGNode`` or ``Layout`` objects.  After a compiled run it
    holds the C loop's layout, events and counts.
    """

    __slots__ = (
        "intdag",
        "table",
        "v2p",
        "p2v",
        "events",
        "swaps_added",
        "mirror_candidates",
        "mirrors_accepted",
        "extended_set_size",
        "_lists",
    )

    def __init__(
        self,
        intdag: IntDAG,
        table: NeighborTable,
        initial_v2p: list[int],
        extended_set_size: int,
    ) -> None:
        self.intdag = intdag
        self.table = table
        self.v2p = [int(p) for p in initial_v2p]
        self.p2v = [-1] * table.num_qubits
        for virtual, physical in enumerate(self.v2p):
            self.p2v[physical] = virtual
        self.events = array("i")
        self.swaps_added = 0
        self.mirror_candidates = 0
        self.mirrors_accepted = 0
        self.extended_set_size = extended_set_size
        self._lists = intdag.lists()

    # -- hook API -----------------------------------------------------------

    def gate_id(self, node_id: int) -> int:
        """Index of the node's gate in ``intdag.gates``."""
        return self._lists.gate_ids[node_id]

    def emit(self, node_id: int) -> None:
        """Record the node as executed, as it is."""
        self.events.append(2 * node_id)

    def emit_mirror(self, node_id: int, physical: tuple[int, int]) -> None:
        """Record the node as executed as its mirror, and apply the mirror's
        virtual swap of the two physical qubits."""
        self.events.append(2 * node_id + 1)
        self.swap_physical(*physical)

    def emit_swap(self, physical_a: int, physical_b: int) -> None:
        """Record a SWAP gate on the edge ``(a, b)``, and apply it."""
        self.events.append(-(1 + physical_a * self.table.num_qubits + physical_b))
        self.swap_physical(physical_a, physical_b)

    def swap_physical(self, physical_a: int, physical_b: int) -> None:
        v2p, p2v = self.v2p, self.p2v
        va = p2v[physical_a]
        vb = p2v[physical_b]
        if va >= 0:
            v2p[va] = physical_b
        if vb >= 0:
            v2p[vb] = physical_a
        p2v[physical_a] = vb
        p2v[physical_b] = va

    def extended_ids(self, roots: list[int]) -> list[int]:
        """Lookahead BFS: upcoming two-qubit node ids after ``roots``.

        Byte-compatible with the object path's ``_extended_set`` — same
        visit order, same dedup, same early-exit at the window size.
        """
        limit = self.extended_set_size
        lists = self._lists
        succ_tuples = lists.succ_tuples
        kind = lists.kind
        extended: list[int] = []
        queue = deque(roots)
        seen = bytearray(self.intdag.num_nodes)
        for root in roots:
            seen[root] = 1
        while queue and len(extended) < limit:
            node_id = queue.popleft()
            for successor in succ_tuples[node_id]:
                if seen[successor]:
                    continue
                seen[successor] = 1
                queue.append(successor)
                if kind[successor] == KIND_CHECK2:
                    extended.append(successor)
                    if len(extended) >= limit:
                        break
        return extended

    def lookahead_pairs(self, node_id: int) -> list[tuple[int, int]]:
        """Physical qubit pairs of the lookahead window after one node.

        The window ids depend only on the DAG and the window size — never
        the layout — so they are memoised on the ``IntDAG`` and shared by
        every run over the same lowering (forward refinement rounds, all
        routing trials of a batch).
        """
        cache = self.intdag.__dict__.setdefault("_lookahead_cache", {})
        key = (self.extended_set_size, node_id)
        ids = cache.get(key)
        if ids is None:
            ids = self.extended_ids([node_id])
            cache[key] = ids
        lists = self._lists
        qubit0 = lists.qubit0
        qubit1 = lists.qubit1
        v2p = self.v2p
        return [(v2p[qubit0[i]], v2p[qubit1[i]]) for i in ids]


def route_kernel(
    intdag: IntDAG,
    table: NeighborTable,
    initial_v2p: list[int],
    rng: np.random.Generator,
    *,
    extended_set_size: int,
    extended_set_weight: float,
    decay_delta: float,
    decay_reset_interval: int,
    stall_limit: int,
    commit: Callable[[KernelState, int, tuple[int, int]], None],
    mirror: MirrorDecision | None = None,
) -> KernelState:
    """Route one lowered circuit; returns the finished :class:`KernelState`.

    The compiled loop runs the whole route when it can (see the module
    docstring); it makes ``mirror``'s decision itself (``None``: SABRE).
    Otherwise the Python loop calls ``commit`` for every executable
    two-qubit gate with ``(state, node_id, physical_pair)`` — the flat twin
    of the object path's ``_commit_two_qubit`` hook.
    """
    state = KernelState(intdag, table, initial_v2p, extended_set_size)
    routed = native.route(
        intdag,
        table,
        state.v2p,
        rng,
        extended_set_size=extended_set_size,
        extended_set_weight=extended_set_weight,
        decay_delta=decay_delta,
        decay_reset_interval=decay_reset_interval,
        stall_limit=stall_limit,
        mirror=mirror,
    )
    if routed is not None:
        (
            state.v2p,
            state.events,
            state.swaps_added,
            state.mirror_candidates,
            state.mirrors_accepted,
        ) = routed
        state.p2v = [-1] * table.num_qubits
        for virtual, physical in enumerate(state.v2p):
            state.p2v[physical] = virtual
        return state

    lists = state._lists
    qubit0 = lists.qubit0
    qubit1 = lists.qubit1
    kind = lists.kind
    succ_tuples = lists.succ_tuples
    indegree = list(lists.indegree)
    adjacency = table.adjacency()
    edges_a, edges_b = table.edge_lists()
    num_physical = table.num_qubits
    v2p = state.v2p
    events = state.events

    decay = [1.0] * num_physical
    decay_dirty = False
    decay_steps = 0
    stall_counter = 0
    extended_cache: list[int] | None = None

    front = [i for i in range(intdag.num_nodes) if not indegree[i]]
    while front:
        executed_any = False
        still_blocked: list[int] = []
        for node_id in front:
            node_kind = kind[node_id]
            if node_kind == KIND_CHECK2:
                left = v2p[qubit0[node_id]]
                right = v2p[qubit1[node_id]]
                if adjacency[left][right]:
                    commit(state, node_id, (left, right))
                else:
                    still_blocked.append(node_id)
                    continue
            elif node_kind == KIND_FREE:
                events.append(2 * node_id)
            else:
                raise TranspilerError(
                    "router requires gates with at most two qubits"
                )
            executed_any = True
            for successor in succ_tuples[node_id]:
                indegree[successor] -= 1
                if not indegree[successor]:
                    still_blocked.append(successor)
        front = still_blocked
        if executed_any:
            if decay_dirty:
                decay = [1.0] * num_physical
                decay_dirty = False
            decay_steps = 0
            stall_counter = 0
            extended_cache = None
            continue
        if not front:
            break

        # Stalled: insert the best-scoring SWAP.  Consecutive stalls keep
        # the same front layer, and the lookahead window depends only on
        # the front and the DAG — never the layout — so it is recomputed
        # only after a sweep that executed something.
        stall_counter += 1
        if stall_counter > stall_limit:
            raise TranspilerError("router failed to make progress")
        if extended_cache is None:
            extended_cache = state.extended_ids(front)
        edge = _choose_swap(state, front, extended_cache, decay, rng, extended_set_weight)
        edge_a = edges_a[edge]
        edge_b = edges_b[edge]
        state.emit_swap(edge_a, edge_b)
        decay[edge_a] += decay_delta
        decay[edge_b] += decay_delta
        decay_dirty = True
        decay_steps += 1
        if decay_steps >= decay_reset_interval:
            decay = [1.0] * num_physical
            decay_dirty = False
            decay_steps = 0
        state.swaps_added += 1

    return state


def replay(
    intdag: IntDAG,
    num_qubits: int,
    initial_v2p: list[int],
    events: Sequence[int],
    mirror_gate: Callable[[Gate, int], Gate] | None,
) -> list[tuple[Gate, tuple[int, ...]]]:
    """The routed ``(gate, physical qubits)`` list of an event stream.

    Replays the layout from ``initial_v2p``; a mirrored node's gate is
    ``mirror_gate(gate, gate_id)``.
    """
    lists = intdag.lists()
    gates = intdag.gates
    gate_ids = lists.gate_ids
    qubit_tuples = lists.qubit_tuples
    v2p = list(initial_v2p)
    p2v = [-1] * num_qubits
    for virtual, physical in enumerate(v2p):
        p2v[physical] = virtual

    def swap(a: int, b: int) -> None:
        va, vb = p2v[a], p2v[b]
        if va >= 0:
            v2p[va] = b
        if vb >= 0:
            v2p[vb] = a
        p2v[a], p2v[b] = vb, va

    ops: list[tuple[Gate, tuple[int, ...]]] = []
    for event in events.tolist():
        if event < 0:
            edge = divmod(-event - 1, num_qubits)
            ops.append((Gate("swap", 2), edge))
            swap(*edge)
            continue
        node_id = event >> 1
        physical = tuple(v2p[q] for q in qubit_tuples[node_id])
        gate_id = gate_ids[node_id]
        if event & 1:
            ops.append((mirror_gate(gates[gate_id], gate_id), physical))
            swap(*physical)
        else:
            ops.append((gates[gate_id], physical))
    return ops


def critical_path(
    intdag: IntDAG,
    num_qubits: int,
    initial_v2p: list[int],
    events: Sequence[int],
    costs: Any,
) -> float:
    """The decomposition-aware critical path of an event stream.

    Equals ``metrics.evaluate(dag).depth`` of the DAG :func:`replay`
    would build, without building it.  ``costs`` has per-gate-id
    ``pulse_cost`` and ``mirror_pulse_cost`` sequences and a
    ``swap_pulse_cost`` (a :class:`~repro.core.mirage_pass.MirrorTable`),
    holding exactly the coverage answers ``evaluate`` would get.

    Replays the layout from ``initial_v2p`` and keeps one clock per
    physical qubit: the heaviest path ending on that wire.  A two-qubit
    node sets both its wires to ``max(clocks) + weight``, a barrier or
    wide directive synchronises its wires with weight 0, and a
    single-qubit node (weight 0) changes nothing.  That is the DAG's
    longest-path recurrence, operation for operation; the clocks start at
    0.0 instead of being absent, which gives the same floats because every
    cost is non-negative.
    """
    lists = intdag.lists()
    gate_ids = lists.gate_ids
    kind = lists.kind
    qubit0 = lists.qubit0
    qubit1 = lists.qubit1
    qubit_tuples = lists.qubit_tuples
    pulse_cost = costs.pulse_cost
    mirror_pulse_cost = costs.mirror_pulse_cost
    swap_pulse_cost = costs.swap_pulse_cost
    v2p = list(initial_v2p)
    p2v = [-1] * num_qubits
    for virtual, physical in enumerate(v2p):
        p2v[physical] = virtual
    clock = [0.0] * num_qubits

    for event in events.tolist():
        if event < 0:
            a, b = divmod(-event - 1, num_qubits)
            clock_a = clock[a]
            clock_b = clock[b]
            clock[a] = clock[b] = (
                clock_a if clock_a >= clock_b else clock_b
            ) + swap_pulse_cost
            va, vb = p2v[a], p2v[b]
            if va >= 0:
                v2p[va] = b
            if vb >= 0:
                v2p[vb] = a
            p2v[a], p2v[b] = vb, va
            continue
        node_id = event >> 1
        if kind[node_id] == KIND_CHECK2:
            va = qubit0[node_id]
            vb = qubit1[node_id]
            a = v2p[va]
            b = v2p[vb]
            if event & 1:
                weight = mirror_pulse_cost[gate_ids[node_id]]
                v2p[va], v2p[vb] = b, a
                p2v[a], p2v[b] = vb, va
            else:
                weight = pulse_cost[gate_ids[node_id]]
            clock_a = clock[a]
            clock_b = clock[b]
            clock[a] = clock[b] = (
                clock_a if clock_a >= clock_b else clock_b
            ) + weight
        else:
            qubits = qubit_tuples[node_id]
            if len(qubits) > 1:
                physical = [v2p[q] for q in qubits]
                synced = max(clock[p] for p in physical)
                for p in physical:
                    clock[p] = synced
    return max(clock)


def _choose_swap(
    state: KernelState,
    front: list[int],
    extended: list[int],
    decay: list[float],
    rng: np.random.Generator,
    extended_set_weight: float,
) -> int:
    """Pick the SWAP edge id, byte-compatible with the object ``_choose_swap``.

    The tied-best edges come in candidate order, and the single RNG draw
    among them happens in the same position of the per-trial stream as on
    the object path and in the compiled loop.
    """
    best = _best_edges_float(state, front, extended, decay, extended_set_weight)
    if not best:
        raise TranspilerError(
            "cannot route: some target qubits are unreachable on this coupling map"
        )
    return best[int(rng.integers(len(best)))]


def _best_edges_float(
    state: KernelState,
    front: list[int],
    extended: list[int],
    decay: list[float],
    extended_set_weight: float,
) -> list[int]:
    """Tied-best edge ids in Python: float distances with inf propagation.

    The Python loop's scorer.  Mirrors the object path exactly: incremental per-edge
    deltas over the window sums, and its direct-sum fallback once a window
    sum goes infinite (``inf - inf`` would poison the deltas).
    """
    lists = state._lists
    table = state.table
    v2p = state.v2p
    qubit0 = lists.qubit0
    qubit1 = lists.qubit1

    # Candidate edges: union of the edges incident to the stalled gates'
    # physical qubits.  Edge ids are lex-sorted (a, b) pairs, so sorting
    # ids reproduces the object path's sorted-tuple candidate order.
    incident = table.incident
    candidate_ids: set[int] = set()
    for node_id in front:
        candidate_ids.update(incident[v2p[qubit0[node_id]]])
        candidate_ids.update(incident[v2p[qubit1[node_id]]])
    if not candidate_ids:
        raise TranspilerError(
            "no SWAP candidates: the coupling graph is likely disconnected"
        )

    front_pairs = [(v2p[qubit0[i]], v2p[qubit1[i]]) for i in front]
    extended_pairs = [(v2p[qubit0[i]], v2p[qubit1[i]]) for i in extended]

    distance = table.dist_lists()
    front_sum0 = 0.0
    extended_sum0 = 0.0
    touching: dict[int, list[tuple[int, int, int]]] = {}
    for group, pairs in ((0, front_pairs), (1, extended_pairs)):
        for left, right in pairs:
            if group:
                extended_sum0 += distance[left][right]
            else:
                front_sum0 += distance[left][right]
            touching.setdefault(left, []).append((group, left, right))
            if right != left:
                touching.setdefault(right, []).append((group, left, right))
    finite = front_sum0 != np.inf and extended_sum0 != np.inf

    num_front = len(front_pairs)
    num_extended = len(extended_pairs)
    edges_a_list, edges_b_list = table.edge_lists()
    empty: tuple = ()
    best_score = np.inf
    best_edges: list[int] = []
    for edge_id in sorted(candidate_ids):
        edge_a = edges_a_list[edge_id]
        edge_b = edges_b_list[edge_id]
        if finite:
            front_sum = front_sum0
            extended_sum = extended_sum0
            for group, left, right in touching.get(edge_a, empty):
                if left == edge_b or right == edge_b:
                    continue  # both endpoints swap; distance unchanged
                new_left = edge_b if left == edge_a else left
                new_right = edge_b if right == edge_a else right
                delta = distance[new_left][new_right] - distance[left][right]
                if group:
                    extended_sum += delta
                else:
                    front_sum += delta
            for group, left, right in touching.get(edge_b, empty):
                if left == edge_a or right == edge_a:
                    continue
                new_left = edge_a if left == edge_b else left
                new_right = edge_a if right == edge_b else right
                delta = distance[new_left][new_right] - distance[left][right]
                if group:
                    extended_sum += delta
                else:
                    front_sum += delta
        else:
            # Infinite distances (disconnected coupling) poison the delta
            # arithmetic with inf - inf; fall back to direct sums.
            front_sum = sum(
                distance[
                    edge_b if left == edge_a else edge_a if left == edge_b else left
                ][
                    edge_b if right == edge_a else edge_a if right == edge_b else right
                ]
                for left, right in front_pairs
            )
            extended_sum = sum(
                distance[
                    edge_b if left == edge_a else edge_a if left == edge_b else left
                ][
                    edge_b if right == edge_a else edge_a if right == edge_b else right
                ]
                for left, right in extended_pairs
            )
        score = 0.0
        if num_front:
            score += front_sum / num_front
        if num_extended:
            score += extended_set_weight * extended_sum / num_extended
        decay_a = decay[edge_a]
        decay_b = decay[edge_b]
        score = score * (decay_a if decay_a >= decay_b else decay_b)
        if score < best_score - 1e-12:
            best_score = score
            best_edges = [edge_id]
        elif abs(score - best_score) <= 1e-12:
            best_edges.append(edge_id)
    return best_edges
