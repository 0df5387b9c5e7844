"""Directed-acyclic-graph view of a circuit.

The SABRE and MIRAGE routing passes consume circuits in DAG form: nodes are
gate applications, and a directed edge connects two nodes that act on a
common qubit in program order.  The class also provides the weighted
longest-path computation that backs the paper's circuit-depth metric
(Section IV-B: "the depth metric is calculated using the longest DAG path
with a custom weight function assigned to decomposition cost").
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Iterator, Sequence

from repro.exceptions import DAGError
from repro.circuits.circuit import CircuitInstruction, QuantumCircuit
from repro.circuits.gates import Gate


@dataclasses.dataclass
class DAGNode:
    """A single gate application inside a :class:`DAGCircuit`."""

    node_id: int
    gate: Gate
    qubits: tuple[int, ...]

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2 and not self.gate.is_directive

    @property
    def is_directive(self) -> bool:
        return self.gate.is_directive

    def __hash__(self) -> int:
        return self.node_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DAGNode({self.node_id}, {self.gate!r}, {self.qubits})"


class DAGCircuit:
    """Gate-dependency DAG of a circuit.

    Nodes are kept in insertion (topological) order; edges are induced by
    qubit sharing.  The class supports the queries routing needs — front
    layer, successor iteration, in-degree bookkeeping — plus conversion back
    to a flat :class:`QuantumCircuit`.
    """

    def __init__(self, num_qubits: int, name: str = "dag") -> None:
        self.num_qubits = num_qubits
        self.name = name
        self.nodes: dict[int, DAGNode] = {}
        self._successors: dict[int, list[int]] = {}
        self._predecessors: dict[int, list[int]] = {}
        self._last_on_wire: dict[int, int] = {}
        self._next_id = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "DAGCircuit":
        dag = cls(circuit.num_qubits, circuit.name)
        for instruction in circuit:
            dag.add_node(instruction.gate, instruction.qubits)
        return dag

    def add_node(self, gate: Gate, qubits: Sequence[int]) -> DAGNode:
        """Append a gate at the end of the DAG (after all current wire owners)."""
        qubits = tuple(int(q) for q in qubits)
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise DAGError(f"qubit {qubit} out of range")
        node = DAGNode(self._next_id, gate, qubits)
        self._next_id += 1
        self.nodes[node.node_id] = node
        self._successors[node.node_id] = []
        self._predecessors[node.node_id] = []
        for qubit in qubits:
            previous = self._last_on_wire.get(qubit)
            if previous is not None and node.node_id not in self._successors[previous]:
                self._successors[previous].append(node.node_id)
                self._predecessors[node.node_id].append(previous)
            self._last_on_wire[qubit] = node.node_id
        return node

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def successors(self, node: DAGNode | int) -> list[DAGNode]:
        node_id = node.node_id if isinstance(node, DAGNode) else node
        return [self.nodes[i] for i in self._successors[node_id]]

    def predecessors(self, node: DAGNode | int) -> list[DAGNode]:
        node_id = node.node_id if isinstance(node, DAGNode) else node
        return [self.nodes[i] for i in self._predecessors[node_id]]

    def in_degrees(self) -> dict[int, int]:
        """Map of node id to number of predecessor nodes."""
        return {node_id: len(preds) for node_id, preds in self._predecessors.items()}

    def front_layer(self) -> list[DAGNode]:
        """Nodes with no predecessors (all dependencies resolved)."""
        return [
            self.nodes[node_id]
            for node_id, preds in self._predecessors.items()
            if not preds
        ]

    def topological_nodes(self) -> Iterator[DAGNode]:
        """Iterate nodes in a topological order (Kahn's algorithm)."""
        indegree = self.in_degrees()
        ready = deque(
            node_id for node_id in self.nodes if indegree[node_id] == 0
        )
        emitted = 0
        while ready:
            node_id = ready.popleft()
            emitted += 1
            yield self.nodes[node_id]
            for succ in self._successors[node_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if emitted != len(self.nodes):
            raise DAGError("cycle detected in DAG")

    def two_qubit_nodes(self) -> list[DAGNode]:
        return [node for node in self.nodes.values() if node.is_two_qubit]

    def count_ops(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes.values():
            counts[node.gate.name] = counts.get(node.gate.name, 0) + 1
        return counts

    # -- metrics -------------------------------------------------------------

    def longest_path_length(
        self, weight: Callable[[DAGNode], float] | None = None
    ) -> float:
        """Weighted critical-path length.

        Args:
            weight: node-weight function; defaults to 1 per non-directive
                node (plain gate depth).

        Returns:
            The maximum, over all paths (and 0.0), of the summed node
            weights.

        Nodes are only ever appended, so insertion order is topological,
        and a node's predecessors are the last nodes on its wires: one
        walk with a per-wire clock (the heaviest path ending on that wire)
        computes the same ``max(predecessors) + weight`` per node as a
        topological sort would, for any weights.
        """
        if weight is None:
            weight = lambda node: 0.0 if node.is_directive else 1.0  # noqa: E731
        clock: dict[int, float] = {}
        best = 0.0
        for node in self.nodes.values():
            qubits = node.qubits
            distance = max(
                (clock[q] for q in qubits if q in clock), default=0.0
            ) + weight(node)
            for qubit in qubits:
                clock[qubit] = distance
            best = max(best, distance)
        return best

    def depth(self) -> int:
        return int(self.longest_path_length())

    # -- conversion -------------------------------------------------------------

    def to_circuit(self) -> QuantumCircuit:
        circuit = QuantumCircuit(self.num_qubits, self.name)
        for node in self.topological_nodes():
            circuit.append_instruction(CircuitInstruction(node.gate, node.qubits))
        return circuit

    def copy(self) -> "DAGCircuit":
        out = DAGCircuit(self.num_qubits, self.name)
        for node in self.topological_nodes():
            out.add_node(node.gate, node.qubits)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DAGCircuit(name={self.name!r}, nodes={len(self.nodes)})"
