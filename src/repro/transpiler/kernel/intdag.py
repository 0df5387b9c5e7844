"""``IntDAG``: a flat integer lowering of :class:`~repro.circuits.dag.DAGCircuit`.

The routing inner loop never needs the :class:`DAGNode` objects themselves —
only qubit indices, a two-qubit flag, dependency edges, and (at emission
time) the gate object.  ``IntDAG`` packs exactly that into plain ndarrays:

* an op table (``qubit0``/``qubit1`` with ``-1`` sentinels, a ``kind`` code,
  a ``gate_ids`` index into the deduplicated ``gates`` tuple, and a CSR
  ``qargs`` table for wide directives such as barriers);
* CSR successor/predecessor adjacency plus the in-degree vector, so
  front-layer advance is array bookkeeping instead of node-set mutation.

Being plain ndarrays, the whole structure ships through the zero-copy
shared-memory transport as out-of-band buffers; the ``gates`` tuple is the
only object payload and is deduplicated against the owning DAG by the
pickle memo.  Workers adopt the shipped table via :func:`adopt_intdag`
instead of re-lowering the DAG per trial.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import TranspilerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.circuits.dag import DAGCircuit
    from repro.circuits.gates import Gate

#: Attribute under which a lowered table is memoised on the source DAG.
_CACHE_ATTR = "_intdag_cache"

#: Node kinds.  ``KIND_CHECK2`` gates gate executability on coupling
#: adjacency; ``KIND_FREE`` nodes (directives and single-qubit gates) are
#: always executable; ``KIND_REJECT`` marks >2-qubit non-directive gates the
#: router must refuse, exactly like the object path's ``_is_executable``.
KIND_CHECK2 = 0
KIND_FREE = 1
KIND_REJECT = 2


@dataclasses.dataclass(frozen=True)
class IntDAGLists:
    """Python-list mirror of an :class:`IntDAG` for the interpreter hot loop.

    Scalar indexing of python lists is several times faster than scalar
    indexing of ndarrays under CPython; the kernel walks these, while the
    vectorised scoring walks the ndarrays.
    """

    qubit0: list[int]
    qubit1: list[int]
    kind: list[int]
    gate_ids: list[int]
    qubit_tuples: tuple[tuple[int, ...], ...]
    succ_tuples: tuple[tuple[int, ...], ...]
    indegree: list[int]


@dataclasses.dataclass
class IntDAG:
    """Int-encoded op table + CSR dependency arrays of a ``DAGCircuit``.

    Attributes:
        num_qubits: virtual-qubit count of the source DAG.
        num_nodes: node count; node ids are exactly ``0..num_nodes-1``.
        qubit0/qubit1: first/second qarg per node (``-1`` when absent).
        kind: per-node ``KIND_*`` code.
        two_qubit: 1 where the node is a routable two-qubit gate.
        gate_ids: index into ``gates`` per node.
        gates: deduplicated gate objects (the op/unitary table).
        qarg_indptr/qargs: CSR qarg lists (covers wide directives).
        succ_indptr/succ_ids: CSR successor adjacency, program order.
        pred_indptr/pred_ids: CSR predecessor adjacency, program order.
        indegree: number of predecessors per node.
    """

    num_qubits: int
    num_nodes: int
    qubit0: np.ndarray
    qubit1: np.ndarray
    kind: np.ndarray
    two_qubit: np.ndarray
    gate_ids: np.ndarray
    gates: tuple
    qarg_indptr: np.ndarray
    qargs: np.ndarray
    succ_indptr: np.ndarray
    succ_ids: np.ndarray
    pred_indptr: np.ndarray
    pred_ids: np.ndarray
    indegree: np.ndarray

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dag(cls, dag: "DAGCircuit") -> "IntDAG":
        num_nodes = len(dag.nodes)
        if sorted(dag.nodes) != list(range(num_nodes)):
            raise TranspilerError(
                "IntDAG requires densely numbered DAG nodes (0..n-1)"
            )
        qubit0 = np.full(num_nodes, -1, dtype=np.int32)
        qubit1 = np.full(num_nodes, -1, dtype=np.int32)
        kind = np.empty(num_nodes, dtype=np.uint8)
        two_qubit = np.zeros(num_nodes, dtype=np.uint8)
        gate_ids = np.empty(num_nodes, dtype=np.int32)
        gates: list[Gate] = []
        gate_index: dict[int, int] = {}
        qarg_indptr = np.empty(num_nodes + 1, dtype=np.int64)
        qarg_indptr[0] = 0
        qargs: list[int] = []
        for node_id in range(num_nodes):
            node = dag.nodes[node_id]
            qubits = node.qubits
            if len(qubits) >= 1:
                qubit0[node_id] = qubits[0]
            if len(qubits) >= 2:
                qubit1[node_id] = qubits[1]
            if node.is_two_qubit:
                kind[node_id] = KIND_CHECK2
                two_qubit[node_id] = 1
            elif node.is_directive or len(qubits) == 1:
                kind[node_id] = KIND_FREE
            else:
                kind[node_id] = KIND_REJECT
            key = id(node.gate)
            slot = gate_index.get(key)
            if slot is None:
                slot = len(gates)
                gate_index[key] = slot
                gates.append(node.gate)
            gate_ids[node_id] = slot
            qargs.extend(qubits)
            qarg_indptr[node_id + 1] = len(qargs)

        succ_indptr, succ_ids = _csr(dag._successors, num_nodes)
        pred_indptr, pred_ids = _csr(dag._predecessors, num_nodes)
        indegree = np.diff(pred_indptr).astype(np.int32)
        return cls(
            num_qubits=dag.num_qubits,
            num_nodes=num_nodes,
            qubit0=qubit0,
            qubit1=qubit1,
            kind=kind,
            two_qubit=two_qubit,
            gate_ids=gate_ids,
            gates=tuple(gates),
            qarg_indptr=qarg_indptr,
            qargs=np.asarray(qargs, dtype=np.int32),
            succ_indptr=succ_indptr,
            succ_ids=succ_ids,
            pred_indptr=pred_indptr,
            pred_ids=pred_ids,
            indegree=indegree,
        )

    # -- queries ------------------------------------------------------------

    def gate(self, node_id: int) -> "Gate":
        return self.gates[self.gate_ids[node_id]]

    def node_qubits(self, node_id: int) -> tuple[int, ...]:
        start, stop = self.qarg_indptr[node_id], self.qarg_indptr[node_id + 1]
        return tuple(int(q) for q in self.qargs[start:stop])

    def successor_ids(self, node_id: int) -> list[int]:
        start, stop = self.succ_indptr[node_id], self.succ_indptr[node_id + 1]
        return [int(s) for s in self.succ_ids[start:stop]]

    def predecessor_ids(self, node_id: int) -> list[int]:
        start, stop = self.pred_indptr[node_id], self.pred_indptr[node_id + 1]
        return [int(p) for p in self.pred_ids[start:stop]]

    def front_ids(self) -> list[int]:
        """Node ids with no predecessors, ascending (= ``front_layer`` order)."""
        return [i for i in range(self.num_nodes) if not self.indegree[i]]

    def to_dag(self, name: str = "dag") -> "DAGCircuit":
        """Rebuild an equivalent :class:`DAGCircuit` (round-trip check)."""
        from repro.circuits.dag import DAGCircuit

        out = DAGCircuit(self.num_qubits, name)
        for node_id in range(self.num_nodes):
            out.add_node(self.gate(node_id), self.node_qubits(node_id))
        return out

    def lists(self) -> IntDAGLists:
        """Memoised python-list mirror (see :class:`IntDAGLists`)."""
        cached = self.__dict__.get("_lists")
        if cached is None:
            qarg_indptr = self.qarg_indptr.tolist()
            qargs = self.qargs.tolist()
            succ_indptr = self.succ_indptr.tolist()
            succ_ids = self.succ_ids.tolist()
            cached = IntDAGLists(
                qubit0=self.qubit0.tolist(),
                qubit1=self.qubit1.tolist(),
                kind=self.kind.tolist(),
                gate_ids=self.gate_ids.tolist(),
                qubit_tuples=tuple(
                    tuple(qargs[qarg_indptr[i]:qarg_indptr[i + 1]])
                    for i in range(self.num_nodes)
                ),
                succ_tuples=tuple(
                    tuple(succ_ids[succ_indptr[i]:succ_indptr[i + 1]])
                    for i in range(self.num_nodes)
                ),
                indegree=self.indegree.tolist(),
            )
            self.__dict__["_lists"] = cached
        return cached

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The list mirror, the lookahead memo and the per-gate mirror tables
        # are per-process interpreter caches; shipping them would grow the
        # payload for no benefit (a mirror table is one batched coverage
        # query to rebuild).
        state = dict(self.__dict__)
        state.pop("_lists", None)
        state.pop("_lookahead_cache", None)
        state.pop("_mirror_tables", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def _csr(
    adjacency: dict[int, list[int]], num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.empty(num_nodes + 1, dtype=np.int64)
    indptr[0] = 0
    flat: list[int] = []
    for node_id in range(num_nodes):
        flat.extend(adjacency[node_id])
        indptr[node_id + 1] = len(flat)
    return indptr, np.asarray(flat, dtype=np.int32)


def int_dag(dag: "DAGCircuit") -> IntDAG:
    """Lower ``dag``, memoising the table on the DAG itself.

    The memo rides the DAG's pickle, which is what ships a ``TrialSpec``'s
    lowering to workers exactly once (the spec's ``intdag`` field and the
    DAG attribute are the same object, deduplicated by the pickle memo).
    """
    cached = getattr(dag, _CACHE_ATTR, None)
    if cached is not None and cached.num_nodes == len(dag.nodes):
        return cached
    built = IntDAG.from_dag(dag)
    setattr(dag, _CACHE_ATTR, built)
    return built


def adopt_intdag(dag: "DAGCircuit", intdag: IntDAG | None) -> None:
    """Attach a pre-built lowering to ``dag`` (worker-side adoption)."""
    if intdag is not None and intdag.num_nodes == len(dag.nodes):
        setattr(dag, _CACHE_ATTR, intdag)
