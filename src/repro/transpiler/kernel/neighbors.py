"""``NeighborTable``: flat adjacency + integer hop distances of a coupling map.

Extends the integer-valued hop distances SWAP scoring relies on with the
index structures the flat kernel gathers over:

* CSR neighbour lists (sorted, matching ``CouplingMap.neighbors``);
* the lexicographically sorted undirected edge list as two parallel int
  arrays, so a candidate set is a sorted list of *edge ids* and its
  endpoints are a fancy-index gather;
* a per-qubit incident-edge index, so ``_swap_candidates`` is set-union of
  precomputed tuples instead of per-stall neighbour walks;
* ``dist_int``: the hop-distance matrix as ``int64`` (``-1`` where
  unreachable), which the compiled routing loop reads on connected graphs,
  next to the float matrix (shared with ``CouplingMap.distance_matrix``)
  used verbatim when infinities are possible.

Tables are memoised per ``CouplingMap`` in a weak-keyed registry rather
than on the object, so pickled coupling maps never drag the table along.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transpiler.topologies import CouplingMap


@dataclasses.dataclass
class NeighborTable:
    """Flat neighbour/edge/distance view of one :class:`CouplingMap`."""

    num_qubits: int
    indptr: np.ndarray
    neighbor_ids: np.ndarray
    edges_a: np.ndarray
    edges_b: np.ndarray
    incident: tuple[tuple[int, ...], ...]
    dist: np.ndarray
    dist_int: np.ndarray
    connected: bool

    @classmethod
    def from_coupling(cls, coupling: "CouplingMap") -> "NeighborTable":
        num_qubits = coupling.num_qubits
        indptr = np.empty(num_qubits + 1, dtype=np.int64)
        indptr[0] = 0
        flat: list[int] = []
        for qubit in range(num_qubits):
            flat.extend(coupling.neighbors(qubit))
            indptr[qubit + 1] = len(flat)
        edges = sorted(set(coupling.edges))
        edges_a = np.asarray([a for a, _ in edges], dtype=np.int64)
        edges_b = np.asarray([b for _, b in edges], dtype=np.int64)
        incident: list[list[int]] = [[] for _ in range(num_qubits)]
        for edge_id, (a, b) in enumerate(edges):
            incident[a].append(edge_id)
            incident[b].append(edge_id)
        dist = coupling.distance_matrix
        finite = np.isfinite(dist)
        connected = bool(finite.all())
        dist_int = np.where(finite, dist, -1.0).astype(np.int64)
        return cls(
            num_qubits=num_qubits,
            indptr=indptr,
            neighbor_ids=np.asarray(flat, dtype=np.int32),
            edges_a=edges_a,
            edges_b=edges_b,
            incident=tuple(tuple(ids) for ids in incident),
            dist=dist,
            dist_int=dist_int,
            connected=connected,
        )

    # -- memoised interpreter mirrors ---------------------------------------

    def adjacency(self) -> list[list[bool]]:
        """Dense boolean adjacency as nested lists (O(1) scalar lookups)."""
        cached = self.__dict__.get("_adjacency")
        if cached is None:
            cached = [
                [False] * self.num_qubits for _ in range(self.num_qubits)
            ]
            for a, b in zip(self.edges_a.tolist(), self.edges_b.tolist()):
                cached[a][b] = True
                cached[b][a] = True
            self.__dict__["_adjacency"] = cached
        return cached

    def edge_lists(self) -> tuple[list[int], list[int]]:
        cached = self.__dict__.get("_edge_lists")
        if cached is None:
            cached = (self.edges_a.tolist(), self.edges_b.tolist())
            self.__dict__["_edge_lists"] = cached
        return cached

    def dist_int_lists(self) -> list[list[int]]:
        cached = self.__dict__.get("_dist_int_lists")
        if cached is None:
            cached = self.dist_int.tolist()
            self.__dict__["_dist_int_lists"] = cached
        return cached

    def dist_lists(self) -> list[list[float]]:
        cached = self.__dict__.get("_dist_lists")
        if cached is None:
            cached = self.dist.tolist()
            self.__dict__["_dist_lists"] = cached
        return cached

    def __getstate__(self) -> dict:
        # The list mirrors are per-process interpreter caches, as on IntDAG.
        return {
            name: value
            for name, value in self.__dict__.items()
            if not name.startswith("_")
        }


_TABLES: "weakref.WeakKeyDictionary[CouplingMap, NeighborTable]" = (
    weakref.WeakKeyDictionary()
)


def neighbor_table(coupling: "CouplingMap") -> NeighborTable:
    """Memoised :class:`NeighborTable` of ``coupling``."""
    table = _TABLES.get(coupling)
    if table is None:
        table = NeighborTable.from_coupling(coupling)
        _TABLES[coupling] = table
    return table
