"""Flat int-array routing kernel (``build_swap_map`` shape).

The package mirrors the structure qiskit uses when it delegates Sabre to
``qiskit._accelerate.sabre_swap`` — a :class:`~repro.transpiler.kernel.intdag.IntDAG`
lowering of the circuit DAG, a
:class:`~repro.transpiler.kernel.neighbors.NeighborTable` over the coupling
map, and a :func:`~repro.transpiler.kernel.route.route_kernel` loop over
flat int/float arrays that runs as one compiled call per routing run
(:mod:`~repro.transpiler.kernel.native`), with a Python twin as fallback.
Outputs are bit-identical to the object-path router
(``MIRAGE_ROUTE_KERNEL=object``) at a fixed seed.
"""

from repro.transpiler.kernel.intdag import IntDAG, adopt_intdag, int_dag
from repro.transpiler.kernel.neighbors import NeighborTable, neighbor_table
from repro.transpiler.kernel.route import (
    KernelState,
    MirrorDecision,
    route_kernel,
    route_kernel_mode,
)

__all__ = [
    "IntDAG",
    "KernelState",
    "MirrorDecision",
    "NeighborTable",
    "adopt_intdag",
    "int_dag",
    "neighbor_table",
    "route_kernel",
    "route_kernel_mode",
]
