"""Output checks computed by the benchmark itself, not by ``repro``.

* :func:`coupling_violations` recomputes, from the routed circuit and the
  coupling map's edge list, every two-qubit gate that does not sit on an
  edge (plus gates wider than two qubits, which no router may emit).
* :func:`digest` fingerprints one result: every instruction (gate name,
  parameters, explicit matrix bytes, qubits), both layouts and the
  quality numbers.  Fixed-seed runs must reproduce it bit for bit.

No unitary-equivalence verdict is made here: the library does not yet
record the permutation that absorbing input SWAPs applies to the output
wires, so an equivalence check would fail on QFT for a known reason.
"""

from __future__ import annotations

import hashlib


def coupling_violations(circuit, coupling) -> list[str]:
    """Describe every instruction of ``circuit`` that ``coupling`` forbids."""
    edges = {frozenset(edge) for edge in coupling.edges}
    width = coupling.num_qubits
    problems = []
    for index, instruction in enumerate(circuit):
        if instruction.gate.is_directive:
            continue
        qubits = instruction.qubits
        if any(q < 0 or q >= width for q in qubits):
            problems.append(f"op {index} {instruction.gate.name} on {qubits}: "
                            f"qubit outside the {width}-qubit device")
        elif len(qubits) > 2:
            problems.append(f"op {index} {instruction.gate.name} acts on "
                            f"{len(qubits)} qubits")
        elif len(qubits) == 2 and frozenset(qubits) not in edges:
            problems.append(f"op {index} {instruction.gate.name} on {qubits}: "
                            f"not a coupling edge")
    return problems


def digest(result) -> str:
    """Fixed-seed fingerprint of a :class:`repro.core.TranspileResult`."""
    from repro.circuits.gates import UnitaryGate

    h = hashlib.sha256()
    for instruction in result.circuit:
        gate = instruction.gate
        h.update(f"{gate.name}|{gate.params!r}|{instruction.qubits!r};".encode())
        if isinstance(gate, UnitaryGate):
            h.update(gate.matrix().tobytes())
    h.update(repr(result.initial_layout.virtual_to_physical()).encode())
    h.update(repr(result.final_layout.virtual_to_physical()).encode())
    h.update(repr((result.method, result.metrics.depth, result.metrics.total_cost,
                   result.swaps_added, result.mirrors_accepted,
                   result.mirror_candidates)).encode())
    return h.hexdigest()[:16]
