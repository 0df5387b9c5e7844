"""Input-cleaning passes (paper Section V).

Before routing, the pass manager removes barriers, measurements and identity
gates, and elides SWAP gates present in the *input* program by permuting the
wire labels of all downstream gates (an input SWAP never needs to be
executed — only routing-inserted SWAPs cost pulses).
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit


def remove_directives(circuit: QuantumCircuit) -> QuantumCircuit:
    """Drop barriers and measurements."""
    return circuit.without_directives()


def remove_identity_gates(circuit: QuantumCircuit) -> QuantumCircuit:
    """Drop explicit identity gates and zero-angle rotations."""
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    for instruction in circuit:
        gate = instruction.gate
        if gate.name == "id":
            continue
        if gate.name in {"rx", "ry", "rz", "p", "cp", "rzz", "rxx", "ryy"} and (
            abs(gate.params[0]) < 1e-12
        ):
            continue
        out.append_instruction(instruction)
    return out


def elide_input_swaps(
    circuit: QuantumCircuit,
) -> tuple[QuantumCircuit, list[int]]:
    """Remove SWAP gates from the input program by relabelling wires.

    Every SWAP in the source circuit is absorbed into a virtual-qubit
    permutation applied to all later gates (an input SWAP never needs to be
    executed — only routing-inserted SWAPs cost pulses).  The returned
    circuit computes the same unitary up to that final wire permutation.

    Returns:
        ``(circuit, permutation)``: ``permutation[q]`` is the wire of the
        returned circuit that holds input qubit ``q``'s state at the end.
    """
    permutation = list(range(circuit.num_qubits))
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    for instruction in circuit:
        if instruction.gate.name == "swap":
            a, b = instruction.qubits
            permutation[a], permutation[b] = permutation[b], permutation[a]
            continue
        out.append(
            instruction.gate, [permutation[q] for q in instruction.qubits]
        )
    return out, permutation


def clean_input(circuit: QuantumCircuit, *, elide_swaps: bool = True) -> QuantumCircuit:
    """Full input-cleaning pipeline used by the preset pass managers.

    The permutation absorbed by :func:`elide_input_swaps` is dropped here;
    the transpilation pipeline's clean stages record it instead (see
    :class:`repro.core.pipeline.CleanInputPass`).
    """
    cleaned = remove_directives(circuit)
    cleaned = remove_identity_gates(cleaned)
    if elide_swaps:
        cleaned, _ = elide_input_swaps(cleaned)
    return cleaned
