"""Reference Clifford propagation for the tests: one Pauli pushed through
named gates one tableau conjugation at a time, against which the package's
table-driven paths are checked."""

from qcvv.cliffords import GATE_UNITARIES, gate_tableau
from qcvv.paulis import PauliString


def tableau_run(layers, p: PauliString) -> PauliString:
    """Propagate ``p`` through a circuit given as layers of (gate name, qubits).

    Each layer is an iterable of ``(name, qubits)`` pairs with disjoint
    supports; gates must be Clifford by name.  Returns the conjugated Pauli
    with its sign.
    """
    out = p
    for layer in layers:
        for name, qubits in layer:
            if name not in GATE_UNITARIES:
                raise ValueError(f"non-Clifford or unknown gate label {name!r}")
            local = out.restrict(qubits)
            img = gate_tableau(name).conjugate(local)
            # splice the image back into the full string
            x, z = out.xbits, out.zbits
            for i, q in enumerate(qubits):
                x = (x & ~(1 << q)) | (((img.xbits >> i) & 1) << q)
                z = (z & ~(1 << q)) | (((img.zbits >> i) & 1) << q)
            phase = (out.phase - local.phase + img.phase) % 4
            out = PauliString(out.n, x, z, phase)
    return out
