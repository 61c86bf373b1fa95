"""Reference Clifford algebra for the tests, against which the package's
table-driven paths are checked: one Pauli pushed through named gates one
tableau conjugation at a time, and a layer's tableau composed from each
gate's embedded tableau."""

from qcvv.cliffords import GATE_UNITARIES, CliffordTableau, gate_tableau, tableau_from_unitary
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


def layer_tableau(model, layer) -> CliffordTableau:
    """Tableau of one layer of ``model``: from the identity, each gate's
    tableau, from its ideal unitary, embedded in the register and applied
    in turn."""
    tab = CliffordTableau.identity(model.n)
    for label, qubits in layer:
        tab = tab.then(tableau_from_unitary(model.ideal_unitary(label)).embed(model.n, qubits))
    return tab
