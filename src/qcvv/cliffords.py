"""Clifford tableaux, the 1- and 2-qubit Clifford groups, and Pauli propagation.

A :class:`CliffordTableau` stores the conjugation images of the 2n generators
X_i and Z_i as :class:`~qcvv.paulis.PauliString` objects with exact signs.
Conjugating an arbitrary Pauli costs O(n * weight); propagating through a
circuit of L layers costs O(n L).

The 24-element single-qubit group and the 11,520-element two-qubit group are
enumerated with a unitary realization and a decomposition into physical
gates ({X90, Y90} words for one qubit, the standard single-qubit-dressed
CNOT/iSWAP/SWAP classes for two qubits).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import kron_all, pauli_matrices
from .paulis import PauliString, _popcount


@dataclass(frozen=True)
class CliffordTableau:
    n: int
    x_images: tuple  # image of X_q under conjugation, q = 0..n-1
    z_images: tuple  # image of Z_q under conjugation

    def __post_init__(self):
        if len(self.x_images) != self.n or len(self.z_images) != self.n:
            raise ValueError("need one image per generator")

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        xs = tuple(PauliString(n, 1 << q, 0, 0) for q in range(n))
        zs = tuple(PauliString(n, 0, 1 << q, 0) for q in range(n))
        return cls(n, xs, zs)

    def key(self):
        """Hashable canonical form (images with exact phases)."""
        return tuple((p.xbits, p.zbits, p.phase) for p in self.x_images + self.z_images)

    def conjugate(self, p: PauliString) -> PauliString:
        """Image ``C p C^dagger`` with the sign tracked exactly."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        out = PauliString(self.n, 0, 0, p.phase)
        for q in range(self.n):
            if (p.xbits >> q) & 1:
                out = out * self.x_images[q]
        for q in range(self.n):
            if (p.zbits >> q) & 1:
                out = out * self.z_images[q]
        return out

    def then(self, second: "CliffordTableau") -> "CliffordTableau":
        """Tableau of ``second o self`` (apply self first)."""
        xs = tuple(second.conjugate(p) for p in self.x_images)
        zs = tuple(second.conjugate(p) for p in self.z_images)
        return CliffordTableau(self.n, xs, zs)

    def inverse(self) -> "CliffordTableau":
        """Inverse tableau via the symplectic-adjoint construction."""
        n = self.n
        # Build the inverse images by solving C^-1 P C for each generator:
        # the (x|z) rows of the inverse are determined by the symplectic
        # inverse of this tableau's binary matrix; signs follow by checking
        # C (C^-1 P C) C^-1 = P through a forward conjugation.
        rows = []
        for p in list(self.x_images) + list(self.z_images):
            rows.append([(p.xbits >> q) & 1 for q in range(n)] + [(p.zbits >> q) & 1 for q in range(n)])
        m = np.array(rows, dtype=np.uint8).T  # columns are generator images
        inv = _gf2_inv(m)
        xs, zs = [], []
        for col in range(2 * n):
            x = z = 0
            for q in range(n):
                x |= int(inv[q, col]) << q
                z |= int(inv[n + q, col]) << q
            cand = PauliString(n, x, z, _popcount(x & z))
            # fix the sign so that conjugating back returns the generator
            target = PauliString(n, 1 << col, 0, 0) if col < n else PauliString(n, 0, 1 << (col - n), 0)
            forward = self.conjugate(cand)
            phase_fix = (target.phase - forward.phase) % 4
            cand = PauliString(n, x, z, cand.phase + phase_fix)
            (xs if col < n else zs).append(cand)
        return CliffordTableau(n, tuple(xs), tuple(zs))

    def is_pauli(self) -> bool:
        """True when the tableau is conjugation by a Pauli (letters unchanged)."""
        for q in range(self.n):
            px, pz = self.x_images[q], self.z_images[q]
            if px.xbits != (1 << q) or px.zbits != 0:
                return False
            if pz.xbits != 0 or pz.zbits != (1 << q):
                return False
        return True

    def embed(self, n: int, qubits) -> "CliffordTableau":
        """Embed an m-qubit tableau on the listed qubits of an n-qubit register."""
        qubits = list(qubits)
        xs = list(CliffordTableau.identity(n).x_images)
        zs = list(CliffordTableau.identity(n).z_images)
        for i, q in enumerate(qubits):
            xs[q] = self.x_images[i].embed(n, qubits)
            zs[q] = self.z_images[i].embed(n, qubits)
        return CliffordTableau(n, tuple(xs), tuple(zs))


def _gf2_inv(m: np.ndarray) -> np.ndarray:
    m = m.copy() % 2
    k = m.shape[0]
    aug = np.concatenate([m, np.eye(k, dtype=np.uint8)], axis=1)
    row = 0
    for col in range(k):
        pivot = None
        for r in range(row, k):
            if aug[r, col]:
                pivot = r
                break
        if pivot is None:
            raise ValueError("tableau matrix is singular over GF(2)")
        aug[[row, pivot]] = aug[[pivot, row]]
        for r in range(k):
            if r != row and aug[r, col]:
                aug[r] ^= aug[row]
        row += 1
    return aug[:, k:]


def tableau_from_unitary(u: np.ndarray) -> CliffordTableau:
    """Tableau of a (small) Clifford unitary by dense conjugation of X_q, Z_q."""
    d = u.shape[0]
    n = d.bit_length() - 1
    paulis = pauli_matrices(n)
    xs, zs = [], []
    for q in range(n):
        for kind, store in (("X", xs), ("Z", zs)):
            p = PauliString.from_label("".join(kind if i == q else "I" for i in range(n)))
            img = u @ p.to_matrix() @ u.conj().T
            store.append(_match_pauli(img, paulis, n))
    return CliffordTableau(n, tuple(xs), tuple(zs))


def _match_pauli(m: np.ndarray, paulis: np.ndarray, n: int) -> PauliString:
    d = 2**n
    overlaps = np.einsum("kij,ji->k", paulis, m) / d  # Tr[P_k m] / d
    k = int(np.argmax(np.abs(overlaps)))
    coeff = overlaps[k]
    if abs(abs(coeff) - 1) > 1e-8:
        raise ValueError("matrix does not conjugate Paulis to Paulis")
    base = PauliString.from_index(k, n)
    phase = int(round(np.angle(coeff) / (np.pi / 2))) % 4
    return PauliString(n, base.xbits, base.zbits, base.phase + phase)


# -- named gates -------------------------------------------------------------

def _u(mat):
    return np.array(mat, dtype=complex)

_S2 = 1 / np.sqrt(2)
GATE_UNITARIES = {
    "I": _u([[1, 0], [0, 1]]),
    "X": _u([[0, 1], [1, 0]]),
    "Y": _u([[0, -1j], [1j, 0]]),
    "Z": _u([[1, 0], [0, -1]]),
    "H": _S2 * _u([[1, 1], [1, -1]]),
    "S": _u([[1, 0], [0, 1j]]),
    "SDG": _u([[1, 0], [0, -1j]]),
    "X90": _S2 * _u([[1, -1j], [-1j, 1]]),
    "X90M": _S2 * _u([[1, 1j], [1j, 1]]),
    "Y90": _S2 * _u([[1, -1], [1, 1]]),
    "Y90M": _S2 * _u([[1, 1], [-1, 1]]),
    "Z90": _u([[1, 0], [0, 1j]]),
    "Z90M": _u([[1, 0], [0, -1j]]),
    "CNOT": _u([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": _u([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    "ISWAP": _u([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]),
    "ISWAPM": _u([[1, 0, 0, 0], [0, 0, -1j, 0], [0, -1j, 0, 0], [0, 0, 0, 1]]),
}

INVERSE_LABEL = {
    "I": "I", "X": "X", "Y": "Y", "Z": "Z", "H": "H",
    "S": "SDG", "SDG": "S", "Z90": "Z90M", "Z90M": "Z90",
    "X90": "X90M", "X90M": "X90", "Y90": "Y90M", "Y90M": "Y90",
    "CNOT": "CNOT", "CZ": "CZ", "SWAP": "SWAP",
    "ISWAP": "ISWAPM", "ISWAPM": "ISWAP",
}

_1Q_PALETTE = ("I", "X", "Y", "Z", "H", "S", "SDG", "X90", "X90M", "Y90", "Y90M")


@lru_cache(maxsize=None)
def _prep_meas_tables():
    """Derive eigenstate-preparation and measurement-rotation gates.

    ``prep[(letter, sign)]`` is a palette gate with ``U Z U^dag = sign *
    letter`` (so ``U|0>`` is the requested eigenstate); ``meas[letter]``
    maps the letter to +Z under conjugation (rotating it onto the readout
    axis without a sign flip).
    """
    prep = {("I", 1): "I", ("I", -1): "I"}
    meas = {"I": "I", "Z": "I"}
    z = PauliString.from_label("Z")
    for name in _1Q_PALETTE:
        img = gate_tableau(name).conjugate(z)
        sign = img.sign
        if abs(sign.imag) > 1e-12:
            continue
        key = (img.label, 1 if sign.real > 0 else -1)
        prep.setdefault(key, name)
    for letter in ("X", "Y"):
        p = PauliString.from_label(letter)
        for name in _1Q_PALETTE:
            img = gate_tableau(name).conjugate(p)
            if img.label == "Z" and abs(img.sign - 1) < 1e-12:
                meas.setdefault(letter, name)
                break
    return prep, meas


def eigenprep_gate(letter: str, sign: int) -> str:
    """Palette gate preparing the ``sign`` eigenstate of ``letter`` from |0>."""
    prep, _ = _prep_meas_tables()
    return prep[(letter, sign)]


def measurement_rotation_gate(letter: str) -> str:
    """Palette gate rotating ``letter`` to +Z for computational readout."""
    _, meas = _prep_meas_tables()
    return meas[letter]


@lru_cache(maxsize=None)
def gate_tableau(name: str) -> CliffordTableau:
    return tableau_from_unitary(GATE_UNITARIES[name])


# 2-bit letter codes ``x << 1 | z`` of the base-4 Pauli digits I, X, Y, Z
_PAULI_DIGIT_CODES = (0, 2, 3, 1)


def pauli_codes(index: int, n: int) -> list:
    """Per-qubit letter codes ``x << 1 | z`` (I=0, Z=1, X=2, Y=3) of the
    n-qubit Pauli with base-4 index ``index``; qubit 0 is the most
    significant digit, as in :meth:`PauliString.from_index`."""
    return [_PAULI_DIGIT_CODES[(index >> (2 * (n - 1 - q))) & 3] for q in range(n)]


def conjugation_table(tab: CliffordTableau):
    """(image codes, phase exponents) of conjugation by a k-qubit tableau.

    Local Paulis are coded in ``4**k`` integers: bits ``2i + 1`` and ``2i``
    hold the x and z bits of qubit i of the support.  Entry ``c`` gives the
    code of the image of ``X^x Z^z`` (phase exponent 0) and that image's
    phase exponent.
    """
    k = tab.n
    codes = np.zeros(4**k, dtype=np.int64)
    phases = np.zeros(4**k, dtype=np.int64)
    for code in range(4**k):
        x = z = 0
        for i in range(k):
            x |= ((code >> (2 * i + 1)) & 1) << i
            z |= ((code >> (2 * i)) & 1) << i
        img = tab.conjugate(PauliString(k, x, z, 0))
        c = 0
        for i in range(k):
            c |= ((img.xbits >> i) & 1) << (2 * i + 1)
            c |= ((img.zbits >> i) & 1) << (2 * i)
        codes[code] = c
        phases[code] = img.phase
    codes.flags.writeable = phases.flags.writeable = False  # shared by every caller
    return codes, phases


@lru_cache(maxsize=None)
def gate_conjugation_table(name: str):
    """:func:`conjugation_table` of a builtin gate; unknown names raise KeyError."""
    return conjugation_table(gate_tableau(name))


@lru_cache(maxsize=None)
def _image_codes(name: str) -> tuple:
    images, _ = gate_conjugation_table(name)
    k = (len(images).bit_length() - 1) // 2
    return tuple(tuple((int(c) >> (2 * j)) & 3 for j in range(k)) for c in images)


def conjugate_codes(name: str, codes) -> tuple:
    """Per-qubit letter codes of the image, up to sign, of the local Pauli
    with letter codes ``codes`` (one per qubit of the support) under the
    builtin gate ``name``."""
    local = 0
    for j, c in enumerate(codes):
        local |= c << (2 * j)
    return _image_codes(name)[local]


def tableau_run(layers, p: PauliString) -> PauliString:
    """Propagate ``p`` through a circuit given as layers of (gate name, qubits).

    Each layer is an iterable of ``(name, qubits)`` pairs with disjoint
    supports; gates must be Clifford by name.  Cost is polynomial in n and
    depth.  Returns the conjugated Pauli with its sign.
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


# -- group enumeration -------------------------------------------------------

@dataclass(frozen=True)
class CliffordElement:
    """One enumerated group element: tableau, unitary, and a physical-gate word."""

    tableau: CliffordTableau
    unitary: np.ndarray
    word: tuple  # sequence of (gate name, qubits)

    @property
    def n(self):
        return self.tableau.n


@lru_cache(maxsize=None)
def clifford_group_1q():
    """The 24 single-qubit Cliffords, each with an {X90, Y90} word.

    Elements are canonical up to global phase; the unitary stored is the one
    produced by the recorded word.
    """
    seen = {}
    frontier = [(CliffordTableau.identity(1), np.eye(2, dtype=complex), ())]
    seen[frontier[0][0].key()] = frontier[0]
    gens = [("X90", (0,)), ("Y90", (0,))]
    while frontier:
        nxt = []
        for tab, u, word in frontier:
            for name, qubits in gens:
                t2 = tab.then(gate_tableau(name))
                if t2.key() in seen:
                    continue
                entry = (t2, GATE_UNITARIES[name] @ u, word + ((name, qubits),))
                seen[t2.key()] = entry
                nxt.append(entry)
        frontier = nxt
    elems = [CliffordElement(t, u, w) for t, u, w in seen.values()]
    elems.sort(key=lambda e: (len(e.word), e.tableau.key()))
    return tuple(elems)


@dataclass(frozen=True)
class OneQubitTables:
    """Index tables of the enumerated 24-element single-qubit group.

    ``compose[a, b]`` is the element "apply a, then b", ``inverse[a]`` the
    inverse of a, ``gate_index`` maps each builtin single-qubit gate name to
    its element, ``pauli_index[c]`` is the element of the Pauli with letter
    code c (see :func:`pauli_codes`) and ``identity`` is the identity's index.
    """

    compose: np.ndarray
    inverse: np.ndarray
    gate_index: dict
    pauli_index: tuple
    identity: int


@lru_cache(maxsize=None)
def clifford_1q_tables() -> OneQubitTables:
    """Build the :class:`OneQubitTables` once from the tableau enumeration."""
    tabs = [e.tableau for e in clifford_group_1q()]
    index = {t.key(): i for i, t in enumerate(tabs)}
    compose = np.array([[index[a.then(b).key()] for b in tabs] for a in tabs], dtype=np.int64)
    inverse = np.array([index[t.inverse().key()] for t in tabs], dtype=np.int64)
    gate_index = {
        name: index[gate_tableau(name).key()] for name, u in GATE_UNITARIES.items() if u.shape == (2, 2)
    }
    pauli_index = tuple(gate_index[letter] for letter in "IZXY")
    compose.flags.writeable = inverse.flags.writeable = False  # shared by every caller
    return OneQubitTables(compose, inverse, gate_index, pauli_index, index[CliffordTableau.identity(1).key()])


# The three-element axis-cycling set used in the standard 2-qubit
# decomposition: I, A, A**2 with A: X -> Z -> Y -> X (A = S o H as maps).
@lru_cache(maxsize=None)
def _axis_cycle_1q():
    a_u = GATE_UNITARIES["S"] @ GATE_UNITARIES["H"]
    words = {
        0: (),
        1: (("H", (0,)), ("S", (0,))),
        2: (("H", (0,)), ("S", (0,)), ("H", (0,)), ("S", (0,))),
    }
    out = []
    u = np.eye(2, dtype=complex)
    for k in range(3):
        out.append(CliffordElement(tableau_from_unitary(u), u, words[k]))
        u = a_u @ u
    return tuple(out)


def _compose_2q(parts):
    """Compose CliffordElements given as (element, qubits) applied in order."""
    tab = CliffordTableau.identity(2)
    u = np.eye(4, dtype=complex)
    word = ()
    for elem, qubits in parts:
        if elem.n == 1:
            tab = tab.then(elem.tableau.embed(2, qubits))
            full = [np.eye(2, dtype=complex)] * 2
            full[qubits[0]] = elem.unitary
            u = kron_all(full) @ u
            word = word + tuple((name, (qubits[0],)) for name, _ in elem.word)
        else:
            tab = tab.then(elem.tableau)
            u = elem.unitary @ u
            word = word + elem.word
    return CliffordElement(tab, u, word)


@lru_cache(maxsize=None)
def clifford_group_2q():
    """The 11,520 two-qubit Cliffords via the four-class decomposition.

    Classes: (A1 x A2), (A1 x A2) CNOT (S1 x S1'), (A1 x A2) iSWAP (S1 x S1'),
    and (A1 x A2) SWAP, with A from the 24 single-qubit Cliffords and S1 the
    three axis-cycling elements.  Sizes 576 + 5184 + 5184 + 576 = 11520.
    """
    c1 = clifford_group_1q()
    s1 = _axis_cycle_1q()
    mid = {
        None: None,
        "CNOT": CliffordElement(gate_tableau("CNOT"), GATE_UNITARIES["CNOT"], (("CNOT", (0, 1)),)),
        "ISWAP": CliffordElement(gate_tableau("ISWAP"), GATE_UNITARIES["ISWAP"], (("ISWAP", (0, 1)),)),
        "SWAP": CliffordElement(gate_tableau("SWAP"), GATE_UNITARIES["SWAP"], (("SWAP", (0, 1)),)),
    }
    elems = []
    for a in c1:
        for b in c1:
            elems.append(_compose_2q([(mid["SWAP"], (0, 1)), (a, (0,)), (b, (1,))]))
            elems.append(_compose_2q([(a, (0,)), (b, (1,))]))
    for middle in ("CNOT", "ISWAP"):
        for sa in s1:
            for sb in s1:
                tail = [(sa, (0,)), (sb, (1,)), (mid[middle], (0, 1))]
                for a in c1:
                    for b in c1:
                        elems.append(_compose_2q(tail + [(a, (0,)), (b, (1,))]))
    return tuple(elems)


def enumerate_clifford_group(n: int):
    if n == 1:
        return clifford_group_1q()
    if n == 2:
        return clifford_group_2q()
    raise ValueError("only the 1- and 2-qubit groups are enumerated")


def random_clifford(n: int, seed) -> CliffordElement:
    """Uniformly random element of the enumerated 1- or 2-qubit group."""
    from .linalg import rng

    group = enumerate_clifford_group(n)
    return group[int(rng(seed).integers(len(group)))]


def clifford_label(n: int, index: int) -> str:
    """Gate label of an enumerated Clifford, resolved by the default factory."""
    return f"c{n}_{index}"


def clifford_gate_factory(label: str):
    """Gate factory resolving ``c1_<i>`` / ``c2_<i>`` labels to unitaries."""
    if not label.startswith("c"):
        return None
    try:
        head, idx = label.split("_")
        n = int(head[1:])
        return enumerate_clifford_group(n)[int(idx)].unitary
    except (ValueError, IndexError):
        return None


def average_gate_counts(n: int) -> dict:
    """Mean physical-gate counts per Clifford under this package's decomposition."""
    group = enumerate_clifford_group(n)
    total_1q = 0
    total_2q = 0
    for e in group:
        for name, qubits in e.word:
            if len(qubits) == 2:
                total_2q += 1
            else:
                total_1q += 1
    return {"oneq_per_clifford": total_1q / len(group), "twoq_per_clifford": total_2q / len(group)}


def verify_2design(unitaries) -> float:
    """The 2-design statistic: (1/K^2) sum |Tr(U^dag U')|**4; equals 2 iff
    the set is a unitary 2-design."""
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    if not us:
        raise ValueError("need at least one unitary")
    stacked = np.array(us)
    k = len(us)
    # gram[i, j] = Tr(U_i^dag U_j)
    gram = np.einsum("iab,jab->ij", stacked.conj(), stacked)
    return float(np.sum(np.abs(gram) ** 4) / k**2)
