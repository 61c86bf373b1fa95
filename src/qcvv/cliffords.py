"""Clifford tableaux, the 1- and 2-qubit Clifford groups, and the
Clifford-layer helpers that the protocols build their circuits from.

A :class:`CliffordTableau` is a (2n, 2n) GF(2) matrix of the generator
images' x|z bits plus their phase vector (Aaronson and Gottesman).  One
batched conjugation, a matrix product mod 2 with an exact phase rule, serves
conjugation, composition and the inverse, which the symplectic form gives
without elimination.

The 24-element single-qubit group and the 11,520-element two-qubit group are
enumerated with a unitary realization and a decomposition into physical
gates ({X90, Y90} words for one qubit, the standard single-qubit-dressed
CNOT/iSWAP/SWAP classes for two qubits).  Each two-qubit class is one
stacked unitary product over the 24 x 24 local pairs.  Each group is
enumerated once per width into arrays: its unitaries, words, tableau keys
and the index of each key.  The RB paths, the ``c1_<i>``/``c2_<i>`` gate
factory and :func:`clifford_index` read those arrays and build no element
object; :func:`enumerate_clifford_group` builds the
:class:`CliffordElement` objects, each of which builds its
:class:`CliffordTableau` from its key on first use.

A Clifford is identified from its unitary in one place: a vectorised pass
conjugates the generators by a stack of unitaries and matches each image to
the Pauli of largest overlap.  Every tableau key, the group builders, the 1q
index tables and :func:`clifford_index` (the group element proportional to a
unitary, as CRB needs for its closing element) come from that pass; the
group algebra composes unitaries, never tableaux.

The protocols build their circuits from one set of Clifford-layer helpers
kept here: the Pauli-eigenstate preparation layer
(:func:`eigenstate_layer`), the readout rotation onto Z and the Z-type
Pauli it leaves (:func:`readout_layer`, :func:`readout_pauli`), the
inverse of a layer (:func:`inverse_layer`), and the 1q layer algebra over
the ``c1_<i>`` index tables (:func:`oneq_layer`,
:func:`compose_1q_layers`, :func:`compose_1q_with_pauli` and
:func:`randomized_compile` of two-qubit sublayers).  Pauli propagation
through whole circuits lives in :mod:`qcvv.device`, which reads the
conjugation tables built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from operator import getitem

import numpy as np

from .linalg import kron_all, pauli_matrices, rng
from .paulis import PauliString


def _unpack(values, n: int) -> np.ndarray:
    """(len(values), n) uint8 bits of non-negative ints, column q holding bit q."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(int(v).to_bytes(width, "little") for v in values), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(values), width), axis=1, count=n, bitorder="little")


def _pack(bits: np.ndarray) -> list:
    """The rows of a 0/1 array as ints, column q giving bit q: :func:`_unpack` reversed."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(bits, axis=-1, bitorder="little")]


def _images(rows: np.ndarray, phases: np.ndarray) -> list:
    """(x bits, z bits, phase exponent) of each Pauli of a batch of bit rows."""
    n = rows.shape[1] // 2
    return list(zip(_pack(rows[:, :n]), _pack(rows[:, n:]), phases.tolist()))


def _bit_rows(paulis, n: int):
    """(m, 2n) uint8 rows, x bits then z bits, and (m,) phase exponents of n-qubit Paulis."""
    rows = np.hstack([_unpack([p.xbits for p in paulis], n), _unpack([p.zbits for p in paulis], n)])
    return rows, np.array([p.phase for p in paulis], dtype=np.int64)


class CliffordTableau:
    """Symplectic tableau of an n-qubit Clifford C, exact signs included.

    ``bits`` is a read-only (2n, 2n) uint8 matrix over GF(2): row g holds
    the x bits and then the z bits of ``C G C^dag`` for the generators G =
    X_0..X_{n-1}, Z_0..Z_{n-1}.  ``phases[g]`` is that image's phase
    exponent, in the convention of :class:`~qcvv.paulis.PauliString`.
    Tableaux compare and hash by :meth:`key`.
    """

    def __init__(self, bits, phases):
        bits = np.array(bits, dtype=np.uint8) & 1
        phases = np.array(phases, dtype=np.int64) % 4
        if phases.ndim != 1 or len(phases) % 2 or bits.shape != (len(phases), len(phases)):
            raise ValueError("need one image per generator")
        bits.flags.writeable = phases.flags.writeable = False
        self.n = len(phases) // 2
        self.bits = bits
        self.phases = phases

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        return cls(np.eye(2 * n, dtype=np.uint8), np.zeros(2 * n, dtype=np.int64))

    def key(self):
        """Hashable canonical form: per generator image, its x bits, z bits
        and phase exponent, as in :meth:`PauliString`."""
        return tuple(_images(self.bits, self.phases))

    def __eq__(self, other):
        return isinstance(other, CliffordTableau) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    @property
    def x_images(self) -> tuple:
        """Images of X_q, q = 0..n-1, as PauliStrings."""
        return tuple(PauliString(self.n, *image) for image in self.key()[: self.n])

    @property
    def z_images(self) -> tuple:
        """Images of Z_q, q = 0..n-1, as PauliStrings."""
        return tuple(PauliString(self.n, *image) for image in self.key()[self.n :])

    def _conjugate_rows(self, rows: np.ndarray, phases: np.ndarray):
        """Bit rows and phase exponents of ``C P C^dag`` for a batch of Paulis
        P given as (m, 2n) bit rows and (m,) phase exponents.

        P is ``i**k`` times the product of the generators its row selects, in
        generator order, so its image multiplies their images in that order.
        Moving each image's Z part past the X parts of the later ones gives
        the sign ``(-1)**(r^T U r)``, with ``U[j, l]`` (j < l) the parity of
        image j's z bits against image l's x bits.  uint8 products wrap
        modulo 256, which keeps their parity.
        """
        n = self.n
        upper = np.triu(self.bits[:, n:] @ self.bits[:, :n].T, 1) & 1
        cross = ((rows @ upper) & 1 & rows).sum(axis=1, dtype=np.int64)
        return rows @ self.bits & 1, (phases + rows @ self.phases + 2 * cross) % 4

    def conjugate(self, p: PauliString) -> PauliString:
        """Image ``C p C^dagger`` with the sign tracked exactly."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        rows, phases = self._conjugate_rows(*_bit_rows([p], self.n))
        return PauliString(self.n, *_images(rows, phases)[0])

    def then(self, second: "CliffordTableau") -> "CliffordTableau":
        """Tableau of ``second o self`` (apply self first)."""
        return CliffordTableau(*second._conjugate_rows(self.bits, self.phases))

    def inverse(self) -> "CliffordTableau":
        """Inverse tableau via the symplectic form.

        A symplectic M has the inverse ``Omega M^T Omega``, Omega swapping
        the x and z halves.  The phases follow from one forward conjugation
        of the unsigned rows: each must map back to its generator with phase
        0.  Raises ValueError when M is not symplectic, singular M included.
        """
        n = self.n
        swap = np.r_[n : 2 * n, 0:n]
        rows = self.bits.T[np.ix_(swap, swap)]
        forward, phases = self._conjugate_rows(rows, np.zeros(2 * n, dtype=np.int64))
        if not np.array_equal(forward, np.eye(2 * n, dtype=np.uint8)):
            raise ValueError("tableau matrix is not symplectic over GF(2)")
        return CliffordTableau(rows, -phases)

    def embed(self, n: int, qubits) -> "CliffordTableau":
        """Embed an m-qubit tableau on the listed qubits of an n-qubit register."""
        qubits = list(qubits)
        index = np.array(qubits + [n + q for q in qubits], dtype=np.intp)
        bits = np.eye(2 * n, dtype=np.uint8)
        bits[np.ix_(index, index)] = self.bits
        phases = np.zeros(2 * n, dtype=np.int64)
        phases[index] = self.phases
        return CliffordTableau(bits, phases)


def tableau_from_unitary(u: np.ndarray) -> CliffordTableau:
    """Tableau of a (small) Clifford unitary by dense conjugation of X_q, Z_q."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[0].bit_length() - 1
    return _tableau(n, _tableau_keys(u[None])[0])


# unitaries per chunk of the conjugation pass; bounds its working memory
_CHUNK = 1024


@lru_cache(maxsize=None)
def _index_bits(n: int):
    """Per n-qubit basis-state index c (qubit 0 its leading bit): the same
    bits as a qubit mask (qubit q in bit q), and the parity of c's bits."""
    c = np.arange(2**n)
    bits = (c[:, None] >> (n - 1 - np.arange(n))) & 1
    return bits @ (1 << np.arange(n)), bits.sum(axis=1) & 1


def _tableau_keys(us: np.ndarray) -> list:
    """:meth:`CliffordTableau.key` of each unitary in a stack of n-qubit Cliffords.

    Entry ``[k][g]`` holds the x bits, z bits and phase exponent of
    ``U_k G U_k^dag`` for the generators G = X_0..X_{n-1}, Z_0..Z_{n-1}.
    Each image ``i**k X^x Z^z`` is read off its entries: with qubit 0 the
    leading bit of a basis-state index, column c holds one nonzero entry,
    ``i**k (-1)**(z.c)``, in row ``c ^ x``.  So column 0 gives x (the row of
    its nonzero entry) and k, and the column of each one-qubit basis state
    gives that qubit's z bit, by its sign against column 0.
    """
    d = us.shape[-1]
    n = d.bit_length() - 1
    mask, parity = _index_bits(n)
    gens = pauli_matrices(n)[[4 ** (n - 1 - q) for q in range(n)] + [3 * 4 ** (n - 1 - q) for q in range(n)]]
    cols = np.arange(d)
    single = 1 << (n - 1 - np.arange(n))  # the basis index of qubit q alone
    out = np.empty((len(us), 2 * n, 3), dtype=np.int64)
    for lo in range(0, len(us), _CHUNK):
        u = us[lo : lo + _CHUNK, None]
        images = u @ gens @ u.conj().swapaxes(-1, -2)
        x = np.argmax(np.abs(images[..., 0]), axis=-1)
        entries = np.take_along_axis(images, (x[..., None] ^ cols)[..., None, :], axis=-2)[..., 0, :]
        lead = entries[..., :1]
        z = (entries[..., single] * lead.conj()).real < 0
        zbig = z @ single
        expected = lead * (1 - 2 * parity[zbig[..., None] & cols])
        # a column's unit entry at row c ^ x leaves no room for another in a
        # unitary image; the squared norm checks that the image is unitary
        if not (
            np.all(np.abs(entries - expected) <= 1e-8)
            and np.all(np.abs(np.abs(lead) - 1) <= 1e-8)
            and np.allclose((np.abs(images) ** 2).sum(axis=(-2, -1)), d, atol=1e-8)
        ):
            raise ValueError("matrix does not conjugate Paulis to Paulis")
        out[lo : lo + _CHUNK, :, 0] = mask[x]
        out[lo : lo + _CHUNK, :, 1] = z @ (1 << np.arange(n))
        out[lo : lo + _CHUNK, :, 2] = np.rint(np.angle(lead[..., 0]) / (np.pi / 2)).astype(np.int64) % 4
    # one tuple per image, grouped 2n at a time by zipping one iterator
    rows = iter(map(tuple, out.reshape(-1, 3).tolist()))
    return list(zip(*[rows] * (2 * n)))


def _tableau(n: int, key) -> CliffordTableau:
    xs, zs, phases = zip(*key)
    return CliffordTableau(np.hstack([_unpack(xs, n), _unpack(zs, n)]), phases)


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


@lru_cache(maxsize=None)
def gate_tableau(name: str) -> CliffordTableau:
    return tableau_from_unitary(GATE_UNITARIES[name])


# the 2-bit letter code ``x << 1 | z`` of each base-4 Pauli digit I, X, Y, Z,
# and the digit of each letter code I, Z, X, Y: one encoding, both ways
_CODE_OF_DIGIT = np.array([0, 2, 3, 1], dtype=np.intp)
_DIGIT_OF_CODE = np.argsort(_CODE_OF_DIGIT)


def pauli_codes(index: int, n: int) -> list:
    """Per-qubit letter codes ``x << 1 | z`` (I=0, Z=1, X=2, Y=3) of the
    n-qubit Pauli with base-4 index ``index``; qubit 0 is the most
    significant digit, as in :meth:`PauliString.from_index`."""
    return _CODE_OF_DIGIT[[(index >> (2 * (n - 1 - q))) & 3 for q in range(n)]].tolist()


def conjugation_table(tab: CliffordTableau):
    """(images, phases) of conjugation by a k-qubit tableau.

    Local Paulis are coded in ``4**k`` integers: bits ``2i + 1`` and ``2i``
    hold the x and z bits of qubit i of the support.  ``images`` is a
    (k, 4**k) uint8 table: ``images[i, c]`` is the letter code ``x << 1 | z``
    on support qubit i of the image of ``X^x Z^z`` (code c, phase exponent
    0), and ``phases[c]`` is that image's phase exponent.
    """
    k = tab.n
    shifts = 2 * np.arange(k)
    codes = np.arange(4**k)[:, None]
    rows = np.hstack([codes >> (shifts + 1), codes >> shifts]).astype(np.uint8) & 1
    rows, phases = tab._conjugate_rows(rows, np.zeros(4**k, dtype=np.int64))
    return np.ascontiguousarray((rows[:, :k] << 1 | rows[:, k:]).T), phases


# -- group enumeration -------------------------------------------------------

@dataclass(frozen=True)
class CliffordElement:
    """One enumerated group element: its tableau key, unitary, and a
    physical-gate word.  The tableau is built from the key on first use."""

    key: tuple  # CliffordTableau.key() of the element
    unitary: np.ndarray
    word: tuple  # sequence of (gate name, qubits)

    @property
    def n(self):
        return len(self.key) // 2

    @cached_property
    def tableau(self) -> CliffordTableau:
        return _tableau(self.n, self.key)


def _enumerate_1q():
    """Unitaries, words and tableau keys of the single-qubit Cliffords, in
    element order: by word length, then tableau key."""
    start = (np.eye(2, dtype=complex), ())
    seen = {_tableau_keys(start[0][None])[0]: start}
    frontier = [start]
    while frontier:
        cands = [(GATE_UNITARIES[name] @ u, word + ((name, (0,)),)) for u, word in frontier for name in ("X90", "Y90")]
        frontier = []
        for key, cand in zip(_tableau_keys(np.array([u for u, _ in cands])), cands):
            if key not in seen:
                seen[key] = cand
                frontier.append(cand)
    ordered = sorted(seen.items(), key=lambda item: (len(item[1][1]), item[0]))
    return np.array([u for _, (u, _) in ordered]), [word for _, (_, word) in ordered], [key for key, _ in ordered]


def clifford_group_1q():
    """The 24 single-qubit Cliffords, each with an {X90, Y90} word.

    Elements are canonical up to global phase; the unitary stored is the one
    produced by the recorded word.
    """
    return enumerate_clifford_group(1)


@dataclass(frozen=True)
class OneQubitTables:
    """Index tables of the enumerated 24-element single-qubit group.

    ``compose[a, b]`` is the element "apply a, then b", ``inverse[a]`` the
    inverse of a, ``gate_index`` maps each builtin single-qubit gate name to
    its element, ``pauli_index[c]`` is the element of the Pauli with letter
    code c (see :func:`pauli_codes`) and ``identity`` is the identity's index.

    The 1q layer algebra reads the same group through plain Python tables,
    which per-qubit loops index faster than arrays: ``labels[i]`` is element
    i's ``c1_<i>`` label, ``element`` maps each ``c1_<i>`` label and builtin
    single-qubit name to its element, ``inverse_label`` maps each ``c1_<i>``
    label and builtin name (of any arity) to the label of its inverse, and
    ``products[a][b]`` equals ``compose[a, b]``.
    """

    compose: np.ndarray
    inverse: np.ndarray
    gate_index: dict
    pauli_index: tuple
    identity: int
    labels: tuple
    element: dict
    inverse_label: dict
    products: tuple


@lru_cache(maxsize=None)
def clifford_1q_tables() -> OneQubitTables:
    """Build the :class:`OneQubitTables` once from the element unitaries."""
    us = group_unitaries(1)
    compose = np.array(clifford_index(1, us[None, :] @ us[:, None]), dtype=np.int64).reshape(24, 24)
    inverse = np.array(clifford_index(1, us.conj().swapaxes(1, 2)), dtype=np.int64)
    names = [name for name, u in GATE_UNITARIES.items() if u.shape == (2, 2)]
    gate_index = dict(zip(names, clifford_index(1, [GATE_UNITARIES[name] for name in names])))
    pauli_index = tuple(gate_index[letter] for letter in "IZXY")
    compose.flags.writeable = inverse.flags.writeable = False  # shared by every caller
    labels = tuple(clifford_label(1, i) for i in range(len(us)))
    element = {**dict(zip(labels, range(len(us)))), **gate_index}
    inverse_label = {**dict(zip(labels, (labels[i] for i in inverse.tolist()))), **INVERSE_LABEL}
    products = tuple(map(tuple, compose.tolist()))
    return OneQubitTables(
        compose, inverse, gate_index, pauli_index, gate_index["I"], labels, element, inverse_label, products
    )


# -- Clifford layers ---------------------------------------------------------
# A layer is a tuple of (gate label, qubits) pairs with disjoint supports.
# Single-qubit layers hold builtin names or ``c1_<i>`` labels.  The 1q layer
# algebra reads each label once through the label tables of
# :class:`OneQubitTables`, works on per-qubit element lists, and writes
# full-width layers back through :func:`oneq_layer`.  The helpers that draw
# from ``gen`` keep one fixed draw order, so seeded circuits are reproducible.

def eigenstate_layer(p: PauliString, gen):
    """1q layer preparing a random tensor eigenstate of p from |0...0>.

    Draws one eigenvalue per non-identity letter; returns (layer, sign), the
    sign being the product of the drawn eigenvalues.
    """
    prep, _ = _prep_meas_tables()
    layer = []
    total = 1
    for q in range(p.n):
        letter = p.letter(q)
        s = 1
        if letter != "I":
            s = 1 if gen.random() < 0.5 else -1
            total *= s
        gate = prep[(letter, s)]
        if gate != "I":
            layer.append((gate, (q,)))
    return tuple(layer), total


def readout_layer(p: PauliString):
    """1q layer rotating each letter of p onto +Z for computational readout."""
    _, meas = _prep_meas_tables()
    gates = ((meas[p.letter(q)], (q,)) for q in range(p.n))
    return tuple(g for g in gates if g[0] != "I")


def readout_pauli(p: PauliString) -> PauliString:
    """The Z-type Pauli on p's support: p after :func:`readout_layer`, up to sign."""
    return PauliString(p.n, 0, p.pattern, 0)


def oneq_layer(elements):
    """Full-width 1q layer with element ``elements[q]``, as its ``c1_<i>``
    label, on qubit q; every layer of a width shares its operations."""
    return tuple(map(getitem, _oneq_ops(len(elements)), elements))


@lru_cache(maxsize=None)
def _oneq_ops(n: int) -> tuple:
    """Per qubit q < n, the operations ``(c1_<i>, (q,))`` of the 24
    elements, in element order."""
    labels = clifford_1q_tables().labels
    return tuple(tuple((label, (q,)) for label in labels) for q in range(n))


def _elements(layer, n: int) -> list:
    """Per-qubit elements of a 1q layer of c1 labels or builtin names on n
    qubits, the identity where the layer has no gate."""
    tables = clifford_1q_tables()
    out = [tables.identity] * n
    element = tables.element
    for lbl, (q,) in layer:
        out[q] = element[lbl]
    return out


def inverse_layer(layer):
    """The layer of inverse gates, ``c1_<i>`` labels and builtin names alike."""
    inverse = clifford_1q_tables().inverse_label
    return tuple([(inverse[lbl], qs) for lbl, qs in layer])


def compose_1q_layers(first, second, n):
    """Full-width ``c1`` layer equal to applying ``first`` then ``second``."""
    tables = clifford_1q_tables()
    products, element = tables.products, tables.element
    per_qubit = _elements(first, n)
    for lbl, (q,) in second:
        per_qubit[q] = products[per_qubit[q]][element[lbl]]
    return oneq_layer(per_qubit)


def _with_pauli(per_qubit, codes, before: bool) -> list:
    """Per-qubit elements with the Pauli of letter codes ``codes`` applied
    before or after them."""
    tables = clifford_1q_tables()
    products, pauli = tables.products, tables.pauli_index
    if before:
        return [products[pauli[c]][e] for e, c in zip(per_qubit, codes)]
    return [products[e][pauli[c]] for e, c in zip(per_qubit, codes)]


def compose_1q_with_pauli(layer, codes, n, before: bool):
    """Full-width ``c1`` layer of ``layer`` with the Pauli (per-qubit letter
    codes, see :func:`pauli_codes`) applied before or after it."""
    return oneq_layer(_with_pauli(_elements(layer, n), codes, before))


def randomized_compile(oneq_layers, twoq_layers, n, gen):
    """Dress 2q sublayers E as C E D with D a random Pauli layer and
    C = E D E^dag; C and D are compiled into the neighboring 1q layers so
    the ideal action and depth are unchanged.

    D is drawn per sublayer, in order, as one base-4 Pauli index; the
    letters of C follow from pushing D's letters through each gate's local
    conjugation table (:func:`_dress_elements`); C's sign is irrelevant up
    to global phase."""
    oneq_layers = list(oneq_layers)
    # only the 1q layers next to a 2q sublayer are dressed; the rest keep their labels
    touched = len(twoq_layers) + 1 if twoq_layers else 0
    elements = np.array([_elements(layer, n) for layer in oneq_layers[:touched]], dtype=np.intp).reshape(touched, n)
    dressings = gen.integers(4**n, size=len(twoq_layers))
    oneq_layers[:touched] = map(oneq_layer, _dress_elements(elements, twoq_layers, dressings).tolist())
    return [tuple(map(tuple, oneq_layers)), list(twoq_layers)]


# the images table of a qubit that no gate of a sublayer touches: it keeps its letter
_IDLE_IMAGES = np.repeat(np.arange(4, dtype=np.uint8)[:, None], 4, axis=1)


def _dress_elements(elements, twoq_layers, dressings):
    """:func:`randomized_compile` on an array of per-qubit elements, shaped
    ``(..., len(twoq_layers) + 1, n)``, with its Pauli indices drawn:
    ``dressings[..., i]`` is the base-4 index of sublayer i's D.  Layer i
    takes D after it and layer i + 1 takes C before it, as table lookups
    over every leading index at once.  The group tables are exact, so the
    elements are those of one sublayer dressed at a time."""
    n, depth = elements.shape[-1], len(twoq_layers)
    if not depth:
        return elements
    tables = clifford_1q_tables()
    d = _CODE_OF_DIGIT[(dressings[..., None] >> (2 * np.arange(n - 1, -1, -1))) & 3]  # (..., depth, n) letter codes
    images, partner = _dressing_images(twoq_layers, n)
    rows = np.arange(depth)[:, None]
    c = images[rows, np.arange(n), d, d[..., rows, partner]]
    pauli = np.array(tables.pauli_index)
    out = elements.copy()
    out[..., :depth, :] = tables.compose[out[..., :depth, :], pauli[d]]
    out[..., 1:, :] = tables.compose[pauli[c], out[..., 1:, :]]
    return out


def _dressing_images(twoq_layers, n):
    """Per sublayer and qubit q, the letter code that q carries in C, as
    ``images[i, q, a, b]`` for D's codes a on q and b on ``partner[i, q]``,
    the other support qubit of q's gate (q itself when q is idle or its
    gate acts on q alone), from each gate's :func:`_local_images`."""
    images = np.empty((len(twoq_layers), n, 4, 4), dtype=np.uint8)
    images[:] = _IDLE_IMAGES
    partner = np.empty((len(twoq_layers), n), dtype=np.intp)
    partner[:] = np.arange(n)
    ops = [(i, label, qubits) for i, layer in enumerate(twoq_layers) for label, qubits in layer]
    if ops:
        # per support qubit of every gate, in gate order: its sublayer and
        # qubit, its place j in the support and the end of its gate's run
        sublayer, labels, supports = zip(*ops)
        size = np.fromiter(map(len, supports), dtype=np.intp, count=len(ops))
        end = np.repeat(np.cumsum(size), size)
        qubits = np.fromiter(chain.from_iterable(supports), dtype=np.intp, count=len(end))
        j = np.arange(len(qubits)) - end + np.repeat(size, size)
        distinct = list(dict.fromkeys(labels))
        tables = [_local_images(label) for label in distinct]
        first = dict(zip(distinct, np.cumsum([0] + [len(t) for t in tables]).tolist()))  # a label's first table
        table = np.repeat(np.fromiter(map(first.__getitem__, labels), dtype=np.intp, count=len(ops)), size) + j
        at = (np.repeat(sublayer, size), qubits)
        images[at] = np.concatenate(tables)[table]
        partner[at] = qubits[end - 1 - j]  # the support reversed
    return images, partner


@lru_cache(maxsize=None)
def _local_images(name: str) -> np.ndarray:
    """Per support qubit j of the builtin gate ``name`` (one or two qubits),
    the letter code that j carries in the image of a local Pauli, as
    ``images[j, a, b]`` for the Pauli's code a on j and b on the other
    support qubit (a again for a 1-qubit gate)."""
    codes = conjugation_table(gate_tableau(name))[0].T
    if codes.shape[1] == 1:
        images = np.repeat(codes[None], 4, axis=2)
    else:
        # a pair's local code is a | b << 2 for codes a, b on its qubits 0, 1
        by_pair = codes.reshape(4, 4, 2)  # [b, a, j]
        images = np.stack([by_pair[:, :, 0].T, by_pair[:, :, 1]])
    images.flags.writeable = False  # shared by every caller
    return images


# The three-element axis-cycling set used in the standard 2-qubit
# decomposition: I, A, A**2 with A: X -> Z -> Y -> X (A = S o H as maps).
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
        out.append((u, words[k]))
        u = a_u @ u
    return tuple(out)


def _on_qubit(q, elements):
    """Single-qubit (unitary, word) pairs placed on qubit q of two, as one
    stack of unitaries and a list of words."""
    eye = np.eye(2, dtype=complex)
    us = np.array([kron_all([u, eye] if q == 0 else [eye, u]) for u, _ in elements])
    return us, [tuple((name, (q,)) for name, _ in word) for _, word in elements]


def _enumerate_2q():
    """Unitaries, words and tableau keys of the two-qubit Cliffords, in
    element order.

    Each class is one stacked product ``b @ (a @ prefix)`` over the 24 x 24
    local pairs, a on qubit 0 (outer) and b on qubit 1 (inner); the SWAP
    and plain classes alternate element by element."""
    c1, cycle = list(zip(*_enumeration(1)[:2])), _axis_cycle_1q()
    (a0, w0), (a1, w1) = _on_qubit(0, c1), _on_qubit(1, c1)
    (s0, v0), (s1, v1) = _on_qubit(0, cycle), _on_qubit(1, cycle)
    eye = np.eye(4, dtype=complex)

    def dressed(prefix, prefix_word):
        us = (a1[None] @ (a0 @ prefix)[:, None]).reshape(-1, 4, 4)
        return us, [prefix_word + wa + wb for wa in w0 for wb in w1]

    swap, plain = dressed(GATE_UNITARIES["SWAP"] @ eye, (("SWAP", (0, 1)),)), dressed(eye, ())
    us = [np.stack([swap[0], plain[0]], axis=1).reshape(-1, 4, 4)]
    words = [w for pair in zip(swap[1], plain[1]) for w in pair]
    for name in ("CNOT", "ISWAP"):
        for sa, va in zip(s0, v0):
            for sb, vb in zip(s1, v1):
                u, w = dressed(GATE_UNITARIES[name] @ (sb @ (sa @ eye)), va + vb + ((name, (0, 1)),))
                us.append(u)
                words += w
    us = np.concatenate(us)
    return us, words, _tableau_keys(us)


def clifford_group_2q():
    """The 11,520 two-qubit Cliffords via the four-class decomposition.

    Classes: (A1 x A2), (A1 x A2) CNOT (S1 x S1'), (A1 x A2) iSWAP (S1 x S1'),
    and (A1 x A2) SWAP, with A from the 24 single-qubit Cliffords and S1 the
    three axis-cycling elements.  Sizes 576 + 5184 + 5184 + 576 = 11520.
    """
    return enumerate_clifford_group(2)


@lru_cache(maxsize=None)
def _enumeration(n: int):
    """The enumerated n-qubit group as a read-only (K, d, d) stack of
    unitaries, a tuple of words and a tuple of tableau keys, all in element
    order, and the dict from each key to its element's index."""
    if n == 1:
        us, words, keys = _enumerate_1q()
    elif n == 2:
        us, words, keys = _enumerate_2q()
    else:
        raise ValueError("only the 1- and 2-qubit groups are enumerated")
    us.flags.writeable = False
    return us, tuple(words), tuple(keys), {key: i for i, key in enumerate(keys)}


def group_unitaries(n: int) -> np.ndarray:
    """The enumerated n-qubit group's unitaries (n = 1, 2) as one read-only
    (K, d, d) stack in element order; element i's ``unitary`` is a view of
    row i, so the stack costs no copy."""
    return _enumeration(n)[0]


def clifford_index(n: int, unitaries) -> list:
    """Indices in the enumerated n-qubit group (n = 1, 2) of the elements
    proportional to a stack of Clifford unitaries."""
    us = np.asarray(unitaries, dtype=complex).reshape(-1, 2**n, 2**n)
    index = _enumeration(n)[3]
    return [index[key] for key in _tableau_keys(us)]


@lru_cache(maxsize=None)
def enumerate_clifford_group(n: int):
    """The enumerated n-qubit group (n = 1, 2) as :class:`CliffordElement`
    objects in element order, built once per width."""
    us, words, keys, _ = _enumeration(n)
    return tuple(CliffordElement(key, u, word) for key, u, word in zip(keys, us, words))


def random_clifford(n: int, seed) -> CliffordElement:
    """Uniformly random element of the enumerated 1- or 2-qubit group, built
    alone from the group's arrays."""
    us, words, keys, _ = _enumeration(n)
    i = int(rng(seed).integers(len(keys)))
    return CliffordElement(keys[i], us[i], words[i])


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
        return _enumeration(n)[0][int(idx)]
    except (ValueError, IndexError):
        return None


def average_gate_counts(n: int) -> dict:
    """Mean physical-gate counts per Clifford under this package's decomposition."""
    words = _enumeration(n)[1]
    total_1q = 0
    total_2q = 0
    for word in words:
        for name, qubits in word:
            if len(qubits) == 2:
                total_2q += 1
            else:
                total_1q += 1
    return {"oneq_per_clifford": total_1q / len(words), "twoq_per_clifford": total_2q / len(words)}


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
