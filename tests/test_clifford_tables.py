"""Differential tests of the single-qubit index tables, the table-driven
Pauli propagation and the identification of Clifford unitaries against the
CliffordTableau algebra they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvv import cliffords as cl
from qcvv import device as dv
from qcvv import fidelity as fd
from qcvv import rb
from qcvv.cliffords import (
    GATE_UNITARIES,
    CliffordTableau,
    clifford_1q_tables,
    clifford_group_1q,
    gate_tableau,
    pauli_codes,
    tableau_run,
)
from qcvv.device import Circuit
from qcvv.linalg import kron_all, pauli_matrices, rng
from qcvv.paulis import PauliString, all_paulis

ONEQ_NAMES = sorted(name for name, u in GATE_UNITARIES.items() if u.shape == (2, 2))
TWOQ_NAMES = sorted(name for name, u in GATE_UNITARIES.items() if u.shape == (4, 4))


def _key_index():
    return {e.tableau.key(): i for i, e in enumerate(clifford_group_1q())}


def test_compose_table_exhaustive():
    tabs = [e.tableau for e in clifford_group_1q()]
    index = _key_index()
    compose = clifford_1q_tables().compose
    assert compose.shape == (24, 24)
    for a in range(24):
        for b in range(24):
            assert compose[a, b] == index[tabs[a].then(tabs[b]).key()]


def test_inverse_and_identity_exhaustive():
    tabs = [e.tableau for e in clifford_group_1q()]
    index = _key_index()
    tables = clifford_1q_tables()
    assert tables.identity == index[CliffordTableau.identity(1).key()]
    for a in range(24):
        assert tables.inverse[a] == index[tabs[a].inverse().key()]
        assert tables.compose[a, tables.inverse[a]] == tables.identity


def test_every_builtin_oneq_name_indexed():
    tables = clifford_1q_tables()
    tabs = [e.tableau for e in clifford_group_1q()]
    assert sorted(tables.gate_index) == ONEQ_NAMES
    for name in ONEQ_NAMES:
        assert tabs[tables.gate_index[name]].key() == gate_tableau(name).key()


def test_pauli_codes_and_index_match_pauli_strings():
    tables = clifford_1q_tables()
    tabs = [e.tableau for e in clifford_group_1q()]
    n = 3
    for idx in range(4**n):
        p = PauliString.from_index(idx, n)
        codes = pauli_codes(idx, n)
        assert codes == [((p.xbits >> q) & 1) << 1 | ((p.zbits >> q) & 1) for q in range(n)]
        for q, c in enumerate(codes):
            assert tabs[tables.pauli_index[c]].key() == gate_tableau(p.letter(q)).key()


def _reference_c_letters(d_index, n, twoq):
    tab = CliffordTableau.identity(n)
    for label, qubits in twoq:
        tab = tab.then(gate_tableau(label).embed(n, qubits))
    return tab.conjugate(PauliString.from_index(d_index, n)).label


def _letter(label):
    (name,) = [nm for nm in "IXYZ" if clifford_1q_tables().gate_index[nm] == int(label[3:])]
    return name


@pytest.mark.parametrize("gate", ["CNOT", "CZ", "ISWAP", "SWAP"])
def test_randomized_compile_letters_match_tableau_conjugation(gate):
    n = 6
    ident = tuple((rb.clifford_label(1, clifford_1q_tables().identity), (q,)) for q in range(n))
    gen = rng(401)
    for trial in range(60):
        pairs = list(gen.permutation(n))
        twoq = tuple((gate, (int(pairs[i]), int(pairs[i + 1]))) for i in range(0, int(gen.integers(1, 4)) * 2, 2))
        seed = 500 + trial
        d_index = int(rng(seed).integers(4**n))
        oneq, out_twoq = cl.randomized_compile([ident, ident], [twoq], n, rng(seed))
        assert out_twoq == [twoq]
        d_letters = "".join(_letter(lbl) for lbl, _ in oneq[0])
        c_letters = "".join(_letter(lbl) for lbl, _ in oneq[1])
        assert d_letters == PauliString.from_index(d_index, n).label
        assert c_letters == _reference_c_letters(d_index, n, twoq)


# -- 1q layer algebra against per-qubit unitary products --------------------------

_LETTER_OF_CODE = "IZXY"  # letter codes x << 1 | z, see pauli_codes


def _gate_unitary(label):
    u = cl.clifford_gate_factory(label)
    return GATE_UNITARIES[label] if u is None else u


def _qubit_unitaries(layer, n):
    us = [np.eye(2, dtype=complex)] * n
    for label, (q,) in layer:
        us[q] = _gate_unitary(label)
    return us


def _same_up_to_phase(a, b):
    return abs(abs(np.trace(a.conj().T @ b)) - 2) < 1e-9


def _assert_full_width(layer, n):
    assert [qs for _, qs in layer] == [(q,) for q in range(n)]
    assert all(label.startswith("c1_") for label, _ in layer)


@st.composite
def _partial_1q_layers(draw, n):
    """A 1q layer on a subset of n qubits, in any order, mixing builtin names
    and ``c1_<i>`` labels."""
    layer = []
    for q in range(n):
        kind = draw(st.sampled_from(("none", "name", "c1")))
        if kind == "name":
            layer.append((draw(st.sampled_from(ONEQ_NAMES)), (q,)))
        elif kind == "c1":
            layer.append((rb.clifford_label(1, draw(st.integers(0, 23))), (q,)))
    return tuple(draw(st.permutations(layer)))


@st.composite
def _layer_algebra_cases(draw):
    n = draw(st.integers(1, 6))
    codes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return n, draw(_partial_1q_layers(n)), draw(_partial_1q_layers(n)), codes


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_layer_algebra_cases())
def test_1q_layer_algebra_matches_unitary_products(case):
    n, a, b, codes = case
    ua, ub = _qubit_unitaries(a, n), _qubit_unitaries(b, n)

    ab = cl.compose_1q_layers(a, b, n)
    _assert_full_width(ab, n)
    for q, u in enumerate(_qubit_unitaries(ab, n)):
        assert _same_up_to_phase(u, ub[q] @ ua[q])

    paulis = [GATE_UNITARIES[_LETTER_OF_CODE[c]] for c in codes]
    for before in (True, False):
        dressed = cl.compose_1q_with_pauli(a, codes, n, before)
        _assert_full_width(dressed, n)
        for q, u in enumerate(_qubit_unitaries(dressed, n)):
            assert _same_up_to_phase(u, ua[q] @ paulis[q] if before else paulis[q] @ ua[q])

    inv = cl.inverse_layer(a)
    assert [qs for _, qs in inv] == [qs for _, qs in a]
    for layers in ((a, inv), (inv, a)):
        for u in _qubit_unitaries(cl.compose_1q_layers(*layers, n), n):
            assert _same_up_to_phase(u, np.eye(2))


def test_unknown_labels_still_raise():
    n = 2
    ident = tuple((rb.clifford_label(1, 0), (q,)) for q in range(n))
    with pytest.raises(KeyError):
        cl.compose_1q_layers(ident, (("FOO", (0,)),), n)
    with pytest.raises(KeyError):
        cl.randomized_compile([ident, ident], [(("FOO2Q", (0, 1)),)], n, rng(1))
    with pytest.raises(KeyError):
        fd._trap_oneq_layers(n, [["I", "FOO"]])


def test_propagate_pauli_matches_tableau_run():
    n = 6
    names2 = ["CNOT", "CZ", "ISWAP", "ISWAPM", "SWAP"]
    gen = rng(402)
    model = dv.ideal_model(n)
    for _ in range(40):
        layers = []
        for _ in range(6):
            perm = [int(q) for q in gen.permutation(n)]
            layer = []
            while perm:
                if len(perm) >= 2 and gen.random() < 0.5:
                    layer.append((names2[int(gen.integers(len(names2)))], (perm.pop(), perm.pop())))
                else:
                    layer.append((ONEQ_NAMES[int(gen.integers(len(ONEQ_NAMES)))], (perm.pop(),)))
            layers.append(tuple(layer))
        p = PauliString.from_index(int(gen.integers(4**n)), n)
        p = PauliString(n, p.xbits, p.zbits, p.phase + int(gen.integers(4)))
        assert dv.propagate_pauli(model, Circuit(n, tuple(layers)), p) == tableau_run(layers, p)


def _three_qubit_clifford():
    """H on qubit 0, then CNOT(0, 1), then CZ(1, 2), as one 8x8 unitary;
    qubit 0 is the most significant factor, as in a gate's support order."""
    eye = np.eye(2, dtype=complex)
    steps = [
        kron_all([GATE_UNITARIES["H"], eye, eye]),
        kron_all([GATE_UNITARIES["CNOT"], eye]),
        kron_all([eye, GATE_UNITARIES["CZ"]]),
    ]
    return steps[2] @ steps[1] @ steps[0]


def test_propagate_pauli_through_a_three_qubit_gate_def_matches_its_decomposition():
    n = 6
    defs = {"HCC": _three_qubit_clifford()}
    gen = rng(403)
    model = dv.ideal_model(n)
    for _ in range(40):
        layers, reference = [], []
        for _ in range(5):
            perm = [int(q) for q in gen.permutation(n)]
            a, b, c = perm[:3]
            rest = [(ONEQ_NAMES[int(gen.integers(len(ONEQ_NAMES)))], (q,)) for q in perm[3:]]
            layers.append((("HCC", (a, b, c)), *rest))
            reference += [(("H", (a,)), *rest), (("CNOT", (a, b)),), (("CZ", (b, c)),)]
        p = PauliString.from_index(int(gen.integers(4**n)), n)
        p = PauliString(n, p.xbits, p.zbits, p.phase + int(gen.integers(4)))
        assert dv.propagate_pauli(model, Circuit(n, tuple(layers), defs), p) == tableau_run(reference, p)


def _embedded(u, support, n):
    """The 2**n x 2**n operator of ``u`` on ``support``: entry [r, c] is
    ``u[support bits of r, support bits of c]`` when r and c agree off the
    support, else 0.  Qubit 0 is the most significant bit, and support qubit
    0 the most significant bit of ``u``'s index."""
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    local = sum(bits[:, q] << (len(support) - 1 - i) for i, q in enumerate(support))
    rest = np.delete(bits, list(support), axis=1) @ (1 << np.arange(n - len(support)))
    return np.where(rest[:, None] == rest[None, :], u[local[:, None], local[None, :]], 0)


def _random_clifford_unitary(k, gen):
    """A product of 2k random builtin gates on k qubits, times a random phase."""
    names = {1: ONEQ_NAMES, 2: TWOQ_NAMES}
    u = np.eye(2**k, dtype=complex)
    for _ in range(2 * k):
        arity = 1 if k == 1 else int(gen.integers(1, 3))
        support = tuple(int(q) for q in gen.permutation(k)[:arity])
        u = _embedded(GATE_UNITARIES[names[arity][int(gen.integers(len(names[arity])))]], support, k) @ u
    return np.exp(2j * np.pi * gen.random()) * u


@settings(derandomize=True, max_examples=60, deadline=None)
@given(width=st.integers(1, 4), depth=st.integers(0, 5), seed=st.integers(0, 2**31))
def test_propagate_pauli_matches_unitary_conjugation(width, depth, seed):
    """``propagate_pauli`` of a random Pauli, phase included, equals U P U^dag
    for random circuits of 1-, 2- and 3-qubit gates: builtin names, ``c1_<i>``
    and ``c2_<i>`` labels, and inline ``gate_defs`` Cliffords of every arity."""
    gen = rng(seed)
    labels = {1: ONEQ_NAMES + ["c1_5", "c1_17"], 2: TWOQ_NAMES + ["c2_9", "c2_7777"], 3: []}
    defs = {}
    for k in (1, 2, 3):
        for i in range(2):
            defs[f"def{k}_{i}"] = _random_clifford_unitary(k, gen)
            labels[k].append(f"def{k}_{i}")
    model = dv.ideal_model(width)
    layers = []
    u = np.eye(2**width, dtype=complex)
    for _ in range(depth):
        order = [int(q) for q in gen.permutation(width)]
        layer = []
        while order:
            k = int(gen.integers(1, min(3, len(order)) + 1))
            support = tuple(order.pop() for _ in range(k))
            label = labels[k][int(gen.integers(len(labels[k])))]
            layer.append((label, support))
            u = _embedded(model.ideal_unitary(label, defs), support, width) @ u
        layers.append(tuple(layer))
    p = PauliString.from_index(int(gen.integers(4**width)), width)
    p = PauliString(width, p.xbits, p.zbits, p.phase + int(gen.integers(4)))
    image = dv.propagate_pauli(model, Circuit(width, tuple(layers), defs), p)
    assert np.allclose(image.to_matrix(), u @ p.to_matrix() @ u.conj().T, atol=1e-9)


# -- identification from unitaries against tableau composition ------------------

_SWAP = GATE_UNITARIES["SWAP"]


def _step_unitary(n, name, qubits):
    u = GATE_UNITARIES[name]
    if len(qubits) == 1:
        full = [np.eye(2, dtype=complex)] * n
        full[qubits[0]] = u
        return kron_all(full)
    return u if qubits == (0, 1) else _SWAP @ u @ _SWAP


@st.composite
def _clifford_products(draw):
    n = draw(st.sampled_from((1, 2)))
    group = cl.enumerate_clifford_group(n)
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        if n == 2 and draw(st.booleans()):
            steps.append((draw(st.sampled_from(TWOQ_NAMES)), draw(st.sampled_from(((0, 1), (1, 0))))))
        elif draw(st.booleans()):
            steps.append((draw(st.sampled_from(ONEQ_NAMES)), (draw(st.integers(0, n - 1)),)))
        else:
            steps.append((draw(st.integers(0, len(group) - 1)), None))
    return n, steps


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_clifford_products())
def test_unitary_keys_match_tableau_composition(case):
    n, steps = case
    group = cl.enumerate_clifford_group(n)
    u = np.eye(2**n, dtype=complex)
    tab = CliffordTableau.identity(n)
    for what, qubits in steps:
        if qubits is None:
            u = group[what].unitary @ u
            tab = tab.then(group[what].tableau)
        else:
            u = _step_unitary(n, what, qubits) @ u
            tab = tab.then(gate_tableau(what).embed(n, qubits))
    assert cl._tableau_keys(u[None]) == [tab.key()]
    (k,) = cl.clifford_index(n, [u * np.exp(0.7j)])
    assert group[k].tableau.key() == tab.key()


@st.composite
def _embedded_products(draw):
    """A width n <= 3 and two products of 1-5 random steps each, every step a
    builtin gate or an enumerated 1q/2q element on a random support, as
    (tableau, unitary) pairs built by ``embed`` and ``then``."""
    n = draw(st.integers(1, 3))
    products = []
    for _ in range(2):
        tab, u = CliffordTableau.identity(n), np.eye(2**n, dtype=complex)
        for _ in range(draw(st.integers(1, 5))):
            k = draw(st.integers(1, min(n, 2)))
            support = tuple(draw(st.permutations(range(n)))[:k])
            if draw(st.booleans()):
                name = draw(st.sampled_from(ONEQ_NAMES if k == 1 else TWOQ_NAMES))
                step, v = gate_tableau(name), GATE_UNITARIES[name]
            else:
                group = cl.enumerate_clifford_group(k)
                element = group[draw(st.integers(0, len(group) - 1))]
                step, v = element.tableau, element.unitary
            tab, u = tab.then(step.embed(n, support)), _embedded(v, support, n) @ u
        products.append((tab, u))
    pauli = PauliString.from_index(draw(st.integers(0, 4**n - 1)), n)
    return products, PauliString(n, pauli.xbits, pauli.zbits, pauli.phase + draw(st.integers(0, 3)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_embedded_products())
def test_tableau_algebra_matches_unitary_conjugation(case):
    """``conjugate``, ``then`` and ``inverse`` of products of embedded
    tableaux against the unitaries they stand for, exact phases included."""
    ((tab1, u1), (tab2, u2)), p = case
    assert np.allclose(tab1.conjugate(p).to_matrix(), u1 @ p.to_matrix() @ u1.conj().T, atol=1e-9)
    assert tab1.then(tab2).key() == cl._tableau_keys((u2 @ u1)[None])[0]
    assert tab1.inverse().key() == cl._tableau_keys(u1.conj().T[None])[0]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    st.sampled_from(((0,), (0, 1))),
    st.lists(st.integers(0, 6), min_size=3, max_size=4, unique=True),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
def test_crb_sequences_compose_to_their_pauli(qubits, depths, interleaved, seed):
    n = len(qubits)
    interleave = ("S" if n == 1 else "CNOT") if interleaved else None
    group = cl.enumerate_clifford_group(n)
    design = rb.RBDesign(qubits, tuple(depths), 2, 10, seed=seed)
    for _, circ, bits in rb.crb_circuits(design, interleave=interleave):
        tab = CliffordTableau.identity(n)
        for ((label, _),) in circ.layers:
            step = group[int(label.split("_")[1])].tableau if label.startswith("c") else gate_tableau(label)
            tab = tab.then(step)
        # conjugation by a Pauli: letters kept, Z_q flips sign where its x bit is set
        for q in range(n):
            assert (tab.x_images[q].xbits, tab.x_images[q].zbits) == (1 << q, 0)
            assert tab.x_images[q].phase in (0, 2)
            assert tab.z_images[q] == PauliString(n, 0, 1 << q, 2 if bits[q] == "1" else 0)


def _einsum_tableau_keys(us):
    """The reference for ``cl._tableau_keys``: each generator image matched
    to the Pauli of largest overlap ``Tr[P img] / d`` among all 4**n."""
    d = us.shape[-1]
    n = d.bit_length() - 1
    paulis = pauli_matrices(n)
    gens = paulis[[4 ** (n - 1 - q) for q in range(n)] + [3 * 4 ** (n - 1 - q) for q in range(n)]]
    images = us[:, None] @ gens @ us[:, None].conj().swapaxes(-1, -2)
    overlaps = np.einsum("pij,kgji->kgp", paulis, images) / d
    best = np.argmax(np.abs(overlaps), axis=-1)
    coeff = np.take_along_axis(overlaps, best[..., None], axis=-1)[..., 0]
    assert np.all(np.abs(np.abs(coeff) - 1) <= 1e-8)
    rows = np.array([(p.xbits, p.zbits, p.phase) for p in all_paulis(n)], dtype=np.int64)[best]
    rows[..., 2] = (rows[..., 2] + np.rint(np.angle(coeff) / (np.pi / 2)).astype(np.int64)) % 4
    return [tuple(map(tuple, r)) for r in rows.tolist()]


@pytest.mark.parametrize("n", [1, 2])
def test_tableau_keys_read_off_entries_match_the_overlap_search(n):
    """Every element of the 1q (24) and 2q (11,520) groups, under a global
    phase too, gets the key of the all-Pauli overlap search."""
    us = cl.group_unitaries(n)
    assert len(us) == (24 if n == 1 else 11520)
    assert cl._tableau_keys(us) == _einsum_tableau_keys(us)
    assert cl._tableau_keys(us[:50] * np.exp(0.7j)) == _einsum_tableau_keys(us[:50])


def test_tableau_keys_reject_non_cliffords():
    t_gate = np.diag([1, np.exp(1j * np.pi / 4)])
    for u in (t_gate, np.kron(t_gate, np.eye(2)), 2 * np.eye(2), np.array([[0, 1], [0, 0]])):
        with pytest.raises(ValueError, match="does not conjugate Paulis"):
            cl._tableau_keys(np.asarray(u, dtype=complex)[None])
