import numpy as np
import pytest

from qcvv.cliffords import (
    GATE_UNITARIES,
    CliffordTableau,
    average_gate_counts,
    clifford_index,
    enumerate_clifford_group,
    gate_tableau,
    group_unitaries,
    random_clifford,
    tableau_from_unitary,
    verify_2design,
)
from qcvv.linalg import rng
from qcvv.paulis import PauliString, all_paulis

from clifford_reference import tableau_run


def test_pauli_product_xz():
    prod = PauliString.from_label("X").multiply(PauliString.from_label("Z"))
    assert prod.label == "Y" and prod.sign == pytest.approx(-1j)


def test_pauli_products_match_matrices():
    gen = rng(2)
    ps = all_paulis(2)
    for _ in range(50):
        p, q = ps[gen.integers(16)], ps[gen.integers(16)]
        assert np.abs((p * q).to_matrix() - p.to_matrix() @ q.to_matrix()).max() < 1e-12


def test_pauli_multiply_associative():
    ps = all_paulis(1)
    for a in ps:
        for b in ps:
            for c in ps:
                left = (a * b) * c
                right = a * (b * c)
                assert left.label == right.label and left.phase == right.phase


def test_commutation():
    assert PauliString.from_label("XI").commutes(PauliString.from_label("XX"))
    assert not PauliString.from_label("XI").commutes(PauliString.from_label("ZI"))
    assert PauliString.from_label("XZ").commutes(PauliString.from_label("ZX"))


def test_commutation_matches_matrix_oracle():
    for p in all_paulis(2):
        for q in all_paulis(2):
            mp, mq = p.to_matrix(), q.to_matrix()
            commutes = np.abs(mp @ mq - mq @ mp).max() < 1e-12
            assert p.commutes(q) == commutes


def test_size_mismatch():
    with pytest.raises(ValueError):
        PauliString.from_label("X").multiply(PauliString.from_label("XX"))


def test_weight_and_pattern():
    p = PauliString.from_label("XIZYI")
    assert p.weight == 3
    assert p.pattern == 0b01101  # bit q set where letter q is not I


def test_conjugation_tables():
    # H, S, CNOT, iSWAP conjugation entries
    h = gate_tableau("H")
    assert repr(h.conjugate(PauliString.from_label("X"))) == "+Z"
    assert repr(h.conjugate(PauliString.from_label("Y"))) == "-Y"
    s = gate_tableau("S")
    assert repr(s.conjugate(PauliString.from_label("X"))) == "+Y"
    assert repr(s.conjugate(PauliString.from_label("Y"))) == "-X"
    cnot = gate_tableau("CNOT")
    assert repr(cnot.conjugate(PauliString.from_label("XI"))) == "+XX"
    assert repr(cnot.conjugate(PauliString.from_label("IY"))) == "+ZY"
    assert repr(cnot.conjugate(PauliString.from_label("XZ"))) == "-YY"
    assert repr(cnot.conjugate(PauliString.from_label("YY"))) == "-XZ"
    iswap = gate_tableau("ISWAP")
    assert repr(iswap.conjugate(PauliString.from_label("XI"))) == "+ZY"
    assert repr(iswap.conjugate(PauliString.from_label("YI"))) == "-ZX"
    assert repr(iswap.conjugate(PauliString.from_label("IZ"))) == "+ZI"


def test_conjugation_exhaustive_against_dense():
    for name in ("H", "S", "X90", "Y90", "CNOT", "CZ", "SWAP", "ISWAP"):
        u = GATE_UNITARIES[name]
        n = u.shape[0].bit_length() - 1
        tab = gate_tableau(name)
        for p in all_paulis(n):
            img = tab.conjugate(p)
            dense = u @ p.to_matrix() @ u.conj().T
            assert np.abs(img.to_matrix() - dense).max() < 1e-10


def test_identity_preserved():
    for name in ("H", "CNOT", "ISWAP"):
        tab = gate_tableau(name)
        n = tab.n
        img = tab.conjugate(PauliString.identity(n))
        assert img.label == "I" * n and img.sign == 1


def test_tableau_inverse():
    gen = rng(9)
    for n in (1, 2):
        for _ in range(10):
            e = random_clifford(n, gen)
            inv = e.tableau.inverse()
            composed = e.tableau.then(inv)
            assert composed.key() == CliffordTableau.identity(n).key()


def test_tableau_run_empty_and_single():
    p = PauliString.from_label("XI")
    assert tableau_run([], p).label == "XI"
    out = tableau_run([[("CNOT", (0, 1))]], p)
    assert repr(out) == "+XX"


def test_tableau_run_rejects_unknown_gate():
    with pytest.raises(ValueError):
        tableau_run([[("T", (0,))]], PauliString.from_label("X"))


def test_tableau_run_matches_dense_window_oracle():
    # 50-qubit, depth-100 random Clifford circuit; validate a 3-qubit
    # subinstance against dense conjugation
    gen = rng(21)
    names_1q = ("H", "S", "X90", "Y90")
    n = 50
    layers = []
    for _ in range(100):
        layer = []
        for q in range(0, n - 1, 2):
            if gen.random() < 0.2:
                layer.append(("CNOT", (q, q + 1)))
            else:
                layer.append((names_1q[gen.integers(4)], (q,)))
        layers.append(layer)
    p = PauliString.from_label("X" + "I" * (n - 1))
    out = tableau_run(layers, p)
    assert out.n == n
    # dense oracle on qubits (0,1,2): restrict the same circuit
    sub_layers = [
        [(g, qs) for g, qs in layer if max(qs) <= 2] for layer in layers
    ]
    out_sub = tableau_run(sub_layers, PauliString.from_label("XII"))
    u = np.eye(8, dtype=complex)
    for layer in sub_layers:
        for g, qs in layer:
            mats = [np.eye(2, dtype=complex)] * 3
            gu = GATE_UNITARIES[g]
            if len(qs) == 2:
                full = np.eye(1)
                order = list(qs) + [q for q in range(3) if q not in qs]
                # build embedding via tensor index permutation
                big = np.kron(gu, np.eye(2)).reshape([2] * 6)
                perm = [order.index(q) for q in range(3)]
                big = np.transpose(big, perm + [3 + p_ for p_ in perm]).reshape(8, 8)
                u = big @ u
            else:
                mats[qs[0]] = gu
                emb = mats[0]
                for m_ in mats[1:]:
                    emb = np.kron(emb, m_)
                u = emb @ u
    dense = u @ PauliString.from_label("XII").to_matrix() @ u.conj().T
    assert np.abs(out_sub.to_matrix() - dense).max() < 1e-10


def test_group_sizes_and_identity():
    g1 = enumerate_clifford_group(1)
    assert len(g1) == 24
    g2 = enumerate_clifford_group(2)
    assert len(g2) == 11520
    assert len({e.tableau.key() for e in g2}) == 11520
    ident_count = sum(
        1 for e in g1 if e.tableau.key() == CliffordTableau.identity(1).key()
    )
    assert ident_count == 1
    with pytest.raises(ValueError):
        enumerate_clifford_group(3)


def test_group_closed_under_composition_spot_check():
    gen = rng(31)
    g2 = enumerate_clifford_group(2)
    keys = {e.tableau.key() for e in g2}
    for _ in range(20):
        a = g2[gen.integers(len(g2))]
        b = g2[gen.integers(len(g2))]
        assert a.tableau.then(b.tableau).key() in keys


def test_group_words_realize_tableaux():
    gen = rng(33)
    for n in (1, 2):
        for _ in range(5):
            e = random_clifford(n, gen)
            assert tableau_from_unitary(e.unitary).key() == e.tableau.key()


def test_element_keys_match_their_tableaux_and_unitaries():
    g2 = enumerate_clifford_group(2)
    sample = rng(35).choice(len(g2), size=200, replace=False)
    for e in [*enumerate_clifford_group(1), *(g2[i] for i in sample.tolist())]:
        assert e.key == e.tableau.key() == tableau_from_unitary(e.unitary).key()
    assert clifford_index(2, group_unitaries(2)) == list(range(11520))


def test_average_gate_counts_reported():
    counts = average_gate_counts(1)
    assert counts["oneq_per_clifford"] > 0
    counts2 = average_gate_counts(2)
    assert counts2["twoq_per_clifford"] > 0


def test_2design_statistic():
    g1 = enumerate_clifford_group(1)
    stat = verify_2design([e.unitary for e in g1])
    assert stat == pytest.approx(2.0, abs=1e-9)
    paulis = [p.to_matrix() for p in all_paulis(1)]
    assert verify_2design(paulis) > 2.0
    assert verify_2design([np.eye(2)]) == pytest.approx(16.0)
    with pytest.raises(ValueError):
        verify_2design([])


def test_2design_statistic_2q_sampled():
    # sampled-subgroup version: the K-sample statistic includes a d**4 / K
    # diagonal term, so its expectation is d**4/K + (1 - 1/K) E_offdiag with
    # E_offdiag fixed by the full-group value 2
    gen = rng(41)
    g2 = enumerate_clifford_group(2)
    n_full, d4, m = len(g2), 256.0, 400
    e_offdiag = (2.0 - d4 / n_full) / (1 - 1 / n_full)
    expected = d4 / m + (1 - 1 / m) * e_offdiag
    sample = [g2[i].unitary for i in gen.integers(len(g2), size=m)]
    stat = verify_2design(sample)
    assert stat == pytest.approx(expected, abs=0.25)


def test_2design_statistic_2q_full_group():
    # chunked exact evaluation over all 11520 elements
    g2 = enumerate_clifford_group(2)
    mats = np.array([e.unitary for e in g2]).reshape(len(g2), 16)
    total = 0.0
    block = 512
    for i in range(0, len(g2), block):
        gram = mats[i : i + block].conj() @ mats.T
        total += float(np.sum(np.abs(gram) ** 4))
    stat = total / len(g2) ** 2
    assert stat == pytest.approx(2.0, abs=1e-6)


def test_pattern_preservation_cnot_matches_learnability():
    # pattern(C P C+) == pattern(P) for exactly the self-loop Paulis
    from qcvv.cycles import learnability

    cnot = gate_tableau("CNOT")
    rep = learnability(cnot)
    for p in all_paulis(2):
        preserved = cnot.conjugate(p).pattern == p.pattern
        assert rep.learnable[p.label] == preserved


def test_tableau_inverse_rejects_non_symplectic_and_singular_matrices():
    # X_0 -> X_0, X_1 -> X_1, Z_0 -> Z_0, Z_1 -> X_0 Z_1: invertible over GF(2),
    # but the images of Z_0 and Z_1 anticommute, so no Clifford has this tableau
    bits = np.eye(4, dtype=np.uint8)
    bits[3, 0] = 1
    with pytest.raises(ValueError, match="not symplectic"):
        CliffordTableau(bits, np.zeros(4)).inverse()
    singular = np.eye(4, dtype=np.uint8)
    singular[3] = singular[2]
    with pytest.raises(ValueError, match="not symplectic"):
        CliffordTableau(singular, np.zeros(4)).inverse()
