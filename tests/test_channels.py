import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvv import channels as ch
from qcvv.channels import Channel
from qcvv.linalg import haar_random_state, pauli_matrices, projector, rng

I2, X, Y, Z = pauli_matrices(1)


def random_density(gen, d=2):
    rho = sum(w * projector(haar_random_state(d, gen)) for w in (0.5, 0.3, 0.2))
    return rho


def test_identity_kraus_transfer():
    c = Channel.from_kraus([np.eye(2)])
    assert np.abs(c.to_transfer() - np.eye(4)).max() < 1e-12
    assert np.abs(c.to_ptm() - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_kraus_to_transfer_equals_sum_of_krons(d):
    gen = rng(d)
    for r in (1, 2, 3):
        ks = [gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)) for _ in range(r)]
        ref = np.zeros((d * d, d * d), dtype=complex)
        for k in ks:
            ref += np.kron(k.conj(), k)
        assert np.array_equal(ch.kraus_to_transfer(ks), ref)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(d=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1))
def test_kraus_transfer_ptm_choi_chi_kraus_round_trip(d, seed):
    kraus = ch.random_cptp(d, seed).to_kraus()  # the Stinespring Kraus set
    transfer = ch.kraus_to_transfer(kraus)
    ptm = ch.transfer_to_ptm(transfer)
    choi = ch.transfer_to_choi(ch.ptm_to_transfer(ptm))
    chi = ch.choi_to_chi(choi)
    assert np.abs(chi - ch.choi_chi_overlap(choi)).max() < 1e-12
    back = ch.choi_to_kraus(ch.chi_to_choi(chi))
    assert np.abs(ch.kraus_to_transfer(back) - transfer).max() < 1e-10
    assert np.abs(sum(k.conj().T @ k for k in back) - np.eye(d)).max() < 1e-10
    overlaps = np.array([[np.vdot(a, b) for b in back] for a in back])
    assert np.abs(overlaps - np.diag(np.diag(overlaps))).max() < 1e-10


@pytest.mark.parametrize("imag, real", [(1e-12, True), (-1e-12, True), (2e-12, False), (np.nan, False)])
def test_transfer_to_ptm_drops_imaginary_part_up_to_1e12(monkeypatch, imag, real):
    # With the Pauli basis swapped for the identity the PTM is the transfer
    # matrix itself, so its imaginary part is exactly the one put in.
    monkeypatch.setattr(ch, "pauli_vec_basis", lambda d: np.eye(d * d))
    transfer = np.eye(4, dtype=complex)
    transfer[1, 2] += 1j * imag
    ptm = ch.transfer_to_ptm(transfer)
    assert np.iscomplexobj(ptm) is not real
    assert real == np.allclose(transfer.imag, 0, atol=1e-12)
    if real:
        assert np.array_equal(ptm, np.eye(4))


def test_dephasing_matches_paper_forms():
    p = 0.1
    c = ch.dephasing(p)
    assert np.allclose(c.to_transfer().real, np.diag([1, 1 - p, 1 - p, 1]), atol=1e-12)
    assert np.allclose(c.ptm, np.diag([1, 1 - p, 1 - p, 1]), atol=1e-12)
    chi = c.to_chi()
    assert np.allclose(np.diag(chi).real, [1 - p / 2, 0, 0, p / 2], atol=1e-12)
    choi = c.to_choi()
    expected_choi = np.array(
        [[1, 0, 0, 1 - p], [0, 0, 0, 0], [0, 0, 0, 0], [1 - p, 0, 0, 1]], dtype=complex
    )
    assert np.abs(choi - expected_choi).max() < 1e-12


def test_amplitude_damping_ptm():
    p = 0.2
    c = ch.amplitude_damping(p)
    s = np.sqrt(1 - p)
    expected = np.array(
        [[1, 0, 0, 0], [0, s, 0, 0], [0, 0, s, 0], [p, 0, 0, 1 - p]]
    )
    assert np.abs(c.ptm - expected).max() < 1e-12
    chi = c.to_chi()
    expected_chi = np.array(
        [
            [(1 + s) ** 2, 0, 0, p],
            [0, p, -1j * p, 0],
            [0, 1j * p, p, 0],
            [p, 0, 0, (1 - s) ** 2],
        ]
    ) / 4
    assert np.abs(chi - expected_chi).max() < 1e-12


def test_depolarizing_and_stochastic_pauli_ptm():
    p = 0.12
    assert np.allclose(ch.depolarizing(p).ptm, np.diag([1, 1 - p, 1 - p, 1 - p]))
    px, py, pz = 0.01, 0.02, 0.03
    diag = np.diag(ch.stochastic_pauli((px, py, pz)).ptm)
    assert np.allclose(
        diag, [1, 1 - 2 * (py + pz), 1 - 2 * (px + pz), 1 - 2 * (px + py)], atol=1e-12
    )
    chi = ch.stochastic_pauli((px, py, pz)).to_chi()
    assert np.allclose(np.diag(chi).real, [1 - px - py - pz, px, py, pz], atol=1e-12)


def test_coherent_z_representations():
    theta = 0.37
    c = ch.coherent("z", theta)
    ct, st = np.cos(theta), np.sin(theta)
    assert np.allclose(
        c.ptm, [[1, 0, 0, 0], [0, ct, -st, 0], [0, st, ct, 0], [0, 0, 0, 1]], atol=1e-12
    )
    chi = c.to_chi()
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = (1 + ct) / 2
    expected[3, 3] = (1 - ct) / 2
    expected[0, 3] = 1j * st / 2
    expected[3, 0] = -1j * st / 2
    assert np.abs(chi - expected).max() < 1e-12
    assert np.abs(ch.coherent("z", 0.0).ptm - np.eye(4)).max() < 1e-12


def test_identity_chi_is_delta():
    chi = ch.identity_channel().to_chi()
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    assert np.abs(chi - expected).max() < 1e-12


def test_kraus_completeness_flagging():
    c = Channel.from_kraus([np.sqrt(0.9) * np.eye(2)])
    assert not c.is_tp()
    assert ch.dephasing(0.1).is_cptp()


def test_action_identical_across_representations():
    gen = rng(5)
    c = ch.random_cptp(2, seed=9)
    rebuilt = [
        Channel.from_kraus(c.to_kraus()),
        Channel.from_chi(c.to_chi()),
        Channel.from_choi(c.to_choi()),
        Channel.from_transfer(c.to_transfer()),
    ]
    for _ in range(5):
        rho = random_density(gen)
        base = c.apply(rho)
        for r in rebuilt:
            assert np.abs(r.apply(rho) - base).max() < 1e-10


def test_choi_chi_duality_elementwise():
    # chi[i, j] = (1/d) <phi_i|C|phi_j> with |phi_P> = (I kron P)|Phi0>/sqrt(d)
    for c in (ch.coherent("z", 0.3), ch.amplitude_damping(0.25), ch.random_cptp(2, seed=3)):
        overlap = ch.choi_chi_overlap(c.to_choi())
        assert np.abs(overlap - c.to_chi()).max() < 1e-10


def test_choi_normalization_trace_d():
    for c in (ch.dephasing(0.3), ch.random_cptp(4, seed=8)):
        assert np.trace(c.to_choi()).real == pytest.approx(c.dim, abs=1e-9)


def test_kraus_recovery_orthogonal_and_ordered():
    c = ch.amplitude_damping(0.3)
    ks = c.to_kraus()
    norms = [np.trace(k.conj().T @ k).real for k in ks]
    assert norms == sorted(norms, reverse=True)
    for i, a in enumerate(ks):
        for b in ks[i + 1 :]:
            assert abs(np.trace(a.conj().T @ b)) < 1e-9
        nz = np.flatnonzero(np.abs(a) > 1e-12)
        first = a.reshape(-1, order="F")[np.flatnonzero(np.abs(a.reshape(-1, order="F")) > 1e-12)[0]]
        assert abs(np.angle(first)) < 1e-9


def test_kraus_extraction_on_non_cp_raises():
    ptm = np.diag([1.0, 1.1, 1.0, 1.0])  # not CP
    c = Channel(ptm)
    with pytest.raises(ValueError):
        c.to_kraus()


def test_tp_unital_predicates():
    assert ch.amplitude_damping(0.1).is_tp()
    assert not ch.amplitude_damping(0.1).is_unital()
    assert ch.dephasing(0.1).is_unital()


def test_entanglement_fidelity_is_chi00():
    for c in (ch.dephasing(0.08), ch.random_cptp(2, seed=12)):
        fe = np.trace(c.ptm) / 4
        assert fe == pytest.approx(c.to_chi()[0, 0].real, abs=1e-10)


def test_error_generator_dephasing():
    p = 0.1
    coeffs = ch.error_generator(ch.dephasing(p))
    assert coeffs.rate("S", 3) == pytest.approx(-0.5 * np.log(1 - p), abs=1e-10)
    others = [v for k, v in coeffs.items() if k != ("S", 3)]
    assert np.abs(others).max() < 1e-9


def test_error_generator_identity_and_roundtrip():
    coeffs = ch.error_generator(ch.identity_channel())
    assert np.abs(list(coeffs.values())).max() < 1e-10
    for c in (ch.dephasing(0.15), ch.amplitude_damping(0.1), ch.coherent("x", 0.1)):
        back = ch.from_generator(ch.error_generator(c))
        assert np.abs(back.ptm - c.ptm).max() < 1e-8


def test_error_generator_two_qubit_round_trip():
    from qcvv.linalg import matrix_exp

    zz = np.kron(Z, Z)
    c = ch.depolarizing(0.03, n=2).compose(Channel.from_unitary(matrix_exp(-0.05j * zz)))
    back = ch.from_generator(ch.error_generator(c), n=2)
    assert np.abs(back.ptm - c.ptm).max() < 1e-12


def test_error_generator_coherent_small_angle():
    theta = 0.02
    coeffs = ch.error_generator(ch.coherent("z", theta))
    assert coeffs.rate("H", 3) == pytest.approx(theta / 2, rel=1e-6)
    stoch = [coeffs.rate("S", i) for i in (1, 2, 3)]
    assert np.abs(stoch).max() < theta**2


def test_error_generator_rejects_far_from_identity():
    with pytest.raises(ValueError):
        ch.error_generator(Channel.from_unitary(X))


def test_exp_log_identity_on_canonical_channels():
    for c in (
        ch.dephasing(0.2),
        ch.depolarizing(0.2),
        ch.amplitude_damping(0.2),
        ch.coherent("y", 0.2),
        ch.stochastic_pauli((0.05, 0.1, 0.05)),
    ):
        from qcvv.linalg import matrix_exp, matrix_log_principal

        assert np.abs(matrix_exp(matrix_log_principal(c.ptm)) - c.ptm).max() < 1e-9


def test_pauli_twirl_exact_oracle():
    # oracle: explicit average of the four Pauli conjugations
    theta = 0.4
    c = ch.coherent("x", theta)
    frames = [Channel.from_unitary(p.to_matrix()) for p in __import__("qcvv.paulis", fromlist=["all_paulis"]).all_paulis(1)]
    oracle = sum(f.ptm.T @ c.ptm @ f.ptm for f in frames) / 4
    twirled = ch.twirl_exact(c, "pauli")
    assert np.abs(twirled.ptm - oracle).max() < 1e-12
    assert np.allclose(np.diag(twirled.ptm), [1, 1, np.cos(theta), np.cos(theta)], atol=1e-12)
    assert np.abs(twirled.ptm - np.diag(np.diag(twirled.ptm))).max() == 0.0


def test_clifford_twirl_exact_oracle():
    # oracle: explicit average over the enumerated 24-element group
    from qcvv.cliffords import enumerate_clifford_group

    c = ch.random_cptp(2, seed=77)
    frames = [Channel.from_unitary(e.unitary) for e in enumerate_clifford_group(1)]
    oracle = sum(f.ptm.T @ c.ptm @ f.ptm for f in frames) / len(frames)
    twirled = ch.twirl_exact(c, "clifford-1q")
    assert np.abs(twirled.ptm - oracle).max() < 1e-10
    f = (np.trace(c.ptm) - 1) / 3
    assert np.allclose(np.diag(twirled.ptm), [1, f, f, f], atol=1e-10)


def test_twirl_preserves_process_fidelity():
    c = ch.random_cptp(2, seed=5)
    for group in ("pauli", "clifford-1q"):
        t = ch.twirl_exact(c, group)
        assert np.trace(t.ptm) == pytest.approx(np.trace(c.ptm), abs=1e-12)
    ident = ch.identity_channel()
    assert np.abs(ch.twirl_exact(ident, "pauli").ptm - np.eye(4)).max() < 1e-12


def test_twirl_sampled_converges():
    c = ch.random_cptp(2, seed=31)
    t = ch.twirl_sampled(c, "pauli", 4096, seed=7)
    off = t.ptm - np.diag(np.diag(t.ptm))
    assert np.linalg.norm(off) < 0.05


@pytest.mark.parametrize("group, d, nsamples", [("clifford-1q", 2, 5000), ("clifford-2q", 4, 2000)])
def test_clifford_twirl_sampled_converges_to_exact(group, d, nsamples):
    c = ch.random_cptp(d, seed=31)
    sampled = ch.twirl_sampled(c, group, nsamples, seed=7)
    assert np.abs(sampled.ptm - ch.twirl_exact(c, group).ptm).max() < 0.03
    other = "clifford-2q" if group == "clifford-1q" else "clifford-1q"
    with pytest.raises(ValueError, match="group dimension"):
        ch.twirl_sampled(c, other, 10, seed=7)


def test_random_cptp_properties():
    for d in (2, 4):
        c = ch.random_cptp(d, seed=3)
        assert np.linalg.eigvalsh(c.to_choi()).min() >= -1e-9
        row = np.zeros(d * d)
        row[0] = 1
        assert np.abs(c.ptm[0] - row).max() < 1e-9
    a = ch.random_cptp(2, seed=11)
    b = ch.random_cptp(2, seed=11)
    assert np.abs(a.ptm - b.ptm).max() == 0.0
    with pytest.raises(ValueError):
        ch.random_cptp(3, seed=1)


def test_probability_range_checks():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            ch.dephasing(bad)
    with pytest.raises(ValueError):
        ch.stochastic_pauli((0.5, 0.5, 0.5))


def test_json_round_trip():
    for rep in ("ptm", "transfer", "chi", "choi"):
        c = ch.random_cptp(2, seed=21)
        text = c.to_json(rep)
        payload = json.loads(text)
        assert payload["dim"] == 2 and payload["representation"] == rep
        back = Channel.from_json(text)
        assert np.abs(back.ptm - c.ptm).max() < 1e-10
