import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcvv import linalg
from qcvv.linalg import (
    MATRIX_UNITS,
    NORMALIZED_PAULI,
    Superket,
    haar_random_unitary,
    hs_inner,
    ket,
    matrix_exp,
    matrix_log_principal,
    partial_trace,
    pauli_matrices,
    projector,
    rng,
    unvectorize,
    vectorize,
)

I2, X, Y, Z = pauli_matrices(1)


def test_vectorize_zero_state_matrix_units():
    sk = vectorize(projector(ket("0")), MATRIX_UNITS)
    assert np.allclose(sk.coeffs, [1, 0, 0, 0])


def test_vectorize_zero_state_normalized_pauli():
    # oracle: Tr[P rho] / sqrt(2) for P in I, X, Y, Z
    rho = projector(ket("0"))
    oracle = np.array([np.trace(p @ rho) for p in (I2, X, Y, Z)]) / np.sqrt(2)
    sk = vectorize(rho, NORMALIZED_PAULI)
    assert np.allclose(sk.coeffs, oracle)
    assert np.allclose(sk.coeffs, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_vectorize_bloch_state_pauli_coefficients():
    # rho(theta=pi/2, phi=0) = (I + X)/2: Pauli coefficients (1/2, 1/2, 0, 0)
    theta = np.pi / 2
    rho = 0.5 * (I2 + np.sin(theta) * X + np.cos(theta) * Z)
    coeffs = vectorize(rho, NORMALIZED_PAULI).coeffs * np.sqrt(2) / 2
    assert np.allclose(coeffs, [0.5, 0.5, 0, 0], atol=1e-12)


@pytest.mark.parametrize("basis", [MATRIX_UNITS, NORMALIZED_PAULI])
def test_vectorize_round_trip(basis):
    gen = rng(3)
    for _ in range(20):
        m = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        back = unvectorize(vectorize(m, basis))
        assert np.abs(back - m).max() < 1e-14


def test_vectorize_rejects_non_square():
    with pytest.raises(ValueError):
        vectorize(np.ones((2, 3)))


def test_basis_mixing_is_hard_error():
    a = vectorize(X, MATRIX_UNITS)
    b = vectorize(X, NORMALIZED_PAULI)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        a.overlap(b)


def test_hs_inner_values():
    assert hs_inner(X, X) == pytest.approx(2)
    assert hs_inner(X, Z) == pytest.approx(0)
    assert hs_inner(projector(ket("0")), Z) == pytest.approx(1)


def test_hs_inner_positive_and_conjugate_symmetric():
    gen = rng(5)
    for _ in range(10):
        a = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        b = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        val = hs_inner(a, a)
        assert val.real >= 0 and abs(val.imag) < 1e-12
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


def test_partial_trace_product_state():
    gen = rng(7)
    a = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    sigma = projector(linalg.haar_random_state(3, gen))
    joint = np.kron(a, sigma)
    assert np.abs(partial_trace(joint, [2, 3], [0]) - a).max() < 1e-12


def test_partial_trace_bell_state():
    bell = projector((ket("00") + ket("11")) / np.sqrt(2))
    for keep in ([0], [1]):
        red = partial_trace(bell, [2, 2], keep)
        assert np.abs(red - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_block_sum_oracle():
    gen = rng(11)
    m = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    m = m @ m.conj().T
    # index-sum oracle: (Tr_2 m)[i, j] = sum_k m[2i+k, 2j+k]
    oracle = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                oracle[i, j] += m[2 * i + k, 2 * j + k]
    assert np.abs(partial_trace(m, [2, 2], [0]) - oracle).max() < 1e-12
    assert partial_trace(m, [2, 2], [0]).trace() == pytest.approx(m.trace())


def test_partial_trace_composition_commutes():
    gen = rng(13)
    m = gen.normal(size=(8, 8)) + 1j * gen.normal(size=(8, 8))
    ab = partial_trace(partial_trace(m, [2, 2, 2], [0, 1]), [2, 2], [0])
    ba = partial_trace(partial_trace(m, [2, 2, 2], [0, 2]), [2, 2], [0])
    assert np.abs(ab - ba).max() < 1e-12


def test_partial_trace_keeps_subsystems_in_the_given_order():
    gen = rng(17)
    rho_a, rho_b, rho_c = (projector(linalg.haar_random_state(d, gen)) for d in (2, 3, 2))
    joint = np.kron(np.kron(rho_a, rho_b), rho_c)
    assert np.abs(partial_trace(joint, [2, 3, 2], [2, 0]) - np.kron(rho_c, rho_a)).max() < 1e-12


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 3], [0])


def test_haar_unitary_and_columns():
    u = haar_random_unitary(1, seed=1)
    assert abs(abs(u[0, 0]) - 1) < 1e-12
    for d in (2, 4, 5):
        u = haar_random_unitary(d, seed=d)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)


def test_haar_second_moment_monte_carlo():
    # E |Tr U|^2 = 1 for Haar at any d; Monte-Carlo oracle at d = 2
    gen = rng(17)
    vals = [abs(np.trace(haar_random_unitary(2, gen))) ** 2 for _ in range(10000)]
    assert np.mean(vals) == pytest.approx(1.0, abs=0.05)


def test_haar_left_invariance():
    # first-moment invariance: mean of U and of V U agree (both ~ 0)
    gen = rng(19)
    v = haar_random_unitary(2, gen)
    us = [haar_random_unitary(2, gen) for _ in range(4000)]
    m1 = np.mean(us, axis=0)
    m2 = np.mean([v @ u for u in us], axis=0)
    assert np.abs(m1).max() < 0.05 and np.abs(m2).max() < 0.05


def test_haar_requires_seed():
    with pytest.raises(ValueError):
        haar_random_unitary(2, None)


def test_log_exp_round_trip():
    assert np.abs(matrix_log_principal(np.eye(3))).max() < 1e-12
    assert np.abs(matrix_exp(np.zeros((3, 3))) - np.eye(3)).max() < 1e-12
    ptm = np.diag([1.0, 0.98, 0.98, 1.0])
    log = matrix_log_principal(ptm)
    assert np.allclose(np.diag(log), [0, np.log(0.98), np.log(0.98), 0], atol=1e-12)
    assert np.abs(matrix_exp(log) - ptm).max() < 1e-9


def test_log_branch_cut_raises():
    with pytest.raises(ValueError):
        matrix_log_principal(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        matrix_log_principal(np.diag([1.0, 0.0]))


def test_rng_is_deterministic_and_counter_based():
    a = rng(42).integers(0, 1000, size=5)
    b = rng(42).integers(0, 1000, size=5)
    assert np.array_equal(a, b)
    assert isinstance(rng(1).bit_generator, np.random.Philox)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(
        st.tuples(st.sampled_from(("integers", "random", "permutation")), st.sampled_from((3, 24)), st.integers(1, 32)),
        min_size=1,
        max_size=10,
    ),
)
def test_array_integer_draw_matches_scalar_draws(seed, steps):
    """``integers(k, size=n)`` consumes the stream as n scalar ``integers(k)``
    calls, also between other draws; seeded circuits rely on it."""
    array_gen, scalar_gen = rng(seed), rng(seed)
    for kind, k, n in steps:
        if kind == "integers":
            assert array_gen.integers(k, size=n).tolist() == [int(scalar_gen.integers(k)) for _ in range(n)]
        elif kind == "random":
            assert array_gen.random() == scalar_gen.random()
        else:
            assert array_gen.permutation(n).tolist() == scalar_gen.permutation(n).tolist()
    assert array_gen.random() == scalar_gen.random()


def _philox_state(gen):
    """The bit generator's whole state as plain values, for equality."""
    state = gen.bit_generator.state
    return (
        state["bit_generator"],
        state["state"]["counter"].tolist(),
        state["state"]["key"].tolist(),
        state["buffer"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )


SEEDS = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([0, -1, -(2**63), 2**63, 2**64 - 1, 2**64, 2**64 + 7]))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.tuples(SEEDS, st.integers(0, 7), st.integers(1, 9)), min_size=1, max_size=5))
@example([(0, 1, 3), (2**63, 3, 1), (-5, 0, 2), (2**64 + 3, 5, 4)])
def test_rekeyed_generator_draws_the_stream_of_a_new_one(steps):
    """Re-keying one live generator for seed after seed gives, each time,
    the state of ``rng(seed)`` and its draws, whatever the previous key
    left behind: negative seeds, 0, 2**63 and seeds above 2**64 reduce to
    the key ``rng`` takes, and an odd number of ``integers(3)`` calls
    leaves a half-used 32-bit word and a partly read buffer."""
    gen = rng(123)
    for seed, spent, k in steps:
        assert linalg._rekeyed(gen, seed) is gen
        fresh = rng(seed)
        assert _philox_state(gen) == _philox_state(fresh)
        draws = [
            (g.multinomial(50, [0.2, 0.3, 0.5]).tolist(), g.random(3).tolist(), g.integers(3, size=k).tolist())
            for g in (gen, fresh)
        ]
        assert draws[0] == draws[1]
        for _ in range(spent):
            gen.integers(3)


def test_rekeyed_passes_a_generator_seed_through():
    gen, seed = rng(1), rng(2)
    before = _philox_state(gen)
    assert linalg._rekeyed(gen, seed) is seed
    assert _philox_state(gen) == before
    with pytest.raises(ValueError, match="explicit seed"):
        linalg._rekeyed(gen, None)
