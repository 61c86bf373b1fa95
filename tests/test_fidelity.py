import numpy as np
import pytest

from qcvv import channels as ch
from qcvv import cliffords as cl
from qcvv import device as dv
from qcvv import fidelity as fd
from qcvv import rb
from qcvv.device import Circuit
from qcvv.linalg import ket, projector, rng
from qcvv.metrics import convert_metric, state_fidelity
from qcvv.paulis import PauliString


def pauli_noise_model(n, oneq=(0.003, 0.002, 0.004), twoq=None):
    twoq = twoq or {"XZ": 0.01, "ZI": 0.008}

    def nr(lbl, ar):
        return ch.stochastic_pauli(oneq) if ar == 1 else ch.stochastic_pauli(twoq)

    return dv.noisy_model(n, nr)


def random_target_layers(n, n_blocks, seed, twoq_gate="CZ"):
    sampler = rb.LayerSampler(n, twoq_density=0.6, twoq_gate=twoq_gate)
    g = rng(seed)
    layers = []
    for _ in range(n_blocks):
        oneq, twoq = sampler.sample(g)
        layers.append(oneq)
        layers.append(twoq)
    layers.append(tuple((rb.clifford_label(1, int(g.integers(24))), (q,)) for q in range(n)))
    return layers


# -- characteristic functions and DFE ------------------------------------------------

def test_characteristic_function_stabilizer_vs_dense():
    n = 3
    ghz = projector((ket("000") + ket("111")) / np.sqrt(2))
    dense = fd.characteristic_function(ghz, n)
    stab = fd.characteristic_function(fd.ghz_stabilizers(n), n)
    assert np.abs(dense - stab).max() < 1e-12
    assert np.isclose((stab**2).sum(), 1.0)
    # stabilizer states have exactly 2**n nonzero coefficients
    assert np.count_nonzero(np.abs(stab) > 1e-12) == 2**n


def test_characteristic_function_dense_cap():
    with pytest.raises(ValueError):
        fd.characteristic_function(np.eye(2**11) / 2**11, 11)


def test_dfe_exact_state_scores_one():
    model = dv.ideal_model(2)
    circ = Circuit(2, ((("H", (0,)),), (("CNOT", (0, 1)),)))
    res = fd.dfe(model, circ, ["XX", "ZZ"], epsilon=0.05, delta=0.1, seed=3)
    assert res.estimate == pytest.approx(1.0, abs=0.05)


def test_dfe_ghz_under_depolarizing():
    n = 3

    def nr(lbl, ar):
        return ch.depolarizing(0.004) if ar == 1 else ch.depolarizing(0.015, n=2)

    model = dv.noisy_model(n, nr)
    circ = fd.ghz_circuit(n)
    # dense oracle for the true state fidelity
    from test_device import dense_reference_state
    from qcvv.linalg import Superket, unvectorize

    state = dense_reference_state(model, circ)
    rho = unvectorize(Superket(2**n, state.reshape(-1), "normalized-pauli"))
    f_true = state_fidelity(rho, projector((ket("000") + ket("111")) / np.sqrt(2)))
    res = fd.dfe(model, circ, fd.ghz_stabilizers(n), epsilon=0.05, delta=0.1, seed=5)
    assert abs(res.estimate - f_true) <= res.epsilon


def test_dfe_fast_backend_matches_dense_on_ghz():
    # GHZ stabilizers such as -YY enter with their sign on both backends
    n = 3
    model = dv.noisy_model(n, lambda lbl, ar: ch.depolarizing(0.01, n=ar))
    circ = fd.ghz_circuit(n)
    est = {
        backend: fd.dfe(model, circ, fd.ghz_stabilizers(n), epsilon=0.05, delta=0.1, seed=31, backend=backend).estimate
        for backend in ("dense", "fast")
    }
    assert abs(est["fast"] - est["dense"]) <= 0.05


def test_dfe_fast_backend_rejects_non_stabilizer_target():
    psi = np.cos(np.pi / 8) * ket("0") + np.sin(np.pi / 8) * ket("1")
    circ = Circuit(1, ((("I", (0,)),),))
    with pytest.raises(ValueError):
        fd.dfe(dv.ideal_model(1), circ, projector(psi), epsilon=0.2, delta=0.2, seed=3, backend="fast")


# X(0), H(0), CNOT(0, 1) prepares |Phi->, stabilized by -XX and ZZ
PHI_MINUS = Circuit(2, ((("X", (0,)),), (("H", (0,)),), (("CNOT", (0, 1)),)))


def test_signed_stabilizer_labels_match_the_dense_characteristic_function():
    rho = projector((ket("00") - ket("11")) / np.sqrt(2))
    chi = fd.characteristic_function(["-XX", "ZZ"], 2)
    assert np.abs(chi - fd.characteristic_function(rho, 2)).max() < 1e-12


def test_dfe_fast_backend_checks_the_target_sign_against_the_circuit():
    """Scored against |Phi+>, |Phi-> has fidelity 0: the dense backend reads
    about 0, and the fast backend, which starts every shot from the
    target's sign, raises rather than score it 1.  Against the signed
    target both score 1."""
    model = dv.ideal_model(2)
    assert abs(fd.dfe(model, PHI_MINUS, ["XX", "ZZ"], 0.1, 0.1, 3).estimate) < 0.1
    with pytest.raises(ValueError, match="does not match"):
        fd.dfe(model, PHI_MINUS, ["XX", "ZZ"], 0.1, 0.1, 3, backend="fast")
    for backend in ("dense", "fast"):
        assert fd.dfe(model, PHI_MINUS, ["-XX", "ZZ"], 0.1, 0.1, 3, backend=backend).estimate == 1.0


def test_dfe_stabilizer_basis_count_independent_of_n():
    # flat chi**2 for stabilizer targets: sampled-bases count is set by
    # (epsilon, delta), not n
    counts = []
    for n in (2, 3):
        model = dv.ideal_model(n)
        circ = fd.ghz_circuit(n)
        res = fd.dfe(model, circ, fd.ghz_stabilizers(n), epsilon=0.2, delta=0.2, seed=7)
        counts.append(res.sampled_bases)
    limit = int(np.ceil(1 / (0.2**2 * 0.2)))
    assert all(c <= limit for c in counts)


def test_dfe_unbiased_under_exact_expectations():
    # Monte-Carlo mean across seeds brackets the truth
    n = 2

    def nr(lbl, ar):
        return ch.depolarizing(0.01) if ar == 1 else ch.depolarizing(0.02, n=2)

    model = dv.noisy_model(n, nr)
    circ = fd.ghz_circuit(n)
    from test_device import dense_reference_state
    from qcvv.linalg import Superket, unvectorize

    state = dense_reference_state(model, circ)
    rho = unvectorize(Superket(2**n, state.reshape(-1), "normalized-pauli"))
    f_true = state_fidelity(rho, projector((ket("00") + ket("11")) / np.sqrt(2)))
    ests = [
        fd.dfe(model, circ, fd.ghz_stabilizers(n), epsilon=0.08, delta=0.2, seed=s).estimate
        for s in range(12)
    ]
    assert np.mean(ests) == pytest.approx(f_true, abs=0.02)


# -- MCFE -----------------------------------------------------------------------------

def test_mcfe_noiseless():
    n = 3
    model = dv.noisy_model(n, lambda l, a: None)
    layers = random_target_layers(n, 3, seed=7)
    res = fd.mcfe(model, layers, k_ensemble=5, shots=50, seed=3)
    assert res.f == pytest.approx(1.0, abs=0.02)


def test_mcfe_matches_polarization_oracle():
    n = 3
    model = pauli_noise_model(n)
    layers = random_target_layers(n, 3, seed=7)
    f_oracle = fd.circuit_polarization_oracle(model, layers)
    res = fd.mcfe(model, layers, k_ensemble=40, shots=300, seed=11)
    assert abs(res.f - f_oracle) <= 0.10 * f_oracle


def test_mcfe_spam_robustness():
    n = 3
    model = pauli_noise_model(n)
    layers = random_target_layers(n, 3, seed=7)
    res = fd.mcfe(model, layers, k_ensemble=40, shots=300, seed=11)
    conf = {q: [[0.95, 0.05], [0.05, 0.95]] for q in range(n)}
    res_conf = fd.mcfe(model.with_confusion(conf), layers, k_ensemble=40, shots=300, seed=11)
    assert abs(res_conf.f - res.f) < max(res.stderr, res_conf.stderr)


def test_mcfe_negative_radicand_raises():
    # full depolarization drives the ensemble means to 0; this seed lands a
    # negative product and must be reported, not silently propagated
    n = 2
    model = dv.noisy_model(n, lambda l, a: ch.depolarizing(1.0, n=a))
    layers = random_target_layers(n, 2, seed=9)
    with pytest.raises(ValueError, match="radicand"):
        fd.mcfe(model, layers, k_ensemble=5, shots=20, seed=0)


@pytest.mark.parametrize("k", [0, 1])
def test_mcfe_needs_two_circuits_per_ensemble(k):
    layers = random_target_layers(3, 2, seed=7)
    with pytest.raises(ValueError, match="k_ensemble"):
        fd.mcfe(dv.ideal_model(3), layers, k_ensemble=k, shots=10, seed=5)


# -- accreditation ------------------------------------------------------------------

def test_trap_count_formula():
    # theta = 0.05, alpha = 0.95: N_c = 2 ln 40 / 0.0025 ~ 2951
    assert fd.trap_count(0.05, 0.95) == int(np.ceil(2 * np.log(40) / 0.0025))
    assert 2950 <= fd.trap_count(0.05, 0.95) <= 2952


def test_accreditation_noiseless():
    n = 3
    model = dv.noisy_model(n, lambda l, a: None)
    layers = random_target_layers(n, 3, seed=13)
    res = fd.accredit(model, layers, theta=0.3, alpha=0.9, seed=3)
    assert res.n_unsuccessful == 0
    assert res.f_lower == 1.0 and res.f_upper == 1.0


def test_accreditation_rejects_non_cz_entanglers():
    n = 2
    model = dv.ideal_model(n)
    layers = random_target_layers(n, 2, seed=15, twoq_gate="CNOT")
    with pytest.raises(ValueError):
        fd.accredit(model, layers, theta=0.3, alpha=0.9, seed=3)


@pytest.mark.parametrize(
    "bad, message",
    [
        ((("H", (7,)),), "out of range"),
        ((("S", (0,)), ("S", (0,))), "overlapping"),
    ],
)
def test_accreditation_checks_its_target(bad, message):
    """The whole target is checked, as MCFE checks it, its 1q layers too,
    although the traps replace them."""
    layers = [bad, (("CZ", (0, 1)),), (("H", (2,)),)]
    with pytest.raises(ValueError, match=message):
        fd.accredit(dv.ideal_model(3), layers, theta=0.3, alpha=0.9, seed=3)
    with pytest.raises(ValueError, match=message):
        fd.mcfe(dv.ideal_model(3), layers, k_ensemble=4, shots=10, seed=3)


def _conjugate_codes(name, codes) -> tuple:
    """Per-qubit letter codes of the image, up to sign, of the local Pauli
    with letter codes ``codes`` (one per qubit of the support) under the
    builtin gate ``name``, read off its conjugation table."""
    images, _ = cl.conjugation_table(cl.gate_tableau(name))
    local = sum(c << (2 * j) for j, c in enumerate(codes))
    return tuple(int(code) for code in images[:, local])


def _label_built_trap(n, twoq_t, gen):
    """A trap drawn as :func:`fd._traps` draws one, round by round, each
    round redrawn until no CZ sees two H picks, with every 1q layer composed
    through the label-layer helpers and randomly compiled one sublayer at a
    time: one scalar Pauli draw per CZ layer, its image pushed through each
    gate's conjugation table."""
    rounds = []
    for t in range(len(twoq_t) + 1):
        while True:
            pick = [("I", "H", "S")[i] for i in gen.integers(3, size=n).tolist()]
            ops = twoq_t[t] if t < len(twoq_t) else ()
            if not any(len(qs) == 2 and pick[qs[0]] == pick[qs[1]] == "H" for _, qs in ops):
                break
        rounds.append(pick)
    oneq, undo = [], ()
    for pick in rounds:
        layer = tuple((g, (q,)) for q, g in enumerate(pick))
        oneq.append(cl.compose_1q_layers(undo, layer, n))
        undo = cl.inverse_layer(layer)
    oneq.append(cl.compose_1q_layers(undo, (), n))
    for i, twoq in enumerate(twoq_t):
        d = cl.pauli_codes(int(gen.integers(4**n)), n)
        c = list(d)
        for label, qubits in twoq:
            for q, code in zip(qubits, _conjugate_codes(label, [d[q] for q in qubits])):
                c[q] = code
        oneq[i] = cl.compose_1q_with_pauli(oneq[i], d, n, before=False)
        oneq[i + 1] = cl.compose_1q_with_pauli(oneq[i + 1], c, n, before=True)
    return tuple(layer for i, oq in enumerate(oneq) for layer in (oq, twoq_t[i] if i < len(twoq_t) else ()) if layer)


def _trap_targets():
    """(width, CZ layers) of CZ targets and, for widths 2-5, of targets
    without a CZ layer."""
    cases = [(3, 3), (4, 2), (5, 3), (2, 2)]
    out = [(n, fd.split_alternating(random_target_layers(n, depth, seed=17), n)[1]) for n, depth in cases]
    return out + [(n, fd.split_alternating([tuple(("H", (q,)) for q in range(n))], n)[1]) for n in (2, 3, 4, 5)]


def test_accreditation_traps_have_target_shape():
    # width and 2q placement match the target circuit, and the traps built
    # as one ensemble have the layers of label-built ones, each followed by
    # its seed draw
    for n, twoq_t in _trap_targets():
        gen, ref = rng(5), rng(5)
        circuits, seeds = fd._traps(n, twoq_t, 10, gen)
        assert len(circuits) == len(seeds) == 10
        for circ, seed in zip(circuits, seeds):
            assert circ.width == n
            trap_twoq = [layer for layer in circ.layers if any(len(qs) == 2 for _, qs in layer)]
            assert [tuple(l) for l in trap_twoq] == [tuple(l) for l in twoq_t]
            assert circ.layers == _label_built_trap(n, twoq_t, ref)
            assert seed == int(ref.integers(2**62))
        assert gen.random() == ref.random()  # both streams end at the same place


def test_accreditation_traps_end_in_all_zeros():
    # accredit scores every trap against the all-zeros outcome
    targets = [
        (n, fd.split_alternating(random_target_layers(n, 1 + target_seed % 3, target_seed), n)[1], 100 * n + target_seed)
        for n in (2, 3, 4, 5)
        for target_seed in (41, 42, 43)
    ]
    targets += [(n, twoq_t, 7 * n) for n, twoq_t in _trap_targets() if not twoq_t]
    for n, twoq_t, seed in targets:
        for circ in fd._traps(n, twoq_t, 20, rng(seed))[0]:
            bits = dv.ideal_outcome_bits(dv.ideal_model(n), circ)
            assert bits is not None and not bits.any()


def test_accreditation_brackets_true_fidelity():
    n = 3
    model = pauli_noise_model(n)
    layers = random_target_layers(n, 3, seed=19)
    fe_true = convert_metric(
        fd.circuit_polarization_oracle(model, layers), "f", "F_e", 2**n
    )
    res = fd.accredit(model, layers, theta=0.1, alpha=0.95, seed=21)
    assert res.f_lower - res.theta <= fe_true <= res.f_upper + res.theta


def test_mcfe_and_accreditation_bracket_each_other():
    n = 3
    model = pauli_noise_model(n)
    layers = random_target_layers(n, 3, seed=23)
    mc = fd.mcfe(model, layers, k_ensemble=40, shots=300, seed=25)
    acc = fd.accredit(model, layers, theta=0.1, alpha=0.95, seed=27)
    assert acc.f_lower - acc.theta - 3 * mc.stderr <= mc.f_e <= acc.f_upper + acc.theta + 3 * mc.stderr


def _dfe_per_pauli(model, prep, target, epsilon, delta, seed, backend):
    """DFE with one ``parity_mean`` call per sampled Pauli, its seed drawn
    as its circuit is built."""
    n, d = model.n, 2**model.n
    chi = fd.characteristic_function(target, n)
    gen = rng(seed)
    l = int(np.ceil(1 / (epsilon**2 * delta)))
    ks, reps = np.unique(gen.choice(len(chi), size=l, p=chi**2 / (chi**2).sum()), return_counts=True)
    values, total = [], 0
    for k, rep in zip(ks, reps):
        p = PauliString.from_index(int(k), n)
        m_k = max(int(np.ceil(2 * np.log(2 / delta) / (d * chi[k] ** 2 * l * epsilon**2))), 1) * int(rep)
        total += m_k
        meas = cl.readout_layer(p)
        circ = prep.then(Circuit(n, (meas,))) if meas else prep
        sub = int(gen.integers(2**62))
        mean = float(dv.parity_mean(model, circ, cl.readout_pauli(p), m_k, sub, backend, chi[k] * np.sqrt(d)))
        values.extend([(mean / np.sqrt(d)) / chi[k]] * int(rep))
    values = np.asarray(values)
    return fd.DFEResult(float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size)), epsilon, delta, len(ks), total)


@pytest.mark.parametrize("backend", ["dense", "fast"])
def test_dfe_groups_equal_per_pauli_parity_means(monkeypatch, backend):
    """DFE measures the sampled Paulis of one shot count as one
    ``_parity_all`` call; its result is, to the bit, that of one
    ``parity_mean`` call per Pauli, each seed drawn as its circuit is
    built."""
    model = pauli_noise_model(3, twoq={"XZ": 0.03, "ZI": 0.02, "YY": 0.01})
    args = (model, fd.ghz_circuit(3), fd.ghz_stabilizers(3), 0.25, 0.25, 17)
    calls = []
    grouped_all = fd._parity_all

    def spy(model, circuits, *rest):
        calls.append(len(circuits))
        return grouped_all(model, circuits, *rest)

    monkeypatch.setattr(fd, "_parity_all", spy)
    grouped = fd.dfe(*args, backend=backend)
    assert len(calls) > 1 and max(calls) > 1 and sum(calls) == grouped.sampled_bases
    assert grouped == _dfe_per_pauli(*args, backend)
