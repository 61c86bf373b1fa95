import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvv import channels as ch
from qcvv import device as dv
from qcvv import metrics as mt
from qcvv import tomography as tg
from qcvv.device import Circuit, circuit_probabilities, sample_counts, sample_counts_drifting
from qcvv.linalg import child_seeds, haar_random_unitary, ket, projector, rng

BELL = Circuit(2, ((("H", (0,)),), (("CNOT", (0, 1)),)))
X90_TARGETS = {l: ch.Channel.from_unitary(dv.GATE_UNITARIES[l]).ptm for l in ("X90", "Y90")}


def test_qst_exact_zero_state():
    # exact probabilities of |0><0| under the 6 Pauli-eigenstate effects
    effects = [e for _, _, e in tg.pauli_eigenstate_effects(1)]
    rho0 = projector(ket("0"))
    freqs = np.array([np.trace(e @ rho0).real for e in effects]) / 3  # 3 settings
    # frequencies within a setting sum to 1; rescale per setting
    freqs = np.array([np.trace(e @ rho0).real for e in effects])
    rho = tg.qst(None, 1, method="linear", effects=effects, freqs=freqs)
    assert np.abs(rho - rho0).max() < 1e-12


def test_qst_bell_closed_loop():
    model = dv.ideal_model(2)
    bell_circ = Circuit(2, ((("H", (0,)),), (("CNOT", (0, 1)),)))
    ds = tg.qst_dataset(model, bell_circ, shots=10000, seed=5)
    rho = tg.qst(ds, 2, method="mle")
    bell = projector((ket("00") + ket("11")) / np.sqrt(2))
    assert mt.state_fidelity(rho, bell) >= 0.99


def test_qst_rank_deficiency_error():
    model = dv.ideal_model(1)
    ds = tg.qst_dataset(model, Circuit(1, ()), shots=100, seed=1)
    with pytest.raises(ValueError):
        tg.qst({"Z": ds["Z"]}, 1)


def test_qst_mle_vs_linear_when_physical():
    # when the linear estimate is PSD it is the MLE
    model = dv.noisy_model(1, lambda l, a: ch.depolarizing(0.2))
    circ = Circuit(1, ((("X90", (0,)),),))
    ds = tg.qst_dataset(model, circ, shots=40000, seed=9)
    lin = tg.qst(ds, 1, method="linear")
    if np.linalg.eigvalsh(lin).min() >= 0:
        mle = tg.qst(ds, 1, method="mle")
        assert np.abs(lin / np.trace(lin).real - mle).max() < 1e-6


def test_qst_mle_loglikelihood_dominates_linear():
    model = dv.ideal_model(1)
    circ = Circuit(1, ((("H", (0,)),),))  # pure |+>: linear estimate often unphysical
    ds = tg.qst_dataset(model, circ, shots=300, seed=21)
    counts, _, _ = tg._tally(ds, 1)
    effects = tg._effect_table(1)[1]
    lin = tg.qst(ds, 1, method="linear")
    mle = tg.qst(ds, 1, method="mle")
    evals = np.linalg.eigvalsh(lin)
    lin_phys = lin if evals.min() >= 0 else None
    if lin_phys is not None:
        assert tg.loglikelihood(effects, counts, mle) >= tg.loglikelihood(effects, counts, lin_phys) - 1e-9
    assert np.linalg.eigvalsh(mle).min() >= -1e-9


def test_qst_error_scaling_with_shots():
    model = dv.ideal_model(1)
    circ = Circuit(1, ((("X90", (0,)),),))
    truth = dv.GATE_UNITARIES["X90"] @ projector(ket("0")) @ dv.GATE_UNITARIES["X90"].conj().T
    shots_list = [200, 2000, 20000, 200000]
    errs = []
    for i, shots in enumerate(shots_list):
        trial_errs = []
        for t in range(6):
            ds = tg.qst_dataset(model, circ, shots=shots, seed=1000 * i + t)
            rho = tg.qst(ds, 1, method="mle")
            trial_errs.append(mt.trace_distance(rho, truth) * 2)
        errs.append(np.mean(trial_errs))
    slope = np.polyfit(np.log(shots_list), np.log(errs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_qst_mle_beats_a_psd_linear_estimate_on_the_2q_design():
    # 36 effects for 15 parameters: a PSD linear estimate does not reproduce
    # the frequencies, so it is not the MLE
    ds = tg.qst_dataset(dv.noisy_model(2, lambda l, a: ch.depolarizing(0.4, n=a)), BELL, shots=300, seed=0)
    lin = tg.qst(ds, 2, method="linear")
    assert np.linalg.eigvalsh(lin).min() > 0.05
    mle = tg.qst(ds, 2, method="mle")
    counts, effects = tg._tally(ds, 2)[0], tg._effect_table(2)[1]
    gain = tg.loglikelihood(effects, counts, mle) - tg.loglikelihood(effects, counts, lin / np.trace(lin).real)
    assert gain > 0.1


def _target_circuit(n):
    return Circuit(n, ((("TGT", tuple(range(n))),),))


@settings(derandomize=True, max_examples=16, deadline=None)
@given(n=st.sampled_from([1, 2]), pure=st.booleans(), shots=st.sampled_from([20, 500]), seed=st.integers(0, 2**20))
def test_qst_mle_closed_loop_is_a_state_at_least_as_likely_as_the_truth(n, pure, shots, seed):
    d = 2**n
    gate = ch.Channel.from_unitary(haar_random_unitary(d, seed)) if pure else ch.random_cptp(d, seed)
    truth = gate.apply(tg._zero_state(n))
    ds = tg.qst_dataset(dv.GateSetModel(n, gates={"TGT": (gate, n)}), _target_circuit(n), shots, seed)
    rho = tg.qst(ds, n, method="mle")
    counts, effects = tg._tally(ds, n)[0], tg._effect_table(n)[1]
    assert tg.loglikelihood(effects, counts, rho) >= tg.loglikelihood(effects, counts, truth) - 1e-9
    assert np.linalg.eigvalsh(rho).min() >= -1e-10
    assert abs(np.trace(rho) - 1) <= 1e-10


@settings(derandomize=True, max_examples=10, deadline=None)
@given(n=st.sampled_from([1, 2]), shots=st.sampled_from([30, 1000]), seed=st.integers(0, 2**20))
def test_qpt_mle_closed_loop_is_cptp_and_at_least_as_likely_as_the_truth(n, shots, seed):
    truth = ch.random_cptp(2**n, seed)
    ds = tg.qpt_dataset(dv.GateSetModel(n, gates={"TGT": (truth, n)}), _target_circuit(n), shots, seed)
    chan = tg.qpt(ds, n, method="mle")
    assert _process_loglikelihood(ds, n, chan) >= _process_loglikelihood(ds, n, truth) - 1e-9
    _assert_cptp(chan)


def _povm_loglikelihood(ds, effects):
    preps = tg._prep_states(1)
    return sum(c * np.log(np.trace(effects[o] @ preps[i]).real) for i in ds for o, c in ds[i].items() if c)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(e0=st.sampled_from([0.0, 0.02, 0.2]), e1=st.sampled_from([0.0, 0.05, 0.3]), shots=st.sampled_from([20, 2000]),
       seed=st.integers(0, 2**20))
def test_qmt_mle_closed_loop_is_a_povm_at_least_as_likely_as_the_truth(e0, e1, shots, seed):
    conf = [[1 - e0, e1], [e0, 1 - e1]]
    ds = tg.qmt_dataset(dv.ideal_model(1).with_confusion({0: conf}), shots, seed)
    effects = tg.qmt(ds, 1, method="mle")
    truth = {"0": np.diag([1 - e0, e1]), "1": np.diag([e0, 1 - e1])}
    assert _povm_loglikelihood(ds, effects) >= _povm_loglikelihood(ds, truth) - 1e-9
    for e in effects.values():
        assert np.linalg.eigvalsh(e).min() >= -1e-10
    assert np.abs(sum(effects.values()) - np.eye(2)).max() <= 1e-10


def test_qpt_identity_and_dephasing():
    model = dv.ideal_model(1)
    ds = tg.qpt_dataset(model, Circuit(1, ()), shots=100000, seed=3)
    chan = tg.qpt(ds, 1, method="linear")
    assert np.abs(chan.ptm - np.eye(4)).max() < 0.02
    p = 0.05
    noisy = dv.noisy_model(
        1,
        lambda l, a: ch.dephasing(p) if l == "TGT" else None,
        gate_factory=lambda l: np.eye(2, dtype=complex) if l == "TGT" else None,
    )
    ds2 = tg.qpt_dataset(noisy, Circuit(1, ((("TGT", (0,)),),)), shots=400000, seed=7)
    chan2 = tg.qpt(ds2, 1, method="mle")
    assert np.allclose(np.diag(chan2.ptm), [1, 1 - p, 1 - p, 1], atol=0.01)


def test_qpt_closed_loop_random_channel():
    # entanglement fidelity between the estimate and the injected truth
    target = ch.random_cptp(2, seed=31)
    model = dv.GateSetModel(1, gates={"TGT": (target, 1)})
    ds = tg.qpt_dataset(model, Circuit(1, ((("TGT", (0,)),),)), shots=100000, seed=11)
    chan = tg.qpt(ds, 1, method="linear")
    fe = np.trace(chan.ptm @ np.linalg.inv(target.ptm)) / 4
    assert fe >= 0.995


def _spy_fit(monkeypatch, run):
    """What ``run`` returns, with the arguments and the result of the
    optimizer call it makes."""
    import scipy.optimize

    seen = {}
    minimize = scipy.optimize.minimize

    def spy(fun, x0, args=(), **kw):
        seen["args"] = args
        seen["res"] = minimize(fun, x0, args=args, **kw)
        return seen["res"]

    monkeypatch.setattr(scipy.optimize, "minimize", spy)
    return run(), seen


def _cnot_process_fit(monkeypatch):
    """The 2q CNOT process MLE at 2% depolarizing, 1,000 shots, seed 5, its
    dataset, and the arguments and result of its optimizer call."""
    model = dv.noisy_model(2, lambda l, a: ch.depolarizing(0.02, n=2) if l == "CNOT" else None)
    ds = tg.qpt_dataset(model, Circuit(2, ((("CNOT", (0, 1)),),)), shots=1000, seed=5)
    chan, seen = _spy_fit(monkeypatch, lambda: tg.qpt(ds, 2, method="mle"))
    return chan, ds, seen


def _process_loglikelihood(ds, n, chan):
    """Log-likelihood of a channel for prep-fiducial x setting counts."""
    keys, mats, _ = tg._effect_table(n)
    ll = 0.0
    for i, rho in enumerate(tg._prep_states(n)):
        counts = np.array([ds[i][s].get(b, 0) for s, b in keys], dtype=float)
        p = np.einsum("kij,ji->k", mats, chan.apply(rho)).real
        ll += float(np.sum(counts[counts > 0] * np.log(p[counts > 0])))
    return ll


def _assert_cptp(chan, tol=1e-10):
    assert np.linalg.eigvalsh(chan.to_choi()).min() >= -tol
    assert np.abs(chan.ptm[0] - np.eye(chan.dim**2)[0]).max() <= tol


def test_qpt_mle_converges_on_cnot_data(monkeypatch):
    chan, ds, seen = _cnot_process_fit(monkeypatch)
    assert seen["res"].success
    # the returned channel is exactly CPTP and beats the penalised fit's
    # log-likelihood of -149471.4513 on this data
    assert _process_loglikelihood(ds, 2, chan) >= -149446.46
    _assert_cptp(chan)
    assert chan.is_tp()
    truth = ch.depolarizing(0.02, n=2).ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["CNOT"]).ptm
    assert np.abs(chan.ptm - truth).max() < 0.05


def _assert_gradient_matches_central_differences(args, seed):
    preps, effects, _ = args
    dim = preps.shape[1] * effects.shape[1]
    gen = rng(seed)
    x = gen.normal(scale=0.1, size=2 * dim * dim)
    _, grad = tg._cptp_nll(x, *args)
    eps = 1e-6
    for i in gen.choice(x.size, size=min(40, x.size), replace=False):
        step = np.zeros_like(x)
        step[i] = eps
        hi, _ = tg._cptp_nll(x + step, *args)
        lo, _ = tg._cptp_nll(x - step, *args)
        assert grad[i] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4, abs=1e-2)


def test_qpt_mle_gradient_matches_central_differences(monkeypatch):
    _, _, seen = _cnot_process_fit(monkeypatch)
    assert seen["args"][0].shape == (16, 4, 4) and seen["args"][1].shape == (36, 4, 4)
    _assert_gradient_matches_central_differences(seen["args"], 12)


def test_qst_mle_gradient_matches_central_differences(monkeypatch):
    ds = tg.qst_dataset(dv.noisy_model(2, lambda l, a: ch.depolarizing(0.1, n=a)), BELL, shots=300, seed=3)
    args = _spy_fit(monkeypatch, lambda: tg.qst(ds, 2, method="mle"))[1]["args"]
    assert args[0].shape == (1, 1, 1) and args[1].shape == (36, 4, 4)
    _assert_gradient_matches_central_differences(args, 13)


def test_qmt_mle_gradient_matches_central_differences(monkeypatch):
    model = dv.ideal_model(2).with_confusion({0: [[0.95, 0.1], [0.05, 0.9]]})
    ds = tg.qmt_dataset(model, shots=500, seed=4)
    args = _spy_fit(monkeypatch, lambda: tg.qmt(ds, 2, method="mle"))[1]["args"]
    assert args[0].shape == (16, 4, 4) and args[1].shape == (4, 4, 4)
    _assert_gradient_matches_central_differences(args, 14)


def test_qpt_mle_raises_when_the_fit_fails(monkeypatch):
    import scipy.optimize

    minimize = scipy.optimize.minimize
    monkeypatch.setattr(scipy.optimize, "minimize", lambda *a, **kw: minimize(*a, **{**kw, "options": {"maxiter": 1}}))
    model = dv.noisy_model(1, lambda l, a: ch.dephasing(0.1))
    ds = tg.qpt_dataset(model, Circuit(1, ((("X90", (0,)),),)), shots=300, seed=11)
    with pytest.raises(RuntimeError, match="did not converge"):
        tg.qpt(ds, 1, method="mle")


def test_qpt_incomplete_design_raises():
    model = dv.ideal_model(1)
    ds = tg.qpt_dataset(model, Circuit(1, ()), shots=100, seed=1)
    del ds[0]
    with pytest.raises(ValueError):
        tg.qpt(ds, 1)


def test_qpt_raises_when_every_preparation_lacks_a_setting():
    ds = tg.qpt_dataset(dv.ideal_model(2), Circuit(2, ()), shots=100, seed=1)
    settings = [s for s, _ in tg.meas_setting_circuits(2)]
    for i in ds:
        del ds[i][settings[i % len(settings)]]
    with pytest.raises(ValueError, match="not informationally complete"):
        tg.qpt(ds, 2, method="linear")


def test_qmt_perfect_and_confused():
    model = dv.ideal_model(1)
    ds = tg.qmt_dataset(model, shots=200000, seed=3)
    effects = tg.qmt(ds, 1, method="mle")
    assert np.abs(effects["0"] - projector(ket("0"))).max() < 0.01
    assert np.abs(effects["1"] - projector(ket("1"))).max() < 0.01
    assert np.abs(effects["0"] + effects["1"] - np.eye(2)).max() < 1e-6

    conf = [[0.99, 0.05], [0.01, 0.95]]
    noisy = dv.ideal_model(1).with_confusion({0: conf})
    ds2 = tg.qmt_dataset(noisy, shots=100000, seed=5)
    r = tg.response_matrix(ds2, 1)
    # recovered within 3 sigma binomial error
    for i in range(2):
        for j in range(2):
            sigma = np.sqrt(conf[i][j] * (1 - conf[i][j]) / 100000)
            assert abs(r[i, j] - conf[i][j]) <= max(3 * sigma, 1e-3)
    assert mt.readout_fidelity(r) == pytest.approx(0.97, abs=0.005)


def test_qmt_rejects_an_unknown_method():
    ds = tg.qmt_dataset(dv.ideal_model(1), shots=100, seed=1)
    with pytest.raises(ValueError, match="unknown method"):
        tg.qmt(ds, 1, method="bogus")


def test_qmt_insufficient_preps():
    model = dv.ideal_model(1)
    ds = tg.qmt_dataset(model, shots=100, seed=1)
    del ds[3]
    with pytest.raises(ValueError):
        tg.qmt(ds, 1)


def test_truth_table_cnot_and_hadamard():
    model = dv.ideal_model(2)
    s, f_tt = tg.truth_table(model, Circuit(2, ((("CNOT", (0, 1)),),)), shots=4000, seed=3)
    perm = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.abs(s - perm).max() < 0.05
    assert f_tt == pytest.approx(1.0, abs=0.01)

    m1 = dv.ideal_model(1)
    s_h, _ = tg.truth_table(m1, Circuit(1, ((("H", (0,)),),)), shots=100000, seed=5)
    assert np.abs(s_h - 0.5).max() < 0.01


def test_truth_table_with_x_flip():
    def nr(l, a):
        if l == "CNOT":
            return ch.identity_channel(1).tensor(ch.stochastic_pauli((0.02, 0, 0)))
        return None

    model = dv.noisy_model(2, nr)
    _, f_tt = tg.truth_table(model, Circuit(2, ((("CNOT", (0, 1)),),)), shots=100000, seed=7)
    assert f_tt == pytest.approx(0.98, abs=0.005)


def test_truth_table_insensitive_to_z_phase():
    model = dv.noisy_model(2, lambda l, a: ch.coherent("z", 0.3).tensor(ch.identity_channel(1)) if a == 2 else None)
    _, f_tt = tg.truth_table(model, Circuit(2, ((("CNOT", (0, 1)),),)), shots=50000, seed=9)
    assert f_tt == pytest.approx(1.0, abs=0.01)


def test_lgst_exact_recovery_and_self_consistency():
    model = dv.ideal_model(1)
    res = tg.run_lgst(model, ["X90", "Y90"], exact=True)
    preps = tg.prep_fiducial_circuits(1)
    meas = tg.meas_setting_circuits(1)
    worst = 0.0
    for pi, prep in enumerate(preps):
        for seq in [(), ("X90",), ("X90", "Y90")]:
            for setting, rot in meas:
                layers = tuple(prep) + tuple(((g, (0,)),) for g in seq) + tuple(rot)
                dist = circuit_probabilities(model, Circuit(1, layers)).as_dict()
                for bits, p in dist.items():
                    worst = max(worst, abs(tg.lgst_predict(res, pi, seq, setting, bits) - p))
    assert worst < 1e-9


def test_lgst_self_consistent_under_spam_error():
    model = dv.ideal_model(1).with_confusion({0: [[0.9, 0.1], [0.1, 0.9]]})
    res = tg.run_lgst(model, ["X90", "Y90"], exact=True)
    preps = tg.prep_fiducial_circuits(1)
    meas = tg.meas_setting_circuits(1)
    for pi, prep in enumerate(preps):
        for seq in [("X90", "X90", "Y90")]:
            for setting, rot in meas:
                layers = tuple(prep) + tuple(((g, (0,)),) for g in seq) + tuple(rot)
                dist = circuit_probabilities(model, Circuit(1, layers)).as_dict()
                for bits, p in dist.items():
                    assert tg.lgst_predict(res, pi, seq, setting, bits) == pytest.approx(p, abs=1e-9)


def test_lgst_spam_only_gates_near_ideal_after_gauge():
    model = dv.ideal_model(1).with_confusion({0: [[0.97, 0.04], [0.03, 0.96]]})
    res = tg.run_lgst(model, ["X90", "Y90"], exact=True)
    _, fixed, _ = tg.gauge_optimize(res, X90_TARGETS, 1)
    for lbl in ("X90", "Y90"):
        fe = np.trace(fixed[lbl] @ np.linalg.inv(X90_TARGETS[lbl])) / 4
        assert abs(1 - fe) < 1e-3


def test_lgst_singular_gram_raises():
    # collapse the fiducials by removing measurement diversity: a model whose
    # every gate is the identity makes preps coincide
    model = dv.GateSetModel(
        1,
        gates={lbl: (ch.identity_channel(), 1) for lbl in ("X", "Y90", "X90M", "X90", "H", "S")},
    )
    with pytest.raises(ValueError):
        tg.run_lgst(model, ["X90"], exact=True)


def _lgst_reference(model, gate_labels, shots, seed, exact):
    """The Gram matrix and gate estimates of run_lgst from one dense call
    per circuit, with the child seeds taken in circuit order."""
    n = model.n
    preps, meas = tg.prep_fiducial_circuits(n), tg.meas_setting_circuits(n)
    seeds = iter(child_seeds(seed, (len(gate_labels) + 2) * len(preps) * len(meas) + 16))

    def column(prefix):
        by_setting = {}
        for setting, rot in meas:
            circ = Circuit(n, tuple(prefix) + tuple(rot))
            if exact:
                by_setting[setting] = circuit_probabilities(model, circ).as_dict()
            else:
                rec = sample_counts(model, circ, shots, next(seeds))
                by_setting[setting] = {k: v / shots for k, v in rec.counts.items()}
        return np.array([by_setting[setting].get(bits, 0.0) for setting, bits in tg._effect_table(n)[0]])

    gram = np.column_stack([column(p) for p in preps])
    pinv = np.linalg.pinv(gram, rcond=1e-10)
    layer = lambda label: (((label, tuple(range(n))),),)  # noqa: E731
    return gram, {g: pinv @ np.column_stack([column(tuple(p) + layer(g)) for p in preps]) for g in gate_labels}


@pytest.mark.parametrize("n, labels", [(1, ["X90", "Y90"]), (2, ["CNOT", "CZ"])])
@pytest.mark.parametrize("exact", [True, False])
def test_lgst_dataset_matches_per_circuit_calls(n, labels, exact):
    """run_lgst's stacked dataset gives, bit for bit, the Gram matrix and
    gate estimates of one dense call per circuit, exact or sampled."""
    model = dv.noisy_model(n, lambda lbl, ar: ch.depolarizing(0.02, n=ar), idle=ch.depolarizing(0.01))
    res = tg.run_lgst(model, labels, shots=None if exact else 300, seed=4, exact=exact)
    gram, gates = _lgst_reference(model, labels, 300, 4, exact)
    assert np.array_equal(res.gram, gram)
    assert all(np.array_equal(res.gates[g], gates[g]) for g in labels)


def test_lgst_coherent_error_recovery():
    theta = np.pi / 180
    model = dv.noisy_model(1, lambda l, a: ch.coherent("z", theta) if l == "X90" else None)
    res = tg.run_lgst(model, ["X90", "Y90"], exact=True)
    _, fixed, _ = tg.gauge_optimize(res, X90_TARGETS, 1)
    err = ch.Channel(fixed["X90"] @ np.linalg.inv(X90_TARGETS["X90"]))
    hz = ch.error_generator(err).rate("H", 3)
    assert hz == pytest.approx(theta / 2, rel=0.10)


def test_lgst_depolarizing_fidelity_after_gauge():
    p = 0.01
    model = dv.noisy_model(1, lambda l, a: ch.depolarizing(p))
    res = tg.run_lgst(model, ["X90", "Y90"], exact=True)
    _, fixed, _ = tg.gauge_optimize(res, X90_TARGETS, 1)
    injected_ef = 1 - ch.depolarizing(p).to_chi()[0, 0].real
    for lbl in ("X90", "Y90"):
        ef = 1 - np.trace(fixed[lbl] @ np.linalg.inv(X90_TARGETS[lbl])) / 4
        assert ef == pytest.approx(injected_ef, abs=1e-4)


def test_gauge_plant_and_recover():
    import scipy.linalg

    gen = rng(77)
    k = 0.05 * gen.normal(size=(4, 4))
    m_plant = scipy.linalg.expm(k)
    m0 = np.column_stack(
        [tg.vectorize(s, "normalized-pauli").coeffs.real for s in tg._prep_states(1)]
    )
    frame = np.linalg.inv(m_plant @ m0)
    res = tg.LinearGSTResult(
        {l: frame @ X90_TARGETS[l] @ np.linalg.inv(frame) for l in ("X90", "Y90")},
        frame @ tg.vectorize(tg._zero_state(1), "normalized-pauli").coeffs.real,
        {key: v @ np.linalg.inv(frame) for key, v in tg.ideal_effect_superbras(1).items()},
        np.eye(6, 4),
        1.0,
    )
    _, _, cost = tg.gauge_optimize(res, X90_TARGETS, 1)
    assert cost < 1e-6


def test_nongauge_param_count():
    model = dv.ideal_model(1)
    res = tg.run_lgst(model, ["X90", "Y90"], exact=True)
    n_nongauge = tg.lgst_nongauge_params(res)
    n_total = 2 * 16 + 4 + 24
    assert 0 < n_nongauge < n_total


def test_model_violation_in_model_and_drift():
    mtrue = dv.noisy_model(1, lambda l, a: ch.depolarizing(0.02))
    circs = [
        Circuit(1, tuple(((g, (0,)),) for g in seq))
        for seq in [("X90",), ("X90", "X90"), ("Y90",), ("X90", "Y90"), ("Y90", "Y90")]
    ]
    nsig = []
    for trial in range(20):
        preds, obs = [], []
        for i, c in enumerate(circs):
            preds.append(circuit_probabilities(mtrue, c).as_dict())
            obs.append(sample_counts(mtrue, c, 2000, 1000 + 17 * trial + i).counts)
        nsig.append(tg.model_violation(preds, obs))
    assert min(nsig) > -3 and max(nsig) < 3

    def model_at(t):
        return dv.noisy_model(1, lambda l, a: ch.depolarizing(0.02 + 0.25 * t))

    preds, obs = [], []
    for i, c in enumerate(circs):
        preds.append(circuit_probabilities(mtrue, c).as_dict())
        obs.append(sample_counts_drifting(model_at, c, 4000, 55 + i).counts)
    assert tg.model_violation(preds, obs) > 10


def test_model_violation_zero_for_exact_frequencies():
    mtrue = dv.noisy_model(1, lambda l, a: ch.depolarizing(0.05))
    circ = Circuit(1, ((("X90", (0,)),),))
    probs = circuit_probabilities(mtrue, circ).as_dict()
    counts = {k: v * 10000 for k, v in probs.items()}
    nsig = tg.model_violation([probs], [counts], k=1)
    # log-likelihood ratio is exactly 0; N_sigma = -k / (2 sqrt(k))
    assert nsig == pytest.approx(-0.5, abs=1e-9)


def test_design_gram_rank():
    effects = [e for _, _, e in tg.pauli_eigenstate_effects(1)]
    assert tg.gram_rank(effects) == 4
    assert tg.gram_rank(effects[:2]) < 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_effect_table_is_a_read_only_copy_of_a_fresh_build(n):
    keys, mats, bras = tg._effect_table(n)
    fresh = tg.pauli_eigenstate_effects(n)
    assert keys == tuple((setting, bits) for setting, bits, _ in fresh)
    assert mats.tobytes() == np.array([e for _, _, e in fresh]).tobytes()
    expected = np.array([tg.vectorize(e, "normalized-pauli").coeffs.real for _, _, e in fresh])
    assert bras.dtype == expected.dtype and bras.tobytes() == expected.tobytes()
    assert tg._effect_table(n) is tg._effect_table(n)
    for table in (mats, bras):
        with pytest.raises(ValueError):
            table[0] = 0
    superbras = tg.ideal_effect_superbras(n)
    assert list(superbras) == list(keys)
    for row, v in zip(bras, superbras.values()):
        assert v.flags.writeable and not np.shares_memory(v, bras)
        assert v.tobytes() == row.tobytes()
    next(iter(superbras.values()))[:] = 7.0
    assert bras.tobytes() == expected.tobytes()
    assert tg.ideal_effect_superbras(n)[keys[0]].tobytes() == expected[0].tobytes()
