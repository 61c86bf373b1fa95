import numpy as np
import pytest

from qcvv import channels as ch
from qcvv import device as dv
from qcvv import rb
from qcvv.cliffords import readout_layer
from qcvv.device import circuit_probabilities
from qcvv.linalg import rng
from qcvv.metrics import unitarity
from qcvv.paulis import PauliString


def depol_model(n, p, **kw):
    return dv.noisy_model(n, lambda l, a: ch.depolarizing(p, n=a), **kw)


def test_design_validation():
    with pytest.raises(ValueError):
        rb.RBDesign((0,), (0, 4), 10, 100, 1)
    with pytest.raises(ValueError):
        rb.RBDesign((0,), (0, -1, 4), 10, 100, 1)


def test_crb_circuit_counts_and_m0():
    design = rb.RBDesign((0,), (0, 4, 16), 30, 100, seed=9)
    circs = rb.crb_circuits(design)
    assert len(circs) == 90
    m0 = [c for c in circs if c[0] == 0]
    assert all(c[1].depth == 2 for c in m0)  # one random gate and its inverse


def test_crb_circuits_compose_to_designated_pauli():
    # noiseless execution returns the success string with probability 1
    model = dv.ideal_model(1)
    design = rb.RBDesign((0,), (0, 2, 5), 8, 10, seed=3)
    for m, circ, bits in rb.crb_circuits(design):
        dist = circuit_probabilities(model, circ).as_dict()
        assert dist[bits] == pytest.approx(1.0, abs=1e-9)


def test_crb_circuits_compose_2q():
    model = dv.ideal_model(2)
    design = rb.RBDesign((0, 1), (0, 1, 2), 3, 10, seed=5)
    for m, circ, bits in rb.crb_circuits(design):
        dist = circuit_probabilities(model, circ).as_dict()
        assert dist[bits] == pytest.approx(1.0, abs=1e-9)


def test_fit_decay_exact_exponential():
    depths = np.array([0, 2, 8, 32])
    means = 0.5 * 0.99**depths + 0.5
    fit = rb.fit_decay(depths, means, np.full(4, 1e-4), fix_b=0.5)
    assert fit.f == pytest.approx(0.99, abs=1e-6)
    assert fit.a == pytest.approx(0.5, abs=1e-5)


def test_fit_decay_invalid_and_nonconvergent_raise(monkeypatch):
    with pytest.raises(ValueError):
        rb.fit_decay([0, 1, 2], [np.nan, np.nan, np.nan])

    import scipy.optimize

    def boom(*a, **k):
        raise RuntimeError("no convergence")

    monkeypatch.setattr(scipy.optimize, "curve_fit", boom)
    with pytest.raises(RuntimeError, match="residuals"):
        rb.fit_decay([0, 1, 2], [1.0, 0.9, 0.8])


def test_epc_relations():
    fit = rb.fit_decay([0, 2, 8, 32], 0.5 * 0.99 ** np.array([0, 2, 8, 32]) + 0.5, fix_b=0.5)
    assert rb.epc(fit, 2, "r") == pytest.approx(0.005, abs=1e-6)
    assert rb.epc(fit, 2, "e_F") == pytest.approx(0.0075, abs=1e-6)


def test_crb_closed_loop_depolarizing():
    p = 2e-3
    model = depol_model(1, p)
    design = rb.RBDesign((0,), (0, 4, 16, 64, 256), 30, 100, seed=11)
    data, fit = rb.run_crb(model, design)
    assert abs(fit.f - (1 - p)) <= 3 * fit.f_err


def test_crb_spam_immunity():
    p = 2e-3
    model = depol_model(1, p)
    design = rb.RBDesign((0,), (0, 4, 16, 64, 256), 30, 100, seed=11)
    _, fit = rb.run_crb(model, design)
    _, fit_conf = rb.run_crb(model.with_confusion({0: [[0.95, 0.05], [0.05, 0.95]]}), design)
    assert abs(fit_conf.f - fit.f) < max(fit.f_err, fit_conf.f_err)
    assert abs(fit_conf.a - fit.a) > 0.02  # A changes materially


def test_crb_stochastic_pauli_and_twirled_coherent():
    probs = (1e-3, 5e-4, 1.5e-3)
    model = dv.noisy_model(1, lambda l, a: ch.stochastic_pauli(probs))
    f_true = (np.trace(ch.stochastic_pauli(probs).ptm) - 1) / 3
    design = rb.RBDesign((0,), (0, 8, 32, 128), 30, 100, seed=13)
    _, fit = rb.run_crb(model, design)
    assert abs(fit.f - f_true) <= 3 * fit.f_err

    twirled = ch.twirl_exact(ch.coherent("x", 0.05), "pauli")
    model2 = dv.noisy_model(1, lambda l, a: twirled)
    f_true2 = (np.trace(twirled.ptm) - 1) / 3
    _, fit2 = rb.run_crb(model2, rb.RBDesign((0,), (0, 32, 128, 512), 30, 100, seed=15))
    assert abs(fit2.f - f_true2) <= 3 * fit2.f_err


def test_chi2_flags_drifting_decay():
    # Markovian fit residuals pass; a drifting (non-exponential) decay fails
    depths = np.array([0, 4, 16, 64, 128])
    gen = rng(3)
    clean = 0.5 * 0.99**depths + 0.5 + gen.normal(scale=2e-3, size=5)
    fit = rb.fit_decay(depths, clean, np.full(5, 2e-3), fix_b=0.5)
    assert fit.chi2_pvalue > 1e-3
    drifting = 0.5 * np.exp(-((depths / 60.0) ** 2)) + 0.5
    fit2 = rb.fit_decay(depths, drifting, np.full(5, 2e-3), fix_b=0.5)
    assert fit2.chi2_pvalue < 1e-6


def _fit_with_chi2(chi2, dof):
    return rb.FitResult(0.5, 0.99, 0.5, np.zeros((2, 2)), True, 0.0, np.zeros(3), chi2, dof)


def test_chi2_pvalue_matches_scipy_stats_bit_for_bit():
    import scipy.stats

    gen = rng(41)
    for dof in range(1, 201):
        typical = gen.uniform(0, 3 * dof, size=3)
        for chi2 in (0.0, 1e-300, 1e-12, *typical, 1e4, np.inf, np.nan):
            got = _fit_with_chi2(float(chi2), dof).chi2_pvalue
            want = float(scipy.stats.chi2.sf(chi2, dof))
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (chi2, dof)
    for dof in (0, -1):
        assert np.isnan(_fit_with_chi2(1.0, dof).chi2_pvalue)


def test_simultaneous_rb_crosstalk_free():
    p = 3e-3
    model = depol_model(2, p)
    design = rb.RBDesign((0,), (0, 8, 32, 96), 20, 150, seed=17)
    res = rb.simultaneous_rb(model, [(0,), (1,)], design)
    for sub in ((0,), (1,)):
        srb = res[sub]["srb_number"]
        assert abs(srb) <= 3 * res[sub]["srb_err"]


def test_simultaneous_rb_detects_crosstalk():
    p = 2e-3
    px = 0.01

    def iso_rule(lbl, ar):
        return ch.depolarizing(p)

    def sim_rule(lbl, ar):
        return ch.depolarizing(p)

    iso_model = dv.noisy_model(2, iso_rule)
    # qubit 0 suffers extra depolarizing px only when qubit 1 is driven
    sim_model = dv.noisy_model(2, lambda l, a: ch.depolarizing(p))
    # context dependence enters through per-qubit idle: emulate by composing
    # extra noise into qubit-0 labels in the simultaneous model
    extra = ch.depolarizing(px)

    def sim_rule2(lbl, ar):
        return ch.Channel(extra.ptm @ ch.depolarizing(p).ptm)

    sim_model = dv.noisy_model(2, sim_rule2)
    design = rb.RBDesign((0,), (0, 8, 32, 96), 20, 200, seed=19)
    res = rb.simultaneous_rb(sim_model, [(0,), (1,)], design, isolated_model=iso_model)
    srb = res[(0,)]["srb_number"]
    # r_srb approx px / 2 for d = 2
    assert srb == pytest.approx(px / 2, abs=3 * res[(0,)]["srb_err"] + 1e-3)
    assert res[(0,)]["simultaneous"].f < res[(0,)]["isolated"].f


def test_interleaved_rb_identity_and_depolarizing():
    p_gate = 0.01
    p_c = 2e-3

    def nr(lbl, ar):
        return ch.depolarizing(p_gate) if lbl == "S" else ch.depolarizing(p_c)

    model = dv.noisy_model(1, nr)
    design = rb.RBDesign((0,), (0, 4, 16, 48), 25, 200, seed=21)
    res = rb.interleaved_rb(model, design, "S")
    true_ef = 1 - ch.depolarizing(p_gate).to_chi()[0, 0].real
    lo, hi = res["bounds_e_F"]
    assert lo <= true_ef <= hi
    assert res["e_F"] == pytest.approx(true_ef, abs=3 * res["stat_err_r"] * 1.5 + 1e-3)

    # error-free identity interleave: estimate consistent with zero
    model_id = dv.noisy_model(1, lambda lbl, ar: None if lbl == "I" else ch.depolarizing(p_c))
    res_id = rb.interleaved_rb(model_id, design, "I")
    assert abs(res_id["e_F"]) <= 3 * res_id["stat_err_r"] * 1.5 + 5e-4


def test_irb_negative_estimate_not_clamped():
    # a gate whose noise partially undoes the Clifford noise can make the
    # interleaved curve decay slower; the estimate must be returned as is
    res = {"f": 0.99, "f_D": 0.995}
    d = 2
    est = (d**2 - 1) / d**2 * (1 - res["f_D"] / res["f"])
    assert est < 0  # formula sanity; library path returns the same formula


def test_xrb_depolarizing_and_coherent():
    p = 0.02
    model = depol_model(1, p)
    design = rb.RBDesign((0,), (0, 2, 6, 12), 20, 300, seed=23)
    out = rb.xrb(model, design)
    sigma = max(out["u_err"], 1e-4)
    assert abs(out["u"] - (1 - p) ** 2) <= 3 * sigma
    # e_U consistent with 0 when paired with matching CRB
    _, crb_fit = rb.run_crb(model, rb.RBDesign((0,), (0, 8, 32, 96), 25, 200, seed=29))
    out2 = rb.xrb(model, design, reference_fit=crb_fit)
    assert abs(out2["e_U"]) < 3 * (sigma + crb_fit.f_err)

    model_c = dv.noisy_model(1, lambda l, a: ch.coherent("z", 0.1))
    out3 = rb.xrb(model_c, rb.RBDesign((0,), (0, 2, 6, 12), 20, 300, seed=31))
    assert abs(out3["u"] - 1.0) <= 3 * max(out3["u_err"], 1e-3)


def test_xrb_noiseless_unitarity_one():
    model = dv.ideal_model(1)
    out = rb.xrb(model, rb.RBDesign((0,), (0, 2, 4), 5, 400, seed=37))
    assert out["u"] == pytest.approx(1.0, abs=0.01)


def test_layer_sampler_disjoint_and_polarization_oracle():
    sampler = rb.LayerSampler(4, twoq_density=1.0)
    gen = rng(41)
    oneq, twoq = sampler.sample(gen)
    used = [q for _, qs in twoq for q in qs]
    assert len(used) == len(set(used))
    model = depol_model(4, 0.01)
    f = sampler.layer_polarization(model, oneq, twoq)
    assert 0 < f < 1


def test_birb_noiseless_and_closed_loop():
    n = 3
    model0 = dv.noisy_model(n, lambda l, a: None)
    sampler = rb.LayerSampler(n, twoq_density=0.5)
    design = rb.RBDesign((0,), (0, 2, 4), 8, 60, seed=43)
    out0 = rb.birb(model0, design, sampler)
    assert np.allclose(out0["data"].means(), 1.0)

    def nr(lbl, ar):
        if ar == 1:
            return ch.stochastic_pauli((2e-3, 1e-3, 3e-3))
        return ch.stochastic_pauli({"XI": 5e-3, "IZ": 4e-3, "YY": 2e-3})

    model = dv.noisy_model(n, nr)
    gen = rng(45)
    f_oracle = float(np.mean([sampler.layer_polarization(model, *sampler.sample(gen)) for _ in range(300)]))
    design2 = rb.RBDesign((0,), (0, 2, 4, 8, 16, 32), 25, 100, seed=47)
    out = rb.birb(model, design2, sampler)
    assert abs(out["f"] - f_oracle) <= max(3 * out["f_err"], 0.1 * (1 - f_oracle))


def test_birb_rejects_non_clifford():
    model = dv.noisy_model(1, lambda l, a: ch.amplitude_damping(0.1))
    sampler = rb.LayerSampler(1, twoq_density=0.0)
    design = rb.RBDesign((0,), (0, 2, 4), 3, 20, seed=49)
    with pytest.raises(ValueError):
        rb.birb(model, design, sampler)


def test_mirror_circuit_depth_and_identity():
    sampler = rb.LayerSampler(3, twoq_density=0.5)
    gen = rng(51)
    circ = rb.mirror_circuit(sampler, 8, gen)
    # alternating 1q/2q: m + 1 one-qubit layers and m two-qubit sublayers
    assert circ.depth == 17
    dist = circuit_probabilities(dv.ideal_model(3), circ).as_dict()
    assert dist["000"] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        rb.mirror_circuit(sampler, 3, gen)


def test_adjusted_success_probability_limits():
    n = 3
    assert rb.adjusted_success_probability({"000": 100}, "000", n) == pytest.approx(1.0)
    # all-qubit full depolarization: uniform h_k gives 0
    counts = {format(i, f"0{n}b"): 1 for i in range(2**n)}
    assert rb.adjusted_success_probability(counts, "000", n) == pytest.approx(0.0, abs=1e-12)


def test_mrb_closed_loop_and_vs_birb():
    n = 3

    def nr(lbl, ar):
        if ar == 1:
            return ch.stochastic_pauli((2e-3, 1e-3, 3e-3))
        return ch.stochastic_pauli({"XI": 5e-3, "IZ": 4e-3, "YY": 2e-3})

    model = dv.noisy_model(n, nr)
    sampler = rb.LayerSampler(n, twoq_density=0.5)
    design = rb.RBDesign((0,), (0, 2, 4, 8, 16, 32), 25, 100, seed=53)
    out_m = rb.mrb(model, design, sampler)
    out_b = rb.birb(model, design, sampler)
    # MRB within 10% of BiRB on the same layer set (paper: slight underestimate)
    assert out_m["f"] == pytest.approx(out_b["f"], abs=0.1 * (1 - out_b["f"]) + 3 * out_m["f_err"])


def test_xeb_noiseless_and_depolarizing():
    n = 2
    model0 = dv.ideal_model(n)
    sampler = rb.haar_su4_layer_sampler(n, seed=55)
    design = rb.RBDesign((0,), (10, 14, 20), 20, 2000, seed=57)
    out0 = rb.xeb(model0, design, sampler, min_depth=10)
    assert out0["per_depth_f_xeb"][0] == pytest.approx(1.0, abs=0.05)

    f_layer = 0.97
    model = dv.noisy_model(n, lambda l, a: ch.depolarizing(1 - f_layer, n=2) if a == 2 else None)
    sampler2 = rb.haar_su4_layer_sampler(n, seed=59)
    out = rb.xeb(model, design, sampler2, min_depth=10)
    assert abs(out["f"] - f_layer) <= 3 * max(out["f_err"], 2e-3)


def test_xeb_refuses_shallow_depths():
    design = rb.RBDesign((0,), (2, 14, 20), 5, 100, seed=61)
    with pytest.raises(ValueError):
        rb.xeb(dv.ideal_model(2), design, rb.haar_su4_layer_sampler(2, seed=1), min_depth=10)


def test_xeb_uniform_output_scores_zero():
    # F_XEB numerator vanishes for uniform samples
    n = 2
    gen = rng(63)
    ideal = np.full(4, 0.25)
    samples = gen.integers(4, size=4000)
    h_pq = 4 / len(samples) * sum(ideal[s] for s in samples) - 1
    assert h_pq == pytest.approx(0.0, abs=1e-9)


def test_speckle_purity_porter_thomas_variance():
    # noiseless deep circuits: variance of bit-string probabilities matches
    # the Porter-Thomas value
    n = 2
    model = dv.ideal_model(n)
    sampler = rb.haar_su4_layer_sampler(n, seed=65)
    design = rb.RBDesign((0,), (10, 14, 18), 200, 4000, seed=67)
    out = rb.xeb(model, design, sampler, min_depth=10)
    sp = rb.speckle_purity(out["bitstring_probs"], design.shots, 2**n)
    pt = rb.porter_thomas_variance(2**n)
    for m, var in sp["variances"].items():
        assert var == pytest.approx(pt, rel=0.10)
    assert sp["eps"] == pytest.approx(1.0, abs=0.03)


def test_external_dataset_round_trip(tmp_path):
    # hardware-style ingestion: records tagged with design metadata
    p = 5e-3
    model = depol_model(1, p)
    design = rb.RBDesign((0,), (0, 8, 32, 96), 10, 200, seed=71)
    entries = []
    from qcvv.device import sample_counts

    for i, (m, circ, bits) in enumerate(rb.crb_circuits(design)):
        rec = sample_counts(model, circ, design.shots, seed=7000 + i)
        entries.append((m, rec, bits, {"variant": "crb", "qubits": [0]}))
    path = tmp_path / "dataset.jsonl"
    rb.write_decay_dataset(path, entries)
    data = rb.load_decay_dataset(path)
    assert data.meta["variant"] == "crb"
    fit = rb.fit_decay(data.depths, data.means(), data.stderrs(), fix_b=0.5)
    assert abs(fit.f - (1 - p)) < 6 * fit.f_err


def _xrb_values_per_circuit(model, design):
    """XRB's per-depth gamma values, each setting's circuit sampled by its
    own ``sample_counts`` call as its seed is drawn."""
    n, gen = len(design.qubits), rng(design.seed)
    values = {m: [] for m in design.depths}
    for m in design.depths:
        for _ in range(design.circuits_per_depth):
            _, layers = rb._clifford_sequence(gen, n, m)
            per_pauli = {}
            for setting in rb._all_settings(n):
                circ = dv.Circuit(n, tuple(layers) + (readout_layer(PauliString.from_label(setting)),))
                rec = dv.sample_counts(model, circ, design.shots, int(gen.integers(2**62)))
                for pidx in range(1, 4**n):
                    p = PauliString.from_index(pidx, n)
                    if rb._setting_covers(setting, p):
                        per_pauli.setdefault(pidx, []).append(dv.parity_from_counts(rec, p))
            gamma = 0.0
            for means in per_pauli.values():
                nshots = design.shots * len(means)
                gamma += (nshots * float(np.mean(means)) ** 2 - 1) / (nshots - 1)
            values[m].append(gamma / (2**n - 1) * 1.0)
    return values


def _xeb_per_circuit(model, design, layer_sample):
    """XEB's per-depth F_XEB and empirical distributions, each circuit
    sampled by its own ``sample_counts`` call as its seed is drawn."""
    n, gen, d = model.n, rng(design.seed), 2**model.n
    per_depth, probs = [], {}
    for m in design.depths:
        xs, ys = [], []
        for _ in range(design.circuits_per_depth):
            layers, defs = [], {}
            for _ in range(m):
                layer, dd = layer_sample()
                layers.append(layer)
                defs.update(dd)
            circ = dv.Circuit(n, tuple(layers), defs)
            ideal = dv.ideal_probabilities(circ, model)
            rec = dv.sample_counts(model, circ, design.shots, int(gen.integers(2**62)))
            pmap = ideal.as_dict()
            ys.append(d / design.shots * sum(pmap[b] * c for b, c in rec.counts.items()) - 1)
            xs.append(d * float(np.sum(ideal.probs**2)) - 1)
            emp = np.zeros(d)
            for b, c in rec.counts.items():
                emp[int(b, 2)] = c / design.shots
            probs.setdefault(m, []).append(emp)
        xs, ys = np.asarray(xs), np.asarray(ys)
        per_depth.append(float(xs @ ys / (xs @ xs)))
    return per_depth, probs


def test_xrb_and_xeb_ensembles_equal_per_circuit_samples():
    """XRB and XEB sample each depth's circuits as one dense ensemble; their
    values are, to the bit, those of one ``sample_counts`` call per circuit,
    each seed drawn as its circuit is built."""
    model = depol_model(2, 0.02)
    xrb_design = rb.RBDesign((0, 1), (0, 2, 4), 3, 50, seed=71)
    assert rb.xrb(model, xrb_design)["data"].values == _xrb_values_per_circuit(model, xrb_design)
    xeb_design = rb.RBDesign((0,), (1, 2, 3), 4, 200, seed=73)
    out = rb.xeb(model, xeb_design, rb.haar_su4_layer_sampler(2, seed=75))
    per_depth, probs = _xeb_per_circuit(model, xeb_design, rb.haar_su4_layer_sampler(2, seed=75))
    assert out["per_depth_f_xeb"] == per_depth
    for m in xeb_design.depths:
        assert all(np.array_equal(a, b) for a, b in zip(out["bitstring_probs"][m], probs[m], strict=True))
