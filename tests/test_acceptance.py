"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from qcvv import channels as ch
from qcvv import cycles as cy
from qcvv import device as dv
from qcvv import fidelity as fd
from qcvv import metrics as mt
from qcvv import rb
from qcvv import timedomain as td
from qcvv import tomography as tg
from qcvv import volumetrics as vm
from qcvv.channels import Channel, pauli_channel_from_dist
from qcvv.cliffords import gate_tableau
from qcvv.device import Circuit, circuit_probabilities, sample_counts, sample_counts_drifting
from qcvv.linalg import haar_random_state, ket, pauli_label, pauli_matrices, projector, rng
from qcvv.paulis import PauliString


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_mixed(gen, d):
    return sum(w * projector(haar_random_state(d, gen)) for w in (0.5, 0.3, 0.2))


def test_criterion_01_representation_consistency():
    t0 = time.time()
    gen = rng(101)
    worst_action = 0.0
    worst_duality = 0.0
    cases = [(2, s) for s in range(100)] + [(4, 100 + s) for s in range(20)]
    for d, seed in cases:
        c = ch.random_cptp(d, seed=seed)
        rebuilt = [
            Channel.from_kraus(c.to_kraus()),
            Channel.from_transfer(c.to_transfer()),
            Channel.from_chi(c.to_chi()),
            Channel.from_choi(c.to_choi()),
        ]
        basis = pauli_matrices(d.bit_length() - 1)
        states = [(p0 + np.eye(d) * (1.1 if i else 1.0)) / np.trace(p0 + np.eye(d) * (1.1 if i else 1.0)) for i, p0 in enumerate(basis)]
        for rho in states:
            base = c.apply(rho)
            for r in rebuilt:
                worst_action = max(worst_action, float(np.abs(r.apply(rho) - base).max()))
        worst_duality = max(
            worst_duality, float(np.abs(ch.choi_chi_overlap(c.to_choi()) - c.to_chi()).max())
        )
    elapsed = time.time() - t0
    ok = worst_action < 1e-10 and worst_duality < 1e-10 and elapsed < 10
    report(1, ok, f"action dev {worst_action:.2e}, Choi-chi dev {worst_duality:.2e}, {elapsed:.1f}s")


def test_criterion_02_metric_relations():
    worst_bij = 0.0
    for d in (2, 4, 8):
        for src in mt._METRICS:
            for dst in mt._METRICS:
                v = 0.3173
                back = mt.convert_metric(mt.convert_metric(v, src, dst, d), dst, src, d)
                worst_bij = max(worst_bij, abs(back - v))
    gen = rng(202)
    violations = 0
    for _ in range(200):
        rho = random_mixed(gen, 4)
        sig = random_mixed(gen, 4)
        eps = 1 - mt.state_fidelity(rho, sig)
        dtr = mt.trace_distance(rho, sig)
        if dtr > np.sqrt(eps) + 1e-9 or dtr < 1 - np.sqrt(1 - eps) - 1e-9:
            violations += 1
    ok = worst_bij < 1e-12 and violations == 0
    report(2, ok, f"bijection dev {worst_bij:.2e}, FvdG violations {violations}/200")


def test_criterion_03_twirl_correctness():
    gen = rng(303)
    ok = True
    details = []
    for d, group in ((2, "clifford-1q"), (4, "clifford-2q")):
        c = ch.random_cptp(d, seed=17 + d)
        tp = ch.twirl_exact(c, "pauli")
        off = tp.ptm - np.diag(np.diag(tp.ptm))
        ok &= np.abs(off).max() == 0.0
        tc = ch.twirl_exact(c, group)
        f = (np.trace(c.ptm) - 1) / (d**2 - 1)
        diag = np.full(d**2, f)
        diag[0] = 1
        ok &= np.abs(tc.ptm - np.diag(diag)).max() < 1e-10
        ok &= abs(np.trace(tp.ptm) - np.trace(c.ptm)) < 1e-12
        ok &= abs(np.trace(tc.ptm) - np.trace(c.ptm)) < 1e-12
    # sampled twirl off-diagonal norm ~ N**-0.5
    c = ch.random_cptp(2, seed=23)
    ns = [16, 64, 256, 1024, 4096]
    norms = []
    for n_s in ns:
        trials = []
        for t in range(6):
            ts = ch.twirl_sampled(c, "pauli", n_s, seed=1000 * t + n_s)
            off = ts.ptm - np.diag(np.diag(ts.ptm))
            trials.append(np.linalg.norm(off))
        norms.append(np.mean(trials))
    slope = np.polyfit(np.log(ns), np.log(norms), 1)[0]
    ok &= abs(slope + 0.5) < 0.1
    report(3, ok, f"sampled-twirl scaling exponent {slope:.3f}")


def test_criterion_04_rb_closed_loop():
    t0 = time.time()
    p = 2e-3
    design = rb.RBDesign((0,), (0, 4, 16, 64, 256), 30, 100, seed=404)
    oks = []
    details = []
    noises = {
        "depolarizing": (ch.depolarizing(p), 1 - p),
        "stochastic-pauli": (
            ch.stochastic_pauli((5e-4, 5e-4, 5e-4)),
            (np.trace(ch.stochastic_pauli((5e-4, 5e-4, 5e-4)).ptm) - 1) / 3,
        ),
        "twirled-coherent": (
            ch.twirl_exact(ch.coherent("x", 0.05), "pauli"),
            (np.trace(ch.twirl_exact(ch.coherent("x", 0.05), "pauli").ptm) - 1) / 3,
        ),
    }
    for name, (noise, f_true) in noises.items():
        model = dv.noisy_model(1, lambda l, a, noise=noise: noise)
        _, fit = rb.run_crb(model, design)
        oks.append(abs(fit.f - f_true) <= 3 * fit.f_err)
        details.append(f"{name}: f {fit.f:.5f} vs {f_true:.5f} (3sig {3 * fit.f_err:.5f})")
    model = dv.noisy_model(1, lambda l, a: ch.depolarizing(p))
    _, fit0 = rb.run_crb(model, design)
    _, fitc = rb.run_crb(model.with_confusion({0: [[0.95, 0.05], [0.05, 0.95]]}), design)
    spam_ok = abs(fitc.f - fit0.f) < max(fit0.f_err, fitc.f_err)
    elapsed = time.time() - t0
    ok = all(oks) and spam_ok and elapsed < 60
    report(4, ok, "; ".join(details) + f"; SPAM shift {abs(fitc.f - fit0.f):.2e}; {elapsed:.1f}s")


def test_criterion_05_irb_bounds():
    gen = rng(505)
    design = rb.RBDesign((0,), (0, 4, 16, 48), 25, 200, seed=505)
    contained_stoch = 0
    contained_coh = 0
    for trial in range(20):
        pc = float(gen.uniform(5e-4, 4e-3))
        pg = tuple(gen.uniform(5e-4, 5e-3, size=3))
        gate_noise = ch.stochastic_pauli(pg)
        true_ef = 1 - gate_noise.to_chi()[0, 0].real

        def nr(lbl, ar, g=gate_noise, pc=pc):
            return g if lbl == "S" else ch.depolarizing(pc)

        model = dv.noisy_model(1, nr)
        res = rb.interleaved_rb(
            model, rb.RBDesign((0,), (0, 4, 16, 48), 25, 200, seed=505 + trial), "S"
        )
        lo, hi = res["bounds_e_F"]
        contained_stoch += int(lo <= true_ef <= hi)

        theta = float(gen.uniform(0.01, 0.05))
        gate_noise_c = Channel(ch.coherent("z", theta).ptm @ gate_noise.ptm)
        true_ef_c = 1 - gate_noise_c.to_chi()[0, 0].real

        def nrc(lbl, ar, g=gate_noise_c, pc=pc, theta=theta):
            if lbl == "S":
                return g
            return Channel(ch.coherent("z", theta / 3).ptm @ ch.depolarizing(pc).ptm)

        model_c = dv.noisy_model(1, nrc)
        res_c = rb.interleaved_rb(
            model_c, rb.RBDesign((0,), (0, 4, 16, 48), 25, 200, seed=9505 + trial), "S"
        )
        lo, hi = res_c["bounds_e_F"]
        contained_coh += int(lo <= true_ef_c <= hi)
    ok = contained_stoch == 20 and contained_coh == 20
    report(5, ok, f"containment stochastic {contained_stoch}/20, coherent {contained_coh}/20")


def test_criterion_06_xrb():
    p = 0.02
    design = rb.RBDesign((0,), (0, 2, 6, 12), 20, 300, seed=606)
    model = dv.noisy_model(1, lambda l, a: ch.depolarizing(p))
    out = rb.xrb(model, design)
    sig = max(out["u_err"], 1e-4)
    ok_u = abs(out["u"] - (1 - p) ** 2) <= 3 * sig
    _, crb_fit = rb.run_crb(model, rb.RBDesign((0,), (0, 8, 32, 96), 25, 200, seed=607))
    out_ref = rb.xrb(model, design, reference_fit=crb_fit)
    ok_eu = abs(out_ref["e_U"]) <= 3 * (sig + crb_fit.f_err)
    model_c = dv.noisy_model(1, lambda l, a: ch.coherent("z", 0.1))
    out_c = rb.xrb(model_c, rb.RBDesign((0,), (0, 2, 6, 12), 20, 300, seed=608))
    ok_c = abs(out_c["u"] - 1.0) <= 3 * max(out_c["u_err"], 1e-3)
    ok = ok_u and ok_eu and ok_c
    report(
        6,
        ok,
        f"u {out['u']:.4f} vs {(1 - p) ** 2:.4f}; e_U {out_ref['e_U']:.2e}; coherent u {out_c['u']:.4f}",
    )


def test_criterion_07_cb_cer_learnability():
    probs = {"XI": 0.004, "IZ": 0.003, "YY": 0.002, "ZX": 0.001}
    noise = ch.stochastic_pauli(probs)
    lam = np.diag(noise.ptm)
    ident = Channel(noise.ptm)
    ident.unitary = np.eye(4, dtype=complex)
    model = dv.GateSetModel(2, gates={"CYC": (ident, 2)})
    paulis = [pauli_label(i, 2) for i in range(1, 16)]
    ds = cy.cycle_benchmark(model, (("CYC", (0, 1)),), paulis, (2, 6, 12), 8, 400, seed=707)
    ok_id = all(
        abs(ds.decays[pauli_label(i, 2)].f - lam[i]) <= 3 * max(ds.decays[pauli_label(i, 2)].f_err, 1e-4)
        for i in range(1, 16)
    )
    czn = Channel(noise.ptm @ Channel.from_unitary(dv.GATE_UNITARIES["CZ"]).ptm)
    czn.unitary = dv.GATE_UNITARIES["CZ"]
    model_cz = dv.GateSetModel(2, gates={"CZD": (czn, 2)})
    ds_cz = cy.cycle_benchmark(model_cz, (("CZD", (0, 1)),), paulis, (2, 6, 12), 8, 400, seed=708)
    tab_cz = gate_tableau("CZ")
    ok_cz = all(
        abs(ds_cz.decays[lab].f - cy.cb_decay_oracle(lam, tab_cz, PauliString.from_label(lab)))
        <= 3 * max(ds_cz.decays[lab].f_err, 1e-4)
        for lab in paulis
    )
    # CER: 1% local Z on qubit 4 of a 5-qubit identity cycle
    n5 = 5
    noise5 = ch.stochastic_pauli({"IIIIZ": 0.01})
    c5 = Channel(noise5.ptm)
    c5.unitary = np.eye(2**5, dtype=complex)
    model5 = dv.GateSetModel(n5, gates={"CY5": (c5, 5)})
    need = sorted(
        PauliString.from_index(i, 1).embed(n5, (4,)).label for i in range(1, 4)
    )
    ds5 = cy.cycle_benchmark(model5, (("CY5", tuple(range(5))),), need, (2, 4, 8), 6, 500, seed=709)
    from qcvv.cliffords import CliffordTableau

    rates = cy.cer(ds5, n5, CliffordTableau.identity(n5), [(4,)])
    z4 = next(r for r in rates if r.pauli == "Z")
    ok_cer = abs(z4.rate - 0.01) <= 0.2 * 0.01
    rep = cy.learnability(gate_tableau("CNOT"))
    ok_learn = (
        rep.learnable["ZI"]
        and rep.learnable["YY"]
        and not rep.learnable["XI"]
        and rep.product_learnable(["XI", "XX"])
    )
    ok = ok_id and ok_cz and ok_cer and ok_learn
    report(
        7,
        ok,
        f"identity-cycle 3sig {ok_id}, CZ product-oracle {ok_cz}, CER Z4 {z4.rate:.4f} vs 0.01, CNOT verdicts {ok_learn}",
    )


def test_criterion_08_aces():
    gen = rng(808)

    def rand_pauli_channel(k, scale):
        raw = gen.random(4**k - 1) * scale
        return pauli_channel_from_dist(np.concatenate([[1 - raw.sum()], raw]))

    noise_map = {
        ("CNOT", (0, 1)): rand_pauli_channel(2, 0.004),
        ("CNOT", (1, 2)): rand_pauli_channel(2, 0.004),
        ("X90", (0,)): rand_pauli_channel(1, 0.002),
        ("X90", (1,)): rand_pauli_channel(1, 0.002),
        ("X90", (2,)): rand_pauli_channel(1, 0.002),
    }
    gates = {}
    for (lbl, qs), noise in noise_map.items():
        u = dv.GATE_UNITARIES[lbl]
        c = Channel(noise.ptm @ Channel.from_unitary(u).ptm)
        c.unitary = u
        gates[f"{lbl}@{','.join(map(str, qs))}"] = (c, len(qs))
    model = dv.GateSetModel(3, gates=gates)
    layers = [
        (("CNOT@0,1", (0, 1)),),
        (("CNOT@1,2", (1, 2)),),
        (("X90@0", (0,)), ("X90@1", (1,)), ("X90@2", (2,))),
    ]
    res = cy.aces(model, layers, n_circuits=20, depth=3, paulis_per_circuit=6, shots=800, seed=808)
    ok_rank = res.design_rank == len(res.parameters)  # gauge dimension 0 with known-ideal SPAM
    from qcvv.linalg import pauli_index

    worst = 0.0
    ok_vals = True
    for lbl, qs, plab in res.parameters:
        truth = np.diag(noise_map[(lbl.split("@")[0], qs)].ptm)[pauli_index(plab)]
        pull = abs(res.eigenvalue(lbl, qs, plab) - truth) / max(res.stderr(lbl, qs, plab), 1e-5)
        worst = max(worst, pull)
        ok_vals &= pull <= 3
    # with unknown SPAM the rank drops by exactly the pattern-graph gauge dim
    noise_cn = ch.stochastic_pauli({"XI": 0.006, "IZ": 0.004})
    cnd = Channel(noise_cn.ptm @ Channel.from_unitary(dv.GATE_UNITARIES["CNOT"]).ptm)
    cnd.unitary = dv.GATE_UNITARIES["CNOT"]
    model2 = dv.GateSetModel(2, gates={"CND": (cnd, 2)})
    res2 = cy.aces(
        model2,
        [(("CND", (0, 1)),)],
        n_circuits=30,
        depth=2,
        paulis_per_circuit=8,
        shots=400,
        seed=809,
        assume_ideal_spam=False,
    )
    gauge = cy.learnability(gate_tableau("CNOT")).graph.gauge_dim()
    ok_gauge = len(res2.parameters) - res2.design_rank == gauge
    ok = ok_rank and ok_vals and ok_gauge
    report(8, ok, f"full rank {ok_rank}, worst pull {worst:.2f}, SPAM-run deficiency == {gauge}: {ok_gauge}")


def test_criterion_09_scalable_rb():
    n = 20

    def noise_rule(lbl, ar):
        if ar == 1:
            return ch.stochastic_pauli((4e-4, 3e-4, 5e-4))
        return ch.stochastic_pauli({"XI": 2e-3, "IZ": 1.5e-3, "YY": 1e-3})

    model = dv.noisy_model(n, noise_rule)
    sampler = rb.LayerSampler(n, twoq_density=0.5)
    gen = rng(909)
    f_oracle = float(
        np.mean([sampler.layer_polarization(model, *sampler.sample(gen)) for _ in range(300)])
    )
    design = rb.RBDesign((0,), (0, 2, 4, 8, 16, 32), 30, 100, seed=909)
    t0 = time.time()
    out_b = rb.birb(model, design, sampler)
    t_birb = time.time() - t0
    t0 = time.time()
    out_m = rb.mrb(model, design, sampler)
    t_mrb = time.time() - t0
    rel_b = abs(out_b["f"] - f_oracle) / (1 - f_oracle)
    rel_m = abs(out_m["f"] - f_oracle) / (1 - f_oracle)
    ok = t_birb < 60 and t_mrb < 60 and rel_b <= 0.10 and rel_m <= 0.10
    report(
        9,
        ok,
        f"BiRB f {out_b['f']:.5f} ({t_birb:.1f}s, rel {rel_b:.3f}), "
        f"MRB f {out_m['f']:.5f} ({t_mrb:.1f}s, rel {rel_m:.3f}), oracle {f_oracle:.5f}",
    )


def test_criterion_10_xeb_speckle():
    n = 4
    d = 2**n
    model0 = dv.ideal_model(n)
    sampler = rb.haar_su4_layer_sampler(n, seed=1010)
    design = rb.RBDesign((0,), (10, 12, 14), 40, 3000, seed=1010)
    out0 = rb.xeb(model0, design, sampler, min_depth=10)
    ok_f = all(abs(fx - 1.0) <= 0.05 for fx in out0["per_depth_f_xeb"])
    # bit-string probability variance vs Porter-Thomas from the ideal probs
    gen = rng(1011)
    cells = []
    sampler_v = rb.haar_su4_layer_sampler(n, seed=1012)
    for _ in range(150):
        layers = []
        defs = {}
        for _i in range(10):
            layer, dd = sampler_v()
            layers.append(layer)
            defs.update(dd)
        circ = Circuit(n, tuple(layers), defs)
        cells.append(dv.ideal_probabilities(circ).probs)
    var = float(np.concatenate(cells).var(ddof=1))
    pt = rb.porter_thomas_variance(d)
    ok_pt = abs(var - pt) <= 0.10 * pt
    # global depolarizing recovery (n = 2 keeps the dense run light)
    f_layer = 0.97
    model = dv.noisy_model(2, lambda l, a: ch.depolarizing(1 - f_layer, n=2) if a == 2 else None)
    out = rb.xeb(model, rb.RBDesign((0,), (10, 14, 20), 25, 2000, seed=1013), rb.haar_su4_layer_sampler(2, seed=1014), min_depth=10)
    ok_dep = abs(out["f"] - f_layer) <= 3 * max(out["f_err"], 2e-3)
    ok = ok_f and ok_pt and ok_dep
    report(
        10,
        ok,
        f"noiseless F_XEB {out0['per_depth_f_xeb']}, PT var {var:.3e} vs {pt:.3e}, depol f {out['f']:.4f}",
    )


def test_criterion_11_quantum_volume():
    hbars = []
    all_pass = True
    for w in range(2, 6):
        res = vm.qv_test(dv.ideal_model(w), w, k_circuits=120, shots=300, seed=1100 + w)
        hbars.append(res.hbar)
        all_pass &= res.passed
    agg = float(np.mean(hbars))
    ok_noiseless = all_pass and 0.80 <= agg <= 0.90
    model_dep = dv.noisy_model(2, lambda l, a: ch.depolarizing(1.0, n=a))
    res_dep = vm.qv_test(model_dep, 2, k_circuits=150, shots=400, seed=1107)
    ok_dep = (not res_dep.passed) and abs(res_dep.hbar - 0.5) <= 0.01
    ok = ok_noiseless and ok_dep
    report(
        11,
        ok,
        f"noiseless W=2..5 hbar {['%.3f' % h for h in hbars]} (mean {agg:.3f}), depolarized hbar {res_dep.hbar:.3f}",
    )


def test_criterion_12_tomography():
    # QST MLE 1-norm error ~ shots**-1/2
    model = dv.ideal_model(1)
    circ = Circuit(1, ((("X90", (0,)),),))
    truth = dv.GATE_UNITARIES["X90"] @ projector(ket("0")) @ dv.GATE_UNITARIES["X90"].conj().T
    shots_list = [200, 2000, 20000, 200000]
    errs = []
    for i, shots in enumerate(shots_list):
        trial = []
        for t in range(6):
            ds = tg.qst_dataset(model, circ, shots=shots, seed=1200 + 31 * i + t)
            rho = tg.qst(ds, 1, method="mle")
            trial.append(2 * mt.trace_distance(rho, truth))
        errs.append(np.mean(trial))
    slope = np.polyfit(np.log(shots_list), np.log(errs), 1)[0]
    ok_scaling = abs(slope + 0.5) <= 0.1
    # LGST + gauge optimization: 1 degree Z over-rotation on X90
    theta = np.pi / 180
    model_rot = dv.noisy_model(1, lambda l, a: ch.coherent("z", theta) if l == "X90" else None)
    res = tg.run_lgst(model_rot, ["X90", "Y90"], exact=True)
    targets = {l: Channel.from_unitary(dv.GATE_UNITARIES[l]).ptm for l in ("X90", "Y90")}
    _, fixed, _ = tg.gauge_optimize(res, targets, 1)
    hz = ch.error_generator(Channel(fixed["X90"] @ np.linalg.inv(targets["X90"]))).rate("H", 3)
    ok_hz = abs(hz - theta / 2) <= 0.10 * (theta / 2)
    # model violation
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
            obs.append(sample_counts(mtrue, c, 2000, 12000 + 17 * trial + i).counts)
        nsig.append(tg.model_violation(preds, obs))
    ok_wilks = min(nsig) >= -3 and max(nsig) <= 3

    def model_at(t):
        return dv.noisy_model(1, lambda l, a: ch.depolarizing(0.02 + 0.25 * t))

    preds, obs = [], []
    for i, c in enumerate(circs):
        preds.append(circuit_probabilities(mtrue, c).as_dict())
        obs.append(sample_counts_drifting(model_at, c, 4000, 1255 + i).counts)
    n_drift = tg.model_violation(preds, obs)
    ok_drift = n_drift > 10
    ok = ok_scaling and ok_hz and ok_wilks and ok_drift
    report(
        12,
        ok,
        f"QST slope {slope:.3f}, h_Z {hz:.5f} vs {theta / 2:.5f}, "
        f"N_sigma in [{min(nsig):.2f}, {max(nsig):.2f}], drift N_sigma {n_drift:.0f}",
    )


def _pauli_noise_model(n):
    def nr(lbl, ar):
        return (
            ch.stochastic_pauli((0.003, 0.002, 0.004))
            if ar == 1
            else ch.stochastic_pauli({"XZ": 0.01, "ZI": 0.008})
        )

    return dv.noisy_model(n, nr)


def test_criterion_13_mcfe_accreditation_dfe():
    n = 3
    model = _pauli_noise_model(n)
    sampler = rb.LayerSampler(n, twoq_density=0.6, twoq_gate="CZ")
    g = rng(1313)
    target = []
    for _ in range(3):
        oneq, twoq = sampler.sample(g)
        target.append(oneq)
        target.append(twoq)
    target.append(tuple((rb.clifford_label(1, int(g.integers(24))), (q,)) for q in range(n)))
    f_oracle = fd.circuit_polarization_oracle(model, target)
    res = fd.mcfe(model, target, k_ensemble=40, shots=300, seed=1314)
    ok_mcfe = abs(res.f - f_oracle) <= 0.10 * f_oracle
    # SPAM robustness: the confusion-induced *bias* stays below one standard
    # error (individual draws fluctuate, so the shift is averaged over seeds)
    conf = {q: [[0.95, 0.05], [0.05, 0.95]] for q in range(n)}
    model_conf = model.with_confusion(conf)
    shifts = []
    for s in (1314, 2314, 3314):
        a = fd.mcfe(model, target, k_ensemble=40, shots=300, seed=s)
        b = fd.mcfe(model_conf, target, k_ensemble=40, shots=300, seed=s)
        shifts.append(b.f - a.f)
    ok_spam = abs(float(np.mean(shifts))) < res.stderr
    # accreditation containment over 100 trials
    fe_true = mt.convert_metric(f_oracle, "f", "F_e", 2**n)
    contained = 0
    for trial in range(100):
        acc = fd.accredit(model, target, theta=0.15, alpha=0.95, seed=20000 + trial)
        if acc.f_lower - acc.theta <= fe_true <= acc.f_upper + acc.theta:
            contained += 1
    ok_acc = contained >= 95
    # DFE on a 3-qubit GHZ under depolarizing noise

    def nr_dep(lbl, ar):
        return ch.depolarizing(0.004) if ar == 1 else ch.depolarizing(0.015, n=2)

    model_dep = dv.noisy_model(n, nr_dep)
    circ = fd.ghz_circuit(n)
    from qcvv.device import _dense_state
    from qcvv.linalg import Superket, unvectorize

    state = _dense_state(model_dep, circ)
    rho = unvectorize(Superket(2**n, state.reshape(-1), "normalized-pauli"))
    f_true = mt.state_fidelity(rho, projector((ket("000") + ket("111")) / np.sqrt(2)))
    dres = fd.dfe(model_dep, circ, fd.ghz_stabilizers(n), epsilon=0.05, delta=0.1, seed=1315)
    ok_dfe = abs(dres.estimate - f_true) <= 0.05
    ok = ok_mcfe and ok_spam and ok_acc and ok_dfe
    report(
        13,
        ok,
        f"MCFE f {res.f:.4f} vs oracle {f_oracle:.4f}, mean SPAM shift {np.mean(shifts):.4f}, "
        f"accreditation containment {contained}/100, DFE dev {abs(dres.estimate - f_true):.4f}",
    )


def test_criterion_14_rpe():
    rms, _ = td.rpe_trials(0.8, 64, 100, n_trials=200, seed=1414, delta_fn=lambda k, w: 0.25)
    ok_rms = rms <= np.pi / 128
    kms = [4, 16, 64, 256]
    rmss = []
    for km in kms:
        r, _ = td.rpe_trials(0.8, km, 200, n_trials=40, seed=1415)
        rmss.append(r)
    slope = np.polyfit(np.log(kms), np.log(rmss), 1)[0]
    ok_slope = abs(slope + 1.0) <= 0.15
    ok = ok_rms and ok_slope
    report(14, ok, f"RMS {rms:.5f} <= {np.pi / 128:.5f}, scaling slope {slope:.3f}")


def test_criterion_15_cli_determinism(tmp_path):
    from qcvv.cli import main

    configs = {
        "model": {"model": {"n": 1}},
        "simulate": {
            "model": {"n": 2},
            "circuit": {"width": 2, "layers": [[["H", [0]]], [["CNOT", [0, 1]]]]},
            "shots": 200,
            "seed": 5,
        },
        "rb": {
            "model": {"n": 1, "noise": [{"match": "1q", "channel": {"kind": "depolarizing", "p": 0.002}}]},
            "design": {"qubits": [0], "depths": [0, 2, 8], "circuits_per_depth": 4, "shots": 50},
            "seed": 5,
        },
        "irb": {
            "model": {"n": 1, "noise": [{"match": "1q", "channel": {"kind": "depolarizing", "p": 0.002}}]},
            "design": {"qubits": [0], "depths": [0, 2, 8], "circuits_per_depth": 4, "shots": 50},
            "gate": "S",
            "seed": 5,
        },
        "xrb": {
            "model": {"n": 1, "noise": [{"match": "1q", "channel": {"kind": "depolarizing", "p": 0.02}}]},
            "design": {"qubits": [0], "depths": [0, 2, 4], "circuits_per_depth": 4, "shots": 80},
            "seed": 5,
        },
        "birb": {
            "model": {"n": 3, "noise": [{"match": "1q", "channel": {"kind": "depolarizing", "p": 0.01}}]},
            "design": {"qubits": [0], "depths": [0, 2, 4], "circuits_per_depth": 4, "shots": 50},
            "seed": 5,
        },
        "mrb": {
            "model": {"n": 3, "noise": [{"match": "1q", "channel": {"kind": "depolarizing", "p": 0.01}}]},
            "design": {"qubits": [0], "depths": [0, 2, 4], "circuits_per_depth": 4, "shots": 50},
            "seed": 5,
        },
        "xeb": {
            "model": {"n": 2},
            "design": {"qubits": [0], "depths": [10, 12, 14], "circuits_per_depth": 4, "shots": 200},
            "min_depth": 10,
            "seed": 5,
        },
        "cb": {
            "model": {"n": 2, "noise": [{"match": "CZ", "channel": {"kind": "stochastic_pauli", "probs": {"IZ": 0.01}}}]},
            "cycle": [["CZ", [0, 1]]],
            "paulis": ["IZ", "ZI", "XX"],
            "design": {"depths": [2, 4, 8], "circuits_per_depth": 3, "shots": 100},
            "seed": 5,
        },
        "cer": {
            "model": {"n": 2, "noise": [{"match": "CZ", "channel": {"kind": "stochastic_pauli", "probs": {"IZ": 0.01}}}]},
            "cycle": [["CZ", [0, 1]]],
            "bodies": [[1]],
            "design": {"depths": [2, 4, 8], "circuits_per_depth": 3, "shots": 100},
            "seed": 5,
        },
        "aces": {
            "model": {"n": 2, "noise": [{"match": "CNOT", "channel": {"kind": "stochastic_pauli", "probs": {"XI": 0.01}}}]},
            "gate_layers": [[["CNOT", [0, 1]]]],
            "n_circuits": 4,
            "depth": 2,
            "paulis_per_circuit": 3,
            "shots": 100,
            "seed": 5,
        },
        "tomo": {
            "model": {"n": 1},
            "kind": "state",
            "circuit": {"width": 1, "layers": [[["X90", [0]]]]},
            "shots": 400,
            "seed": 5,
        },
        "lgst": {"model": {"n": 1}, "gates": ["X90", "Y90"], "seed": 5},
        "dfe": {
            "model": {"n": 2},
            "circuit": {"width": 2, "layers": [[["H", [0]]], [["CNOT", [0, 1]]]]},
            "stabilizers": ["XX", "ZZ"],
            "epsilon": 0.15,
            "delta": 0.2,
            "seed": 5,
        },
        "mcfe": {
            "model": {"n": 2, "noise": [{"match": "1q", "channel": {"kind": "depolarizing", "p": 0.005}}]},
            "target_layers": [[["c1_3", [0]], ["c1_7", [1]]], [["CZ", [0, 1]]], [["c1_2", [0]], ["c1_11", [1]]]],
            "k_ensemble": 4,
            "shots": 60,
            "seed": 5,
        },
        "accredit": {
            "model": {"n": 2, "noise": [{"match": "1q", "channel": {"kind": "depolarizing", "p": 0.005}}]},
            "target_layers": [[["c1_3", [0]], ["c1_7", [1]]], [["CZ", [0, 1]]], [["c1_2", [0]], ["c1_11", [1]]]],
            "theta": 0.3,
            "alpha": 0.9,
            "seed": 5,
        },
        "qv": {"model": {"n": 2}, "width": 2, "circuits": 10, "shots": 100, "seed": 5},
        "volumetric": {
            "model": {"n": 2, "noise": [{"match": "1q", "channel": {"kind": "depolarizing", "p": 0.01}}]},
            "family": "randomized-mirror",
            "widths": [2],
            "depths": [2, 4],
            "circuits_per_cell": 3,
            "shots": 60,
            "seed": 5,
        },
        "timedomain": {
            "kind": "t1",
            "times": list(np.linspace(1, 200, 25)),
            "params": {"t1": 60.0},
            "shots": 200,
            "seed": 5,
        },
    }
    failures = []
    for command, cfg in configs.items():
        outputs = []
        for rep in range(2):
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"{command}_out{rep}"
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
            if code != 0:
                failures.append(f"{command}: exit {code}")
                break
            blobs = {}
            for f in sorted(out.iterdir()):
                if f.name.endswith(".meta.json"):
                    continue  # timestamps live here by design
                blobs[f.name] = f.read_bytes()
            outputs.append(blobs)
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            failures.append(f"{command}: outputs differ between runs")
    # the report subcommand consumes previous outputs
    rep_in = tmp_path / "model_out0" / "model.json"
    cfg_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps({"inputs": [str(rep_in)]}))
    pair = []
    for rep in range(2):
        out = tmp_path / f"report_out{rep}"
        assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
        pair.append((out / "report.json").read_bytes())
    if pair[0] != pair[1]:
        failures.append("report: outputs differ")
    ok = not failures
    report(15, ok, "byte-identical across all pipelines" if ok else "; ".join(failures))
