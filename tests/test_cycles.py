import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvv import channels as ch
from qcvv import cycles as cy
from qcvv import device as dv
from qcvv.channels import pauli_channel_from_dist
from qcvv.cliffords import CliffordTableau, eigenstate_layer, gate_tableau, readout_layer, readout_pauli
from qcvv.linalg import pauli_label, rng
from qcvv.paulis import PauliString, all_paulis

from clifford_reference import layer_tableau


def identity_cycle_model(n, noise):
    c = ch.Channel(noise.ptm)
    c.unitary = np.eye(2**n, dtype=complex)
    return dv.GateSetModel(n, gates={"CYC": (c, n)}), (("CYC", tuple(range(n))),)


def test_walsh_hadamard_values_and_involution():
    lam = cy.walsh_hadamard([1, 0, 0, 0], "rates-to-eigenvalues")
    assert np.allclose(lam, [1, 1, 1, 1])
    lam2 = cy.walsh_hadamard([0.99, 0.01, 0, 0], "rates-to-eigenvalues")
    assert np.allclose(lam2, [1, 1, 0.98, 0.98])
    gen = rng(3)
    p = gen.dirichlet(np.ones(16))
    round_trip = cy.walsh_hadamard(cy.walsh_hadamard(p, "rates-to-eigenvalues"), "eigenvalues-to-rates")
    assert np.abs(round_trip - p).max() < 1e-12
    with pytest.raises(ValueError):
        cy.walsh_hadamard([1, 0, 0], "rates-to-eigenvalues")


def test_walsh_hadamard_matches_direct_sum():
    # direct commutator-sign oracle at n = 2
    gen = rng(5)
    p = gen.dirichlet(np.ones(16))
    lam = cy.walsh_hadamard(p, "rates-to-eigenvalues")
    paulis = all_paulis(2)
    for i, pp in enumerate(paulis):
        direct = sum(
            (1 if pp.commutes(qq) else -1) * p[j] for j, qq in enumerate(paulis)
        )
        assert lam[i] == pytest.approx(direct, abs=1e-12)


def test_learnability_cnot_verdicts():
    rep = cy.learnability(gate_tableau("CNOT"))
    assert rep.learnable["ZI"] is True
    assert rep.learnable["YY"] is True
    assert rep.learnable["XI"] is False
    assert rep.product_learnable(["XI", "XX"]) is True
    assert rep.product_learnable(["XI"]) is False


def test_learnability_identity_cycle_all_self_loops():
    rep = cy.learnability(CliffordTableau.identity(2))
    assert all(rep.learnable.values())
    assert rep.graph.gauge_dim() == 0


def test_learnability_invariant_under_relabeling():
    tab = gate_tableau("CNOT")
    rep = cy.learnability(tab)
    swapped = cy.relabel_cycle(tab, {0: 1, 1: 0})
    rep2 = cy.learnability(swapped)
    assert rep.cycle_space_dim == rep2.cycle_space_dim
    assert rep.graph.gauge_dim() == rep2.graph.gauge_dim()
    assert sum(rep.learnable.values()) == sum(rep2.learnable.values())
    # per-Pauli verdicts map through the relabeling
    for lab, ok in rep.learnable.items():
        assert rep2.learnable[lab[::-1]] == ok


def test_cycle_order():
    assert cy.cycle_order(gate_tableau("CZ")) == 2
    assert cy.cycle_order(gate_tableau("S")) == 4
    assert cy.cycle_order(CliffordTableau.identity(1)) == 1


def test_cycle_benchmark_noiseless():
    model, cycle = identity_cycle_model(2, ch.identity_channel(2))
    ds = cy.cycle_benchmark(model, cycle, ["XI", "ZZ"], (2, 4, 6), 4, 50, seed=3)
    for d in ds.decays.values():
        assert d.f == pytest.approx(1.0, abs=1e-6)


def test_cycle_benchmark_identity_cycle_eigenvalues():
    probs = {"XI": 0.004, "IZ": 0.003, "YY": 0.002, "ZX": 0.001}
    noise = ch.stochastic_pauli(probs)
    lam = np.diag(noise.ptm)
    model, cycle = identity_cycle_model(2, noise)
    paulis = [pauli_label(i, 2) for i in range(1, 16)]
    ds = cy.cycle_benchmark(model, cycle, paulis, (2, 6, 12), 8, 400, seed=3)
    for i in range(1, 16):
        d = ds.decays[pauli_label(i, 2)]
        assert abs(d.f - lam[i]) <= 3 * max(d.f_err, 1e-4)
    assert ds.process_fidelity() == pytest.approx(np.mean(lam[1:]), abs=0.002)


def test_cycle_benchmark_cz_cycle_product_oracle():
    probs = {"XI": 0.004, "IZ": 0.003, "YY": 0.002, "ZX": 0.001}
    noise = ch.stochastic_pauli(probs)
    lam = np.diag(noise.ptm)
    czn = ch.Channel(noise.ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["CZ"]).ptm)
    czn.unitary = dv.GATE_UNITARIES["CZ"]
    model = dv.GateSetModel(2, gates={"CZD": (czn, 2)})
    tab = gate_tableau("CZ")
    paulis = [pauli_label(i, 2) for i in range(1, 16)]
    ds = cy.cycle_benchmark(model, (("CZD", (0, 1)),), paulis, (2, 6, 12), 8, 400, seed=9)
    for lab in paulis:
        oracle = cy.cb_decay_oracle(lam, tab, PauliString.from_label(lab))
        d = ds.decays[lab]
        assert abs(d.f - oracle) <= 3 * max(d.f_err, 1e-4)


@pytest.mark.parametrize("name", ["CZ", "CNOT", "SWAP", "ISWAP", "S"])
def test_orbits_and_oracle_match_single_pauli_conjugation(name):
    """The batched image map gives every Pauli's orbit, and the CB decay
    oracle its value, as single-Pauli conjugation does, float for float."""
    tab = gate_tableau(name)
    order = cy.cycle_order(tab)
    lam = rng(11).uniform(0.9, 1.0, 4**tab.n)
    image = cy._image_map(tab).tolist()
    for p in all_paulis(tab.n):
        orbit, current = [p.index], tab.conjugate(p).hermitian()
        while current.index != p.index:
            orbit.append(current.index)
            current = tab.conjugate(current).hermitian()
        assert cy._orbit(image, p.index) == orbit
        expected, current = 1.0, p
        for _ in range(order):
            current = tab.conjugate(current).hermitian()
            expected *= float(lam[current.index])
        assert cy.cb_decay_oracle(lam, tab, p) == float(expected ** (1.0 / order))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(width=st.integers(1, 5), seed=st.integers(0, 2**31))
def test_cycle_tableau_matches_the_embedded_gate_reference(width, seed):
    """A layer's tableau from its compiled program equals the product of its
    gates' embedded tableaux, on random layers of builtin, ``c1_<i>``,
    ``c2_<i>`` and explicit-gate labels, with idle qubits."""
    gen = rng(seed)
    noisy_iswap = ch.Channel(ch.stochastic_pauli({"XZ": 0.01}).ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["ISWAP"]).ptm)
    noisy_iswap.unitary = dv.GATE_UNITARIES["ISWAP"]
    gates = {"E1": (ch.Channel.from_unitary(dv.GATE_UNITARIES["Y90"]), 1), "E2": (noisy_iswap, 2)}
    model = dv.GateSetModel(width, gates=gates)
    oneq = ["I", "H", "S", "SDG", "X90", "Y90M", "Z", "E1", f"c1_{int(gen.integers(24))}"]
    twoq = ["CNOT", "CZ", "SWAP", "ISWAP", "ISWAPM", "E2", f"c2_{int(gen.integers(11520))}"]
    layer, order = [], [int(q) for q in gen.permutation(width)]
    while order:
        u = gen.random()
        if u < 0.2:
            order.pop()  # an idle qubit
        elif len(order) > 1 and u < 0.6:
            layer.append((twoq[int(gen.integers(len(twoq)))], (order.pop(), order.pop())))
        else:
            layer.append((oneq[int(gen.integers(len(oneq)))], (order.pop(),)))
    assert cy.cycle_tableau(model, tuple(layer)).key() == layer_tableau(model, layer).key()


def test_cycle_tableau_checks_its_layer_as_a_circuit():
    """An overlapping or out-of-range layer is the ValueError that a circuit
    of it raises."""
    model = dv.ideal_model(2)
    with pytest.raises(ValueError, match="overlapping"):
        cy.cycle_tableau(model, (("CZ", (0, 1)), ("X", (1,))))
    with pytest.raises(ValueError, match="out of range"):
        cy.cycle_tableau(model, (("X", (2,)),))


def test_cycle_benchmark_rejects_bad_depths_and_large_order():
    # CZ has order 2, so odd depths are rejected
    model = dv.GateSetModel(2, gates={"CZD": (ch.Channel.from_unitary(dv.GATE_UNITARIES["CZ"]), 2)})
    with pytest.raises(ValueError):
        cy.cycle_benchmark(model, (("CZD", (0, 1)),), ["XI"], (1, 2, 4), 2, 10, seed=1)
    # a cycle whose order exceeds the cap reports the dressed-cycle suggestion
    s_tab = gate_tableau("S")
    with pytest.raises(ValueError, match="dressed"):
        cy.cycle_order(s_tab, max_order=3)


def test_cb_lower_bounds_process_fidelity():
    # F_e estimate <= true process fidelity within noise (lower-bound)
    probs = {"XY": 0.01, "ZI": 0.006}
    noise = ch.stochastic_pauli(probs)
    czn = ch.Channel(noise.ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["CZ"]).ptm)
    czn.unitary = dv.GATE_UNITARIES["CZ"]
    model = dv.GateSetModel(2, gates={"CZD": (czn, 2)})
    paulis = [pauli_label(i, 2) for i in range(1, 16)]
    ds = cy.cycle_benchmark(model, (("CZD", (0, 1)),), paulis, (2, 6, 12), 10, 400, seed=11)
    true_fe = noise.to_chi()[0, 0].real
    sigma = float(np.mean([d.f_err for d in ds.decays.values()]))
    assert ds.process_fidelity() <= true_fe + 3 * sigma


def test_cer_recovers_local_rates():
    n = 5
    noise = ch.stochastic_pauli({"IIIIZ": 0.01, "IXIII": 0.002})
    model, cycle = identity_cycle_model(n, noise)
    bodies = [(4,), (1,), (1, 4)]
    need = set()
    for b in bodies:
        for i in range(1, 4 ** len(b)):
            need.add(PauliString.from_index(i, len(b)).embed(n, b).label)
    ds = cy.cycle_benchmark(model, cycle, sorted(need), (2, 4, 8), 6, 500, seed=17)
    rates = cy.cer(ds, n, CliffordTableau.identity(n), bodies)
    by_key = {(r.bodies, r.pauli): r for r in rates}
    z4 = by_key[((4,), "Z")]
    assert z4.rate == pytest.approx(0.01, rel=0.20)
    assert z4.degeneracy_group == -1
    x1 = by_key[((1,), "X")]
    assert x1.rate == pytest.approx(0.002, rel=0.5)
    # no injected two-body errors: all two-body marginals consistent with 0
    for (bodies_, lab), r in by_key.items():
        if len(bodies_) == 2 and "I" not in lab:
            assert abs(r.rate) <= 3 * r.stderr + 5e-4


def test_cer_forward_transform_reproduces_fidelities():
    n = 2
    noise = ch.stochastic_pauli({"XI": 0.004, "IZ": 0.003})
    model, cycle = identity_cycle_model(n, noise)
    paulis = [pauli_label(i, 2) for i in range(1, 16)]
    ds = cy.cycle_benchmark(model, cycle, paulis, (2, 4, 8), 8, 400, seed=19)
    rates = cy.cer(ds, n, CliffordTableau.identity(n), [(0, 1)])
    vec = np.zeros(16)
    for r in rates:
        vec[PauliString.from_label(r.pauli).index] = r.rate
    vec[0] = 1 - vec.sum()
    lam_back = cy.walsh_hadamard(vec, "rates-to-eigenvalues")
    for i in range(1, 16):
        d = ds.decays[pauli_label(i, 2)]
        assert lam_back[i] == pytest.approx(d.f, abs=3 * max(d.f_err, 1e-4))


def test_cer_degeneracy_groups_on_cnot():
    n = 2
    noise = ch.stochastic_pauli({"XI": 0.01})
    cn = ch.Channel(noise.ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["CNOT"]).ptm)
    cn.unitary = dv.GATE_UNITARIES["CNOT"]
    model = dv.GateSetModel(2, gates={"CND": (cn, 2)})
    paulis = [pauli_label(i, 2) for i in range(1, 16)]
    ds = cy.cycle_benchmark(model, (("CND", (0, 1)),), paulis, (2, 4, 8), 8, 300, seed=23)
    tab = gate_tableau("CNOT")
    rates = cy.cer(ds, n, tab, [(0, 1)])
    by_pauli = {r.pauli: r for r in rates}
    assert by_pauli["XI"].degeneracy_group >= 0
    assert by_pauli["XX"].degeneracy_group == by_pauli["XI"].degeneracy_group
    assert by_pauli["ZI"].degeneracy_group == -1
    # the degenerate pair averages the injected rate across the orbit; their
    # sum still reflects the total injected weight
    assert by_pauli["XI"].rate + by_pauli["XX"].rate == pytest.approx(0.01, rel=0.3)


def test_cer_missing_decay_raises():
    model, cycle = identity_cycle_model(2, ch.stochastic_pauli({"XI": 0.01}))
    ds = cy.cycle_benchmark(model, cycle, ["XI"], (2, 4, 6), 3, 100, seed=29)
    with pytest.raises(ValueError):
        cy.cer(ds, 2, CliffordTableau.identity(2), [(0, 1)])


def make_line_model(seed):
    gen = rng(seed)

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
        c = ch.Channel(noise.ptm @ ch.Channel.from_unitary(u).ptm)
        c.unitary = u
        gates[f"{lbl}@{','.join(map(str, qs))}"] = (c, len(qs))
    model = dv.GateSetModel(3, gates=gates)
    layers = [
        (("CNOT@0,1", (0, 1)),),
        (("CNOT@1,2", (1, 2)),),
        (("X90@0", (0,)), ("X90@1", (1,)), ("X90@2", (2,))),
    ]
    return model, layers, noise_map


def test_aces_full_rank_recovery():
    model, layers, noise_map = make_line_model(123)
    res = cy.aces(model, layers, n_circuits=20, depth=3, paulis_per_circuit=6, shots=800, seed=5)
    assert res.design_rank == len(res.parameters)
    assert res.nullspace.shape[0] == 0
    from qcvv.linalg import pauli_index

    for lbl, qs, plab in res.parameters:
        base = lbl.split("@")[0]
        truth = np.diag(noise_map[(base, qs)].ptm)[pauli_index(plab)]
        est = res.eigenvalue(lbl, qs, plab)
        err = res.stderr(lbl, qs, plab)
        assert abs(est - truth) <= 3 * max(err, 1e-5)


def test_aces_circuit_eigenvalue_is_product_of_gate_eigenvalues():
    # fixed circuit: eigenvalue equals the product of traversed gate
    # eigenvalues (dense-backend oracle)
    model, layers, noise_map = make_line_model(321)
    p = PauliString.from_label("ZXI")
    seq = [layers[0], layers[1]]
    current = p
    expected = 1.0
    from qcvv.linalg import pauli_index

    for layer in seq:
        tab = layer_tableau(model, layer)
        current = tab.conjugate(current)
        for lbl, qs in layer:
            local = current.restrict(qs).hermitian()
            if local.weight:
                base = lbl.split("@")[0]
                expected *= np.diag(noise_map[(base, qs)].ptm)[pauli_index(local.label)]
    # measure via many shots
    prep_layer, sgn = eigenstate_layer(p, rng(7))
    meas = readout_layer(current.hermitian())
    circ = dv.Circuit(3, (prep_layer,) + tuple(seq) + ((meas,) if meas else ()))
    ideal_sign = 1 if current.sign.real > 0 else -1
    vals = dv.pauli_fastpath_signs(model, circ, readout_pauli(current), 400000, 11, ideal_sign=sgn * ideal_sign)
    est = sgn * ideal_sign * vals.mean()
    assert est == pytest.approx(expected, abs=0.005)


def test_aces_spam_parameters_and_gauge_nullspace():
    # single CNOT cycle with unknown SPAM: rank deficiency equals the
    # pattern-transform graph's cut count (V - c = 2 for CNOT), exactly the
    # unlearnable degrees of freedom of the learnability analysis
    noise = ch.stochastic_pauli({"XI": 0.006, "IZ": 0.004})
    cn = ch.Channel(noise.ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["CNOT"]).ptm)
    cn.unitary = dv.GATE_UNITARIES["CNOT"]
    model = dv.GateSetModel(2, gates={"CND": (cn, 2)})
    layers = [(("CND", (0, 1)),)]
    res = cy.aces(
        model, layers, n_circuits=30, depth=2, paulis_per_circuit=8, shots=400, seed=9,
        assume_ideal_spam=False,
    )
    n_params = len(res.parameters)
    gauge_dim = cy.learnability(gate_tableau("CNOT")).graph.gauge_dim()
    assert n_params - res.design_rank == gauge_dim
    assert res.nullspace.shape[0] == gauge_dim
    # the learnable eigenvalues remain accurate despite the unknown SPAM
    from qcvv.linalg import pauli_index

    rep = cy.learnability(gate_tableau("CNOT"))
    for lbl, qs, plab in res.parameters:
        if lbl != "CND" or not rep.learnable[plab]:
            continue
        truth = np.diag(noise.ptm)[pauli_index(plab)]
        assert abs(res.eigenvalue(lbl, qs, plab) - truth) <= 3 * max(res.stderr(lbl, qs, plab), 1e-4)


def test_aces_floors_nonpositive_estimates():
    noise = ch.stochastic_pauli({"X": 0.49})  # near-total decay
    c = ch.Channel(noise.ptm)
    c.unitary = np.eye(2, dtype=complex)
    model = dv.GateSetModel(1, gates={"NOISY": (c, 1)})
    with pytest.warns(UserWarning):
        cy.aces(model, [(("NOISY", (0,)),)], n_circuits=2, depth=4, paulis_per_circuit=4, shots=30, seed=3)


def test_aces_residual_flags_coherent_noise_without_rc():
    # in-model (Pauli) noise: residuals consistent with shot noise; coherent
    # noise inflates them without randomized compiling and RC restores them
    def build(noise):
        c = ch.Channel(noise.ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["CZ"]).ptm)
        c.unitary = dv.GATE_UNITARIES["CZ"]
        return dv.GateSetModel(2, gates={"CZD": (c, 2)})

    layers = [(("CZD", (0, 1)),)]
    kw = dict(n_circuits=16, depth=4, paulis_per_circuit=6, shots=600, backend="dense")
    pauli_model = build(ch.stochastic_pauli({"ZI": 0.02, "IZ": 0.015}))
    res_pauli = cy.aces(pauli_model, layers, seed=41, **kw)
    coh = ch.coherent("z", 0.18).tensor(ch.identity_channel(1))
    coh_model = build(ch.Channel(coh.ptm))
    res_norc = cy.aces(coh_model, layers, seed=43, randomized_compiling=False, **kw)
    res_rc = cy.aces(coh_model, layers, seed=43, **kw)
    assert res_pauli.reduced_chi2 < 3
    assert res_norc.reduced_chi2 > 3 * res_pauli.reduced_chi2
    assert res_rc.reduced_chi2 < res_norc.reduced_chi2


_DRESSINGS = ("X", "Y", "Z", "H", "S", "SDG", "X90", "Y90", "c1_5", "c1_17")


def _tableau_aces_row(model, layers, prepared, gate_set, params):
    """The ACES design row and image of ``prepared`` by tableau algebra: each
    layer's full-register tableau conjugates the current Pauli, and each
    gate-set gate counts its local letters after the layer."""
    n = model.n
    col = {p: i for i, p in enumerate(params)}
    row = np.zeros(len(params))
    current = prepared
    for layer in layers:
        current = layer_tableau(model, layer).conjugate(current)
        for label, qubits in layer:
            if (label, qubits) in gate_set:
                local = current.restrict(qubits).hermitian()
                if local.weight:
                    row[col[(label, qubits, local.label)]] += 1
    if ("PREP", (0,), "X") in col:
        for q in range(n):
            if prepared.letter(q) != "I":
                row[col[("PREP", (q,), prepared.letter(q))]] += 1
            if current.letter(q) != "I":
                row[col[("MEAS", (q,), current.letter(q))]] += 1
    return row, current


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    width=st.integers(1, 3),
    depth=st.integers(1, 6),
    ideal_spam=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_compiled_aces_rows_match_tableau_conjugation(width, depth, ideal_spam, seed):
    """The compiled prefix's design row, image (exact phase) and PREP/MEAS
    columns equal those of per-layer tableau conjugation, on random prefixes
    of CNOT, CZ and ``c2_<i>`` gate-set gates with 1q dressings."""
    gen = rng(seed)
    model = dv.ideal_model(width)
    twoq = ["CNOT", "CZ", f"c2_{int(gen.integers(11520))}", f"c2_{int(gen.integers(11520))}"]
    layers = []
    for _ in range(depth):
        order = [int(q) for q in gen.permutation(width)]
        layer = []
        while order:
            if len(order) > 1 and gen.random() < 0.6:
                layer.append((twoq[int(gen.integers(len(twoq)))], (order.pop(), order.pop())))
            elif gen.random() < 0.8:
                layer.append((_DRESSINGS[int(gen.integers(len(_DRESSINGS)))], (order.pop(),)))
            else:
                order.pop()  # an idle qubit
        layers.append(tuple(layer))
    ops = sorted({op for layer in layers for op in layer})
    # every 2q gate of the prefix and some of its dressings, plus one gate it never uses
    gate_set = {op for op in ops if len(op[1]) == 2 or gen.random() < 0.3} | {("CZ@absent", (0,))}
    params, first, spam = cy._aces_parameters(gate_set, width, ideal_spam)
    prefix = cy._ACESPrefix(model, layers, first)
    prepared = []
    for _ in range(4):
        p = PauliString.from_index(int(gen.integers(1, 4**width)), width)
        prepared.append(PauliString(width, p.xbits, p.zbits, p.phase + int(gen.integers(4))))
    rows, images, _ = prefix.rows(prepared, len(params), spam)
    for p, row, image in zip(prepared, rows, images):
        expected_row, expected_image = _tableau_aces_row(model, layers, p, gate_set, params)
        assert row.dtype == expected_row.dtype and np.array_equal(row, expected_row)
        assert image == expected_image  # letters and phase exponent
        if not ideal_spam:
            assert np.array_equal(row[spam:], expected_row[spam:])
            assert row[spam:].sum() == p.weight + image.weight


def _propagated_aces_row(model, layers, prepared, gate_set, params):
    """The ACES design row, image and letter-code history of ``prepared``,
    from ``propagate_pauli`` one layer at a time."""
    n = model.n
    col = {p: i for i, p in enumerate(params)}
    row = np.zeros(len(params))
    current, history = prepared, [prepared]
    for layer in layers:
        current = dv.propagate_pauli(model, dv.Circuit(n, (layer,)), current)
        history.append(current)
        for label, qubits in layer:
            if (label, qubits) in gate_set:
                local = current.restrict(qubits).hermitian()
                if local.weight:
                    row[col[(label, qubits, local.label)]] += 1
    if ("PREP", (0,), "X") in col:
        for q in range(n):
            for kind, p in (("PREP", prepared), ("MEAS", current)):
                if p.letter(q) != "I":
                    row[col[(kind, (q,), p.letter(q))]] += 1
    codes = np.array([[{"I": 0, "Z": 1, "X": 2, "Y": 3}[p.letter(q)] for q in range(n)] for p in history])
    return row, current, codes


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    width=st.integers(1, 3),
    depth=st.integers(0, 6),
    count=st.integers(1, 7),
    ideal_spam=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_aces_prefix_rows_match_per_pauli_propagation(width, depth, count, ideal_spam, seed):
    """``_ACESPrefix.rows``, which propagates a prefix's Paulis as one column
    block, gives each Pauli the design row, image (exact phase) and letter
    codes that ``propagate_pauli`` gives it alone, layer by layer."""
    gen = rng(seed)
    model = dv.ideal_model(width)
    sampler_gates = ["CNOT", "CZ", f"c2_{int(gen.integers(11520))}"]
    layers = []
    for _ in range(depth):
        order = [int(q) for q in gen.permutation(width)]
        layer = []
        while order:
            if len(order) > 1 and gen.random() < 0.6:
                layer.append((sampler_gates[int(gen.integers(3))], (order.pop(), order.pop())))
            elif gen.random() < 0.8:
                layer.append((_DRESSINGS[int(gen.integers(len(_DRESSINGS)))], (order.pop(),)))
            else:
                order.pop()
        layers.append(tuple(layer))
    gate_set = {op for layer in layers for op in layer if len(op[1]) == 2 or gen.random() < 0.5}
    params, first, spam = cy._aces_parameters(gate_set | {("CZ", (0,))}, width, ideal_spam)
    prefix = cy._ACESPrefix(model, layers, first)
    prepared = [
        PauliString(width, *map(int, gen.integers(2**width, size=2)), int(gen.integers(4))) for _ in range(count)
    ]
    rows, images, codes = prefix.rows(prepared, len(params), spam)
    assert rows.shape == (count, len(params)) and rows.dtype == float
    assert codes.shape == (depth + 1, width, count)
    for j, p in enumerate(prepared):
        row, image, history = _propagated_aces_row(model, layers, p, gate_set, params)
        assert np.array_equal(rows[j], row)
        assert images[j] == image
        assert np.array_equal(codes[:, :, j], history)


def _aces_pin_model():
    def rule(label, arity):
        if label == "CZ":
            return ch.stochastic_pauli({"XI": 0.02, "IZ": 0.01, "YY": 0.01})
        if label == "X90":
            return ch.stochastic_pauli({"Z": 0.01})
        return None

    return dv.noisy_model(
        2,
        rule,
        confusion={0: [[0.97, 0.03], [0.03, 0.97]], 1: [[0.95, 0.05], [0.05, 0.95]]},
        idle=ch.stochastic_pauli({"X": 0.004, "Z": 0.006}),
        pre_gate_noise=True,
    )


# the seeded fast-backend result of the call below, with unknown SPAM, idle
# and pre-gate noise and symmetric readout confusion
ACES_FAST_SPAM_IDLE_PRE = (
    [
        0.9829773997980797, 0.9642298343135801, 0.8474643692404489, 1.0204722916381335, 0.8788273146178933,
        0.8541131604172543, 0.9414287673206896, 0.8073894585579563, 0.9823599145833002, 1.0582406615264168,
        0.70597314611795, 1.057784329306836, 0.850510354996646, 0.893865347125002, 0.9623975086888261,
        1.0634830673538194, 1.1522428323459235, 0.9122971982221103, 0.9742879025047032, 1.1066280134497237,
        0.8841653693958267, 0.9919492619762557, 0.9866675231730089, 1.0939471930902476, 0.8877645595810836,
        0.9030469111532631, 0.9537662807719518, 0.983525970910265, 0.8850428247662842, 0.9921969485758874,
    ],
    [
        0.08985291207761237, 0.10046819108404853, 0.10538785272149113, 0.0851807280718857, 0.13997221824535294,
        0.14412472356676526, 0.07836871682090343, 0.09304606461332317, 0.13321947770000148, 0.21631364697476527,
        0.11973627156858603, 0.11576554521847959, 0.0842141874573847, 0.10136976388613778, 0.03639200022708805,
        0.1083169479611144, 0.2256334706621462, 0.1492368412032048, 0.06607977936076083, 0.13746700993563518,
        0.07986321272643195, 0.11388103836732855, 0.07385501003222487, 0.11020352688523917, 0.07631818987489644,
        0.10689071355957029, 0.05496038505482176, 0.14464700503383152, 0.11110432571074709, 0.06906627699387216,
    ],
    0.3695670787082394,
    28,
)


def test_aces_fast_values_with_unknown_spam_idle_and_pre_gate_noise():
    layers = [(("CZ", (0, 1)),), (("X90", (0,)),)]
    res = cy.aces(
        _aces_pin_model(), layers, n_circuits=4, depth=2, paulis_per_circuit=3, shots=100, seed=24,
        assume_ideal_spam=False,
    )
    got = ([float(v) for v in res.estimates], [float(v) for v in res.stderrs], res.reduced_chi2, res.design_rank)
    assert got == ACES_FAST_SPAM_IDLE_PRE
