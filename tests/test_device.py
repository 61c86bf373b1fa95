import numpy as np
import pytest

from qcvv import channels as ch
from qcvv import cycles as cy
from qcvv import device as dv
from qcvv import fidelity as fd
from qcvv import rb
from qcvv.device import Circuit, GateSetModel, ShotRecord
from qcvv.linalg import rng
from qcvv.metrics import tvd
from qcvv.paulis import PauliString


def test_circuit_validation_and_json():
    with pytest.raises(ValueError):
        Circuit(2, ((("CNOT", (0, 1)), ("X", (1,))),))
    with pytest.raises(ValueError):
        Circuit(1, ((("X", (3,)),),))
    c = Circuit(2, ((("H", (0,)),), (("CNOT", (0, 1)),)))
    back = Circuit.from_json(c.to_json())
    assert back == c and back.depth == 2


def test_shot_record_counts_must_sum():
    with pytest.raises(ValueError):
        ShotRecord("c", {"0": 3}, 4, 1)
    rec = ShotRecord("c", {"0": 3, "1": 1}, 4, 1)
    assert ShotRecord.from_json(rec.to_json()) == rec


def test_empty_circuit_returns_prep():
    model = dv.ideal_model(2)
    dist = dv.circuit_probabilities(model, Circuit(2, ()))
    assert dist.as_dict()["00"] == pytest.approx(1.0)


def test_x_gate_deterministic():
    model = dv.ideal_model(1)
    dist = dv.circuit_probabilities(model, Circuit(1, ((("X", (0,)),),)))
    assert dist.as_dict()["1"] == pytest.approx(1.0)


def test_x90_with_dephasing_half():
    # PTM composition oracle: dephasing does not touch the Z-axis population
    model = dv.noisy_model(1, lambda lbl, ar: ch.dephasing(0.3))
    dist = dv.circuit_probabilities(model, Circuit(1, ((("X90", (0,)),),)))
    assert dist.as_dict()["1"] == pytest.approx(0.5, abs=1e-12)


def test_unknown_label_and_width_overflow():
    model = dv.ideal_model(1)
    with pytest.raises(KeyError):
        dv.circuit_probabilities(model, Circuit(1, ((("NOPE", (0,)),),)))
    big = dv.ideal_model(7)
    with pytest.raises(ValueError):
        dv.circuit_probabilities(big, Circuit(7, ()))


def test_sample_counts_deterministic_and_binomial():
    model = dv.ideal_model(1)
    circ = Circuit(1, ((("H", (0,)),),))
    rec1 = dv.sample_counts(model, circ, 100000, seed=5)
    rec2 = dv.sample_counts(model, circ, 100000, seed=5)
    assert rec1.counts == rec2.counts
    freq = rec1.counts["1"] / rec1.shots
    assert freq == pytest.approx(0.5, abs=0.01)
    with pytest.raises(ValueError):
        dv.sample_counts(model, circ, 0, seed=1)


def test_confusion_matrix_applied_last():
    conf = [[0.99, 0.05], [0.01, 0.95]]
    model = dv.ideal_model(1).with_confusion({0: conf})
    dist = dv.circuit_probabilities(model, Circuit(1, ((("X", (0,)),),)))
    assert dist.as_dict()["1"] == pytest.approx(0.95, abs=1e-12)


def test_idle_channel_applied():
    model = dv.noisy_model(2, lambda l, a: None, idle=ch.stochastic_pauli((0.5, 0, 0)))
    circ = Circuit(2, ((("X", (0,)),),))  # qubit 1 idles once
    dist = dv.circuit_probabilities(model, circ).as_dict()
    assert dist["11"] == pytest.approx(0.5, abs=1e-12)


def test_pre_gate_noise_flag():
    # amplitude damping before vs after an X gate on |0>: pre-gate damping
    # acts on |0> (no effect), post-gate damping hits |1>
    p = 0.2
    noise = ch.amplitude_damping(p)
    post = dv.noisy_model(1, lambda l, a: noise)
    pre = dv.noisy_model(1, lambda l, a: noise, pre_gate_noise=True)
    circ = Circuit(1, ((("X", (0,)),),))
    assert dv.circuit_probabilities(post, circ).as_dict()["1"] == pytest.approx(1 - p, abs=1e-12)
    assert dv.circuit_probabilities(pre, circ).as_dict()["1"] == pytest.approx(1.0, abs=1e-12)


def test_statevector_backend():
    assert np.allclose(
        dv.statevector_run(Circuit(1, ((("H", (0,)),),))), np.array([1, 1]) / np.sqrt(2)
    )
    bell = dv.statevector_run(Circuit(2, ((("H", (0,)),), (("CNOT", (0, 1)),))))
    assert np.allclose(bell, np.array([1, 0, 0, 1]) / np.sqrt(2))
    with pytest.raises(ValueError):
        dv.statevector_run(Circuit(15, ()))


def test_statevector_agrees_with_dense_on_random_su4_layers():
    gen = rng(3)
    from qcvv.linalg import haar_random_unitary

    defs = {f"u{i}": haar_random_unitary(4, gen) for i in range(3)}
    layers = (
        (("u0", (0, 1)),),
        (("u1", (1, 2)),),
        (("u2", (0, 1)),),
    )
    circ = Circuit(3, layers, defs)
    ideal = dv.ideal_probabilities(circ)
    dense = dv.circuit_probabilities(dv.ideal_model(3), circ)
    assert np.abs(ideal.probs - dense.probs).max() < 1e-9


def test_fastpath_zero_error_and_telegraph():
    model = dv.noisy_model(1, lambda l, a: None)
    circ = Circuit(1, ((("X", (0,)),),))
    rec = dv.pauli_fastpath_sample(model, circ, 1000, seed=2)
    assert rec.counts == {"1": 1000}

    px, depth = 0.05, 9
    model2 = dv.noisy_model(1, lambda l, a: ch.stochastic_pauli((px, 0, 0)))
    circ2 = Circuit(1, tuple((("I", (0,)),) for _ in range(depth)))
    rec2 = dv.pauli_fastpath_sample(model2, circ2, 200000, seed=3)
    expected = (1 - (1 - 2 * px) ** depth) / 2  # random-telegraph oracle
    assert rec2.counts.get("1", 0) / rec2.shots == pytest.approx(expected, abs=0.004)


def test_fastpath_matches_dense_on_mirror_circuit():
    def nr(lbl, ar):
        if ar == 1:
            return ch.stochastic_pauli((0.01, 0.005, 0.02))
        return ch.stochastic_pauli({"XX": 0.01, "ZI": 0.01})

    model = dv.noisy_model(3, nr, gate_factory=rb.clifford_gate_factory)
    sampler = rb.LayerSampler(3, twoq_density=0.7)
    circ = rb.mirror_circuit(sampler, 8, rng(55))
    rec = dv.pauli_fastpath_sample(model, circ, 100000, seed=77)
    dense = dv.circuit_probabilities(model, circ).as_dict()
    emp = {k: v / rec.shots for k, v in rec.counts.items()}
    keys = set(dense) | set(emp)
    assert 0.5 * sum(abs(dense.get(k, 0) - emp.get(k, 0)) for k in keys) < 0.02


def test_fastpath_rejects_non_pauli_noise_and_indefinite_outcome():
    model = dv.noisy_model(1, lambda l, a: ch.amplitude_damping(0.1))
    with pytest.raises(ValueError):
        dv.pauli_fastpath_sample(model, Circuit(1, ((("X", (0,)),),)), 10, seed=1)
    clean = dv.ideal_model(1)
    with pytest.raises(ValueError):
        dv.pauli_fastpath_sample(clean, Circuit(1, ((("H", (0,)),),)), 10, seed=1)


def test_fastpath_confusion():
    conf = [[0.99, 0.05], [0.01, 0.95]]
    model = dv.ideal_model(1).with_confusion({0: conf})
    rec = dv.pauli_fastpath_sample(model, Circuit(1, ((("X", (0,)),),)), 100000, seed=11)
    assert rec.counts["1"] / rec.shots == pytest.approx(0.95, abs=0.005)


def test_fastpath_signs_rejects_asymmetric_confusion():
    circ = Circuit(2, ((("X", (0,)),),))
    z0 = PauliString.from_label("ZI")
    asym = [[0.99, 0.05], [0.01, 0.95]]
    with pytest.raises(ValueError, match="sample_counts"):
        dv.pauli_fastpath_signs(dv.ideal_model(2).with_confusion({0: asym}), circ, z0, 100, seed=1, ideal_sign=-1)
    # an unmeasured qubit's readout does not enter the parity
    dv.pauli_fastpath_signs(dv.ideal_model(2).with_confusion({1: asym}), circ, z0, 100, seed=1, ideal_sign=-1)
    sym = dv.ideal_model(2).with_confusion({0: [[0.97, 0.03], [0.03, 0.97]]})
    signs = dv.pauli_fastpath_signs(sym, circ, z0, 100000, seed=1, ideal_sign=-1)
    assert signs.mean() == pytest.approx(-0.94, abs=0.01)


def test_propagate_pauli_signs():
    model = dv.ideal_model(2)
    circ = Circuit(2, ((("CNOT", (0, 1)),),))
    img = dv.propagate_pauli(model, circ, PauliString.from_label("XZ"))
    assert repr(img) == "-YY"


def test_gauge_invariance_of_probabilities():
    gen = rng(13)
    base_gates = {
        "G0": (ch.Channel(ch.dephasing(0.05).ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["X90"]).ptm), 1),
        "G1": (ch.Channel.from_unitary(dv.GATE_UNITARIES["Y90"]), 1),
    }
    model = GateSetModel(1, gates=base_gates)
    circuits = []
    for _ in range(50):
        seq = [("G0", (0,)) if gen.random() < 0.5 else ("G1", (0,)) for _ in range(int(gen.integers(1, 6)))]
        circuits.append(Circuit(1, tuple((g,) for g in seq)))
    worst = 0.0
    trials = 0
    while trials < 20:
        k = 0.4 * gen.normal(size=(4, 4))
        import scipy.linalg

        m = scipy.linalg.expm(k)
        if np.linalg.cond(m) > 100:
            continue
        trials += 1
        gauged = dv.apply_gauge(model, m)
        for circ in circuits:
            p0 = dv.circuit_probabilities(model, circ).probs
            p1 = dv.circuit_probabilities(gauged, circ).probs
            worst = max(worst, float(np.abs(p0 - p1).max()))
    assert worst < 1e-7


def test_gauge_identity_is_noop():
    model = GateSetModel(1, gates={"G": (ch.Channel.from_unitary(dv.GATE_UNITARIES["X90"]), 1)})
    gauged = dv.apply_gauge(model, np.eye(4))
    circ = Circuit(1, ((("G", (0,)),),))
    assert np.allclose(
        dv.circuit_probabilities(model, circ).probs, dv.circuit_probabilities(gauged, circ).probs
    )
    with pytest.raises(ValueError):
        dv.apply_gauge(model, np.zeros((4, 4)))


def test_model_constants_are_per_model():
    def rule(label, arity):
        return ch.depolarizing(0.03, n=arity)

    model = dv.noisy_model(2, rule)
    circ = Circuit(2, ((("H", (0,)), ("X90", (1,))), (("CNOT", (0, 1)),), (("Y90", (1,)),)))
    before = dv.circuit_probabilities(model, circ).probs
    assert not model._superket.flags.writeable
    with pytest.raises(ValueError):
        model._superket[(0, 0)] = 0.0
    conf = {1: [[0.9, 0.2], [0.1, 0.8]]}
    variant = model.with_confusion(conf)
    fresh = dv.noisy_model(2, rule, confusion=conf)
    assert np.array_equal(
        dv.circuit_probabilities(variant, circ).probs, dv.circuit_probabilities(fresh, circ).probs
    )
    assert not np.array_equal(variant._effects, model._effects)
    assert np.array_equal(dv.circuit_probabilities(model, circ).probs, before)


def test_gauge_transformed_model_keeps_parent_probabilities_after_caching():
    gates = {
        "G0": (ch.Channel(ch.dephasing(0.05).ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["X90"]).ptm), 1),
        "G1": (ch.Channel.from_unitary(dv.GATE_UNITARIES["Y90"]), 1),
    }
    model = GateSetModel(1, gates=gates, confusion={0: [[0.95, 0.1], [0.05, 0.9]]})
    circ = Circuit(1, ((("G0", (0,)),), (("G1", (0,)),), (("G0", (0,)),)))
    p0 = dv.circuit_probabilities(model, circ).probs
    prep = model._superket.copy()
    m = np.eye(4) + 0.1 * rng(3).normal(size=(4, 4))
    gauged = dv.apply_gauge(model, m)
    assert np.allclose(dv.circuit_probabilities(gauged, circ).probs, p0, atol=1e-12)
    assert np.allclose(gauged._superket.reshape(-1), m @ prep.reshape(-1), atol=1e-15)
    assert np.array_equal(model._superket, prep)
    assert np.array_equal(dv.circuit_probabilities(model, circ).probs, p0)


def _tensordot_reference(state, op, qubits):
    """The tensordot + moveaxis contraction that ``_apply_local`` replaced."""
    k = len(qubits)
    t = op.reshape((state.shape[0],) * (2 * k))
    out = np.tensordot(t, state, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(out, list(range(k)), list(qubits))


def _layouts(tensor):
    """The tensor as a C-ordered array, as a column-major one and, when
    real, as the strided real part of a complex array (the layout of the
    dense initial state)."""
    yield tensor
    yield tensor.T.copy().T
    if not np.iscomplexobj(tensor):
        yield tensor.astype(complex).real


@pytest.mark.parametrize("d, widths, dtype", [(4, range(1, 7), float), (2, range(1, 9), complex)])
def test_apply_local_matches_tensordot_bit_for_bit(d, widths, dtype):
    gen = rng(d)

    def draw(shape):
        x = gen.normal(size=shape)
        return x + 1j * gen.normal(size=shape) if dtype is complex else x

    cases = 0
    for n in widths:
        for k in range(1, min(n, 3) + 1):
            supports = {tuple(range(k)), tuple(range(k))[::-1], tuple(range(n - k, n))[::-1]}
            supports.update(tuple(int(q) for q in gen.permutation(n)[:k]) for _ in range(3))
            for qubits in sorted(supports):
                op = draw((d**k, d**k))
                for state in _layouts(draw((d,) * n)):
                    out = dv._apply_local(state, op, qubits)
                    assert np.array_equal(out, _tensordot_reference(state, op, qubits)), (n, qubits)
                    cases += 1
    assert cases > 100


def test_embed_ptm_is_the_identity_embedding():
    ptm = ch.amplitude_damping(0.2).compose(ch.coherent("x", 0.3)).ptm
    eye = np.eye(4**3).reshape((4,) * 6)
    for qubits in [(0,), (2,), (1,)]:
        ref = _tensordot_reference(eye, ptm, qubits).reshape(64, 64)
        assert np.array_equal(fd._embed_ptm(ptm, qubits, 3), ref)
    assert np.array_equal(fd._embed_ptm(ptm, (0,), 3), np.kron(ptm, np.eye(16)))
    two = ch.depolarizing(0.1, n=2).compose(ch.Channel.from_unitary(dv.GATE_UNITARIES["CNOT"])).ptm
    for qubits in [(0, 1), (1, 0), (2, 0)]:
        ref = _tensordot_reference(eye, two, qubits).reshape(64, 64)
        assert np.array_equal(fd._embed_ptm(two, qubits, 3), ref)


def test_drift_fixture_changes_counts():
    def model_at(t):
        return dv.noisy_model(1, lambda l, a: ch.depolarizing(0.02 + 0.3 * t))

    circ = Circuit(1, tuple((("X90", (0,)),) for _ in range(8)))
    rec = dv.sample_counts_drifting(model_at, circ, 4000, seed=3, segments=8)
    assert rec.shots == 4000
    static = dv.sample_counts(model_at(0.0), circ, 4000, seed=3)
    assert tvd(
        {k: v / 4000 for k, v in rec.counts.items()}, {k: v / 4000 for k, v in static.counts.items()}
    ) > 0.01


def test_randomized_compiling_preserves_ideal_action():
    sampler = rb.LayerSampler(3, twoq_density=0.7)
    gen = rng(17)
    model = dv.ideal_model(3)
    for m in (2, 4):
        circ = rb.mirror_circuit(sampler, m, gen)
        dist = dv.circuit_probabilities(model, circ).as_dict()
        assert dist["000"] == pytest.approx(1.0, abs=1e-9)


def test_randomized_compiling_distribution_invariance_under_pauli_noise():
    # noiseless outcomes unchanged (above); Pauli-noise outcomes unchanged in
    # distribution: same mirror skeleton with different RC draws gives the
    # same success probability within sampling error
    def nr(lbl, ar):
        return ch.stochastic_pauli((0.02, 0.01, 0.015)) if ar == 1 else ch.stochastic_pauli({"ZZ": 0.02})

    model = dv.noisy_model(2, nr, gate_factory=rb.clifford_gate_factory)
    sampler = rb.LayerSampler(2, twoq_density=1.0)
    vals = []
    for seed in (3, 4):
        gen = rng(100)  # same skeleton sampling
        circ = rb.mirror_circuit(sampler, 6, gen)
        dist = dv.circuit_probabilities(model, circ).as_dict()
        vals.append(dist["00"])
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)


def _one_gate(label, gate_defs=None):
    return Circuit(1, (((label, (0,)),),), gate_defs or {})


def test_factory_label_in_gate_defs_resolves_alike_on_every_backend():
    # the factory resolves c1_5 before the circuit's gate_defs, so every
    # backend runs the enumerated Clifford, not the inline H
    model = dv.ideal_model(1)
    circ = _one_gate("c1_5", {"c1_5": dv.GATE_UNITARIES["H"]})
    dense = dv.circuit_probabilities(model, circ).probs
    assert np.allclose(dv.ideal_probabilities(circ, model).probs, dense, atol=1e-12)
    assert np.allclose(dv.ideal_probabilities(circ).probs, dense, atol=1e-12)
    assert np.array_equal(model.error_channel("c1_5", 1, circ.gate_defs).ptm, np.eye(4))
    assert dv.pauli_fastpath_sample(model, circ, 100, seed=1).counts == {"1": 100}
    assert dense[1] == pytest.approx(1.0, abs=1e-12)


def test_explicit_gate_shadows_gate_defs():
    x = ch.Channel.from_unitary(dv.GATE_UNITARIES["X"])
    model = GateSetModel(1, gates={"H": (x, 1)})
    circ = _one_gate("H", {"H": dv.GATE_UNITARIES["H"]})
    assert np.array_equal(model.ideal_unitary("H", circ.gate_defs), dv.GATE_UNITARIES["X"])
    assert dv.circuit_probabilities(model, circ).as_dict()["1"] == pytest.approx(1.0, abs=1e-12)
    assert dv.ideal_probabilities(circ, model).as_dict()["1"] == pytest.approx(1.0, abs=1e-12)
    assert dv.pauli_fastpath_sample(model, circ, 100, seed=1).counts == {"1": 100}


def test_gate_defs_override_builtin_name_after_it_was_resolved():
    # a builtin name resolved earlier is not reused for a circuit whose
    # gate_defs define it, and the inline definition is not kept afterwards
    model = dv.ideal_model(1)
    plain = _one_gate("H")
    inline = _one_gate("H", {"H": dv.GATE_UNITARIES["X"]})
    for circ, p1 in ((plain, 0.5), (inline, 1.0), (plain, 0.5)):
        assert dv.circuit_probabilities(model, circ).as_dict()["1"] == pytest.approx(p1, abs=1e-12)
        assert dv.ideal_probabilities(circ, model).as_dict()["1"] == pytest.approx(p1, abs=1e-12)


@pytest.mark.parametrize("pre", [False, True])
def test_rule_error_channel_is_the_rule_channel(pre):
    def rule(label, arity):
        return ch.stochastic_pauli((4e-4, 3e-4, 5e-4))

    model = dv.noisy_model(1, rule, pre_gate_noise=pre)
    expected = rule("c1_0", 1).ptm
    for i in range(24):
        assert np.array_equal(model.error_channel(f"c1_{i}", 1).ptm, expected)


def _crb_design():
    return rb.RBDesign((0,), (0, 1, 2), 1, 5, seed=1)


def _cz_target(n):
    return [tuple(("H", (q,)) for q in range(n)), (("CZ", (0, 1)),), tuple(("H", (q,)) for q in range(n))]


@pytest.mark.parametrize(
    "run",
    [
        lambda be: rb.run_crb(dv.ideal_model(1), _crb_design(), backend=be),
        lambda be: rb.simultaneous_rb(dv.ideal_model(2), [(0,), (1,)], _crb_design(), backend=be),
        lambda be: rb.birb(dv.ideal_model(2), _crb_design(), rb.LayerSampler(2), backend=be),
        lambda be: cy.cycle_benchmark(dv.ideal_model(2), (("CZ", (0, 1)),), ["XI"], (2, 4, 6), 1, 5, 1, backend=be),
        lambda be: fd.dfe(dv.ideal_model(2), fd.ghz_circuit(2), fd.ghz_stabilizers(2), 0.5, 0.5, 1, backend=be),
        lambda be: fd.accredit(dv.ideal_model(2), _cz_target(2), 0.5, 0.5, 1, backend=be),
    ],
    ids=["run_crb", "simultaneous_rb", "birb", "cycle_benchmark", "dfe", "accredit"],
)
def test_protocols_reject_unknown_backend_name(run):
    with pytest.raises(ValueError, match="unknown backend"):
        run("Fast")
    run("dense")
