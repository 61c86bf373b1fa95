import copy
import json
import pickle
import zlib
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from qcvv import channels as ch
from qcvv import cliffords as cl
from qcvv import cycles as cy
from qcvv import device as dv
from qcvv import fidelity as fd
from qcvv import rb
from qcvv.device import Circuit, GateSetModel, ShotRecord
from qcvv.linalg import haar_random_unitary, rng
from qcvv.metrics import ProbDist, tvd
from qcvv.paulis import PauliString
from qcvv.volumetrics import qv_circuits


def test_circuit_validation_and_json():
    with pytest.raises(ValueError):
        Circuit(2, ((("CNOT", (0, 1)), ("X", (1,))),))
    with pytest.raises(ValueError):
        Circuit(1, ((("X", (3,)),),))
    with pytest.raises(ValueError):  # a -1 past the first layer, where it would index a valid cell
        Circuit(2, ((("H", (0,)),), (("X", (-1,)),)))
    c = Circuit(2, ((("H", (0,)),), (("CNOT", (0, 1)),)))
    back = Circuit.from_json(c.to_json())
    assert back == c and back.depth == 2


def test_circuit_normalizes_supports_to_python_int_tuples():
    layers = (
        [("H", [np.int64(0)]), ("CNOT", np.array([2, 1]))],
        ((np.str_("X"), (np.int32(1),)), ("I", range(2, 3))),
    )
    c = Circuit(3, layers)
    assert c.layers == ((("H", (0,)), ("CNOT", (2, 1))), (("X", (1,)), ("I", (2,))))
    for label, qubits in (op for layer in c.layers for op in layer):
        assert type(label) is str and type(qubits) is tuple
        assert all(type(q) is int for q in qubits)
    assert json.loads(c.to_json()) == {"width": 3, "layers": [[["H", [0]], ["CNOT", [2, 1]]], [["X", [1]], ["I", [2]]]]}


@pytest.mark.parametrize(
    "layers",
    [
        ((("H", (0,)),), (("CNOT", (0, 1)), ("X", (1,)))),
        ((("CNOT", (1, 1)),),),
        ((("H", (0,)),), (("X", (2,)),)),
        ((("X", (-1,)),), (("H", (0,)),)),
        ((("CNOT", (0, np.int64(5))),),),
    ],
    ids=["overlap-in-second-layer", "repeated-qubit", "above-width", "negative", "numpy-above-width"],
)
def test_circuit_rejects_overlaps_and_out_of_range_qubits(layers):
    with pytest.raises(ValueError):
        Circuit(2, layers)


@st.composite
def _small_circuits(draw, name):
    width = draw(st.integers(1, 5))
    layers = []
    for _ in range(draw(st.integers(0, 4))):
        free = draw(st.permutations(range(width)))
        layer = []
        while free:
            # a qubit stays idle a third of the time, so some layers are empty
            arity = draw(st.sampled_from((0, 1, 2) if len(free) >= 2 else (0, 1)))
            if arity == 2:
                layer.append((draw(st.sampled_from(("CNOT", "CZ", f"{name}_u2"))), (free.pop(), free.pop())))
            elif arity == 1:
                layer.append((draw(st.sampled_from(("H", "S", f"{name}_u1"))), (free.pop(),)))
            else:
                free.pop()
        layers.append(tuple(layer))
    # "shared" is defined by both circuits: the second one's definition wins
    defs = {f"{name}_u1": np.eye(2), f"{name}_u2": np.eye(4), "shared": np.eye(2)}
    return Circuit(width, tuple(layers), defs)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_small_circuits("a"), _small_circuits("b"))
def test_then_equals_the_checked_joined_circuit(a, b):
    joined = a.then(b)
    merged = {**a.gate_defs, **b.gate_defs}
    built = Circuit(max(a.width, b.width), a.layers + b.layers, merged)
    assert joined == built
    assert joined.to_json() == built.to_json()
    assert joined.gate_defs.keys() == built.gate_defs.keys()
    assert all(joined.gate_defs[k] is merged[k] for k in merged)
    assert joined.gate_defs["shared"] is b.gate_defs["shared"]
    assert hash(joined) == hash(built)
    # the joined flat form, a's keys followed by b's, is the one the
    # checked construction builds, and so are its arrays, padded with the
    # joined width, and its idle mask
    assert joined._flat == built._flat
    for name, got, expected in zip(built._flat.arrays._fields, joined._flat.arrays, built._flat.arrays):
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    assert np.array_equal(joined._flat.idle, built._flat.idle)


_NORMALISED = ((("H", (0,)), ("CNOT", (1, 2))), (), (("c1_5", (2,)),))


def test_normalised_layers_are_kept_as_they_are():
    c = Circuit(3, _NORMALISED)
    assert c.layers is _NORMALISED
    assert Circuit(3, c.layers + c.layers).layers[0] is _NORMALISED[0]
    # generated layers share interned operations, which pass as they are,
    # numpy edges included
    sampler = rb.LayerSampler(4, edges=np.array([[0, 1], [2, 3]]), twoq_density=1.0)
    layers = sampler.sample(rng(3)) + sampler.sample(rng(4))
    assert Circuit(4, layers).layers is layers
    assert set(map(id, layers[1])) == set(map(id, layers[3])) == set(map(id, sampler._ops))
    assert all(type(q) is int for _, qubits in sampler._ops for q in qubits)
    assert cl.oneq_layer([5, 7])[1] is cl.oneq_layer([0, 7])[1]


@pytest.mark.parametrize(
    "odd",
    [
        ("H", (np.int64(0),)),
        ("H", (False,)),
        ["H", (0,)],
        ("H", [0]),
        (np.str_("H"), (0,)),
    ],
    ids=["numpy-int-qubit", "bool-qubit", "list-op", "list-support", "numpy-str-label"],
)
def test_one_unnormalised_entry_normalises_the_layers(odd):
    layers = ((odd, ("CNOT", (1, 2))),) + _NORMALISED[1:]
    c = Circuit(3, layers)
    assert c.layers is not layers
    assert c == Circuit(3, _NORMALISED) and c._flat == Circuit(3, _NORMALISED)._flat
    for label, qubits in (op for layer in c.layers for op in layer):
        assert type(label) is str and type(qubits) is tuple
        assert all(type(q) is int for q in qubits)
    assert type(c.layers) is tuple and all(type(layer) is tuple for layer in c.layers)


def test_unnormalised_containers_are_normalised_and_checked():
    # a list of layers, a list layer and a generator of layers all come
    # back as the same tuples, and the checks still run on them
    expected = Circuit(3, _NORMALISED)
    assert Circuit(3, list(_NORMALISED)) == expected
    assert Circuit(3, (list(_NORMALISED[0]),) + _NORMALISED[1:]) == expected
    assert Circuit(3, (layer for layer in _NORMALISED)) == expected
    with pytest.raises(ValueError):
        Circuit(3, ((("H", (np.int64(3),)),),))
    with pytest.raises(ValueError):
        Circuit(3, [(("H", (0,)), ("X", (0,)))])


@pytest.mark.parametrize("n", [1, 20, 70])
def test_letter_code_frames_round_trip_past_63_qubits(n):
    gen = rng(n)
    paulis = [PauliString(n, int(x), int(z), int(k)) for x, z, k in zip(
        (int.from_bytes(gen.bytes(9), "little") & ((1 << n) - 1) for _ in range(6)),
        (int.from_bytes(gen.bytes(9), "little") & ((1 << n) - 1) for _ in range(6)),
        gen.integers(4, size=6),
    )]
    paulis.append(PauliString(n, (1 << n) - 1, 1 << (n - 1), 3))  # the top qubit set
    frame = dv._frame_of(paulis, n)
    assert frame.shape == (n, len(paulis)) and frame.dtype == np.uint8 and frame.flags.c_contiguous
    for col, p in enumerate(paulis):
        assert frame[:, col].tolist() == [((p.xbits >> q) & 1) << 1 | ((p.zbits >> q) & 1) for q in range(n)]
    assert dv._paulis_of(frame, np.array([p.phase for p in paulis])) == paulis


def test_fast_samples_keep_every_bit_past_63_qubits():
    n = 70
    circuit = Circuit(n, ((("X", (0,)), ("X", (1,)), ("X", (n - 1,))),))
    counts = dv.pauli_fastpath_sample(dv.ideal_model(n), circuit, 5, 3).counts
    assert counts == {"11" + "0" * (n - 3) + "1": 5}
    # noisy outcomes are tallied in ascending order
    noisy = dv.noisy_model(3, lambda label, k: ch.depolarizing(0.3, n=k))
    counts = dv.pauli_fastpath_sample(noisy, Circuit(3, ((("X", (1,)),),)), 400, 4).counts
    assert list(counts) == sorted(counts) and len(counts) > 1 and sum(counts.values()) == 400


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


def test_confusion_outside_register_rejected():
    # a confusion matrix keyed to a qubit the model does not have would be
    # ignored by every backend, so the model refuses it by name
    conf = [[0.9, 0.2], [0.1, 0.8]]
    for q in (5, -1, 2):
        with pytest.raises(ValueError, match=f"qubit {q} is outside"):
            GateSetModel(2, confusion={q: conf})
    with pytest.raises(ValueError, match="qubit 2 is outside"):
        dv.ideal_model(2).with_confusion({1: conf, 2: conf})
    assert set(GateSetModel(2, confusion={0: conf, 1: conf}).confusion) == {0, 1}


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

    model = dv.noisy_model(3, nr, gate_factory=cl.clifford_gate_factory)
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


def test_ideal_outcome_bits_match_the_statevector_and_gate_the_fast_path():
    """On random non-mirror circuits, ``ideal_outcome_bits`` is None exactly
    when the ideal output is not a basis state, and is its bit string
    otherwise; the fast path refuses to derive an outcome it lacks."""
    gen = rng(41)
    seen = {True: 0, False: 0}
    for _ in range(120):
        n = int(gen.integers(1, 6))
        circ = _random_clifford_circuit(n, int(gen.integers(1, 5)), gen)
        model = dv.ideal_model(n)
        bits = dv.ideal_outcome_bits(model, circ)
        probs = np.abs(dv.statevector_run(circ, model)) ** 2
        definite = probs.max() >= 1 - 1e-9
        seen[definite] += 1
        assert (bits is not None) == definite
        if definite:
            assert "".join(map(str, bits.tolist())) == format(int(np.argmax(probs)), f"0{n}b")
        else:
            with pytest.raises(ValueError, match="not definite"):
                dv.pauli_fastpath_sample(model, circ, 5, seed=1)
    assert min(seen.values()) >= 20


def _circuit_unitary(model, circuit):
    """The ideal unitary of a circuit, column i the image of basis state i."""
    n = circuit.width
    states = np.eye(2**n, dtype=complex).reshape((2**n,) + (2,) * n)
    for qubits, g in zip(circuit._flat.supports, circuit._flat.key):
        label = dv._PAIRS[g][0]
        states = dv._apply_stacked(states, model.ideal_unitary(label, circuit.gate_defs), qubits)
    return states.reshape(2**n, 2**n).T


def _tableau_inverse_bits(model, circuit):
    """The ideal outcome bits from the inverse of the circuit's tableau,
    built from its unitary: the outcome is definite iff every row
    ``C^dag Z_j C`` of the inverse is Z-type, and bit j is that row's phase
    exponent // 2."""
    n = circuit.width
    inverse = cl.tableau_from_unitary(_circuit_unitary(model, circuit)).inverse()
    if inverse.bits[n:, :n].any():
        return None
    return (inverse.phases[n:] // 2).astype(np.uint8)


def _classical_clifford_circuit(width, depth, gen):
    """Diagonal and permutation gates only, so every outcome is definite."""
    names = {1: ["X", "Z", "S", "SDG", "I"], 2: ["CNOT", "CZ", "SWAP"]}
    layers = []
    for _ in range(depth):
        order = [int(q) for q in gen.permutation(width)]
        layer = []
        while order:
            k = 2 if len(order) > 1 and gen.random() < 0.5 else 1
            layer.append((names[k][int(gen.integers(len(names[k])))], tuple(order.pop() for _ in range(k))))
        layers.append(tuple(layer))
    return Circuit(width, tuple(layers))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    width=st.integers(1, 4),
    families=st.lists(st.sampled_from(["random", "classical", "mirror"]), min_size=1, max_size=4),
    depth=st.integers(0, 6),
    seed=st.integers(0, 2**31),
)
def test_inverse_free_ideal_bits_match_the_tableau_inverse(width, families, depth, seed):
    """The ideal bits from one walk of the generators equal those of the
    inverse tableau, definite or not, for each circuit alone and for the
    circuits side by side in one stacked program."""
    gen = rng(seed)
    model = dv.ideal_model(width)
    circuits = []
    for family in families:
        if family == "random":
            circuits.append(_random_clifford_circuit(width, depth, gen))
        elif family == "classical":
            circuits.append(_classical_clifford_circuit(width, depth, gen))
        else:
            circuits.append(rb.mirror_circuit(rb.LayerSampler(width, twoq_density=0.7), 2 * (depth // 2), gen))
    expected = [_tableau_inverse_bits(model, c) for c in circuits]
    stacked = dv.CliffordProgram._side_by_side(model, circuits)._ideal_bits()
    assert len(stacked) == len(circuits)
    for circuit, want, got in zip(circuits, expected, stacked):
        alone = dv.ideal_outcome_bits(model, circuit)
        for bits in (alone, got):
            assert (bits is None) == (want is None)
            if want is not None:
                assert bits.dtype == np.uint8 and np.array_equal(bits, want)


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


def test_fastpath_signs_check_the_ideal_sign_against_the_circuit():
    """Without pulled_back rows, the ideal sign must be the parity's value
    on the circuit's output, and that output an eigenstate of the measured
    Pauli: X(0), H(0), CNOT(0, 1) gives |Phi->, whose ZZ parity is +1 and
    whose XX parity, read as ZZ after H on both qubits, is -1."""
    model = dv.ideal_model(2)
    phi_minus = ((("X", (0,)),), (("H", (0,)),), (("CNOT", (0, 1)),))
    zz, z0 = PauliString.from_label("ZZ"), PauliString.from_label("ZI")
    xx = Circuit(2, phi_minus + ((("H", (0,)), ("H", (1,))),))
    assert dv.pauli_fastpath_signs(model, Circuit(2, phi_minus), zz, 10, 1, 1).tolist() == [1] * 10
    assert dv.pauli_fastpath_signs(model, xx, zz, 10, 1, -1).tolist() == [-1] * 10
    cases = ((Circuit(2, phi_minus), zz, -1, "does not match"), (xx, zz, 1, "does not match"), (Circuit(2, phi_minus), z0, 1, "eigenstate"))
    for circ, measured, sign, message in cases:
        with pytest.raises(ValueError, match=message):
            dv.pauli_fastpath_signs(model, circ, measured, 10, 1, sign)
        with pytest.raises(ValueError, match=message):
            dv.parity_mean(model, circ, measured, 10, 1, "fast", sign)


@pytest.mark.parametrize("shots", [0, -3])
@pytest.mark.parametrize("backend", ["dense", "fast"])
def test_samplers_reject_shots_below_one(backend, shots):
    model, circ = dv.ideal_model(2), Circuit(2, ((("X", (0,)),),))
    z0 = PauliString.from_label("ZI")
    calls = [
        lambda: dv.sample(model, circ, shots, 1, backend),
        lambda: dv.parity_mean(model, circ, z0, shots, 1, backend, -1),
        dict(dense=lambda: dv.sample_counts(model, circ, shots, 1), fast=lambda: dv.pauli_fastpath_sample(model, circ, shots, 1))[backend],
    ]
    if backend == "fast":
        calls.append(lambda: dv.pauli_fastpath_signs(model, circ, z0, shots, 1, -1))
    else:
        calls.append(lambda: dv.sample_counts_drifting(lambda t: model, circ, shots, 1))
    for call in calls:
        with pytest.raises(ValueError, match="shots must be positive"):
            call()


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


def test_nan_ptm_is_reported_as_not_trace_preserving():
    """A NaN in an explicit gate's PTM makes the outcome sum NaN, which the
    one normalisation check rejects, on one call and in an ensemble."""
    ptm = np.eye(4)
    ptm[3, 0] = np.nan
    model = GateSetModel(1, gates={"N": (ch.Channel(ptm), 1)})
    circ = Circuit(1, ((("N", (0,)),),))
    with pytest.raises(ValueError, match="model is not TP"):
        dv.circuit_probabilities(model, circ)
    with pytest.raises(ValueError, match="model is not TP"):
        dv._sample_ensemble(model, [circ, circ], 10, [1, 2])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_circuit_probabilities_equal_a_checked_distribution(n):
    """The dense distribution, built without ProbDist's re-check, is the
    checked ProbDist of the same probabilities to the byte, and each call
    owns its outcome list."""
    model = dv.noisy_model(n, lambda label, k: ch.depolarizing(0.05 * k, n=k), confusion={0: [[0.9, 0.2], [0.1, 0.8]]})
    circ = _random_clifford_circuit(n, 4, rng(n))
    dist = dv.circuit_probabilities(model, circ)
    checked = ProbDist(list(dist.outcomes), dist.probs.copy())
    assert dist.outcomes == checked.outcomes == [format(i, f"0{n}b") for i in range(2**n)]
    assert dist.probs.dtype == checked.probs.dtype and dist.probs.shape == checked.probs.shape
    assert dist.probs.tobytes() == checked.probs.tobytes()
    dist.outcomes[0] = "mutated"
    dist.outcomes.append("extra")
    assert dv.circuit_probabilities(model, circ).outcomes == checked.outcomes


def _tensordot_reference(state, op, qubits):
    """The tensordot + moveaxis contraction of ``op`` on the axes ``qubits``."""
    k = len(qubits)
    t = op.reshape((state.shape[0],) * (2 * k))
    out = np.tensordot(t, state, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(out, list(range(k)), list(qubits))


def _layouts(stack):
    """A stack of tensors with C-ordered items and with column-major ones,
    its stack axis outermost in both, as in every stack the dense backend
    evolves.  The strided real part of a complex array is left out: no
    caller produces it, since the dense initial state is a C-ordered copy."""
    yield stack
    axes = (0,) + tuple(range(stack.ndim - 1, 0, -1))
    yield stack.transpose(axes).copy().transpose(axes)


@pytest.mark.parametrize("d, widths, dtype", [(4, range(1, 7), float), (2, range(1, 9), complex)])
def test_apply_stacked_matches_tensordot_bit_for_bit(d, widths, dtype):
    """Every item of a one-item or three-item stack, its items C- or
    F-ordered, taking its own operator or one shared by all, is the
    tensordot contraction of that item, to the bit."""
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
                for items in (1, 3):
                    ops = draw((items, d**k, d**k))
                    for states in _layouts(draw((items,) + (d,) * n)):
                        for op in (ops, ops[0]):
                            out = dv._apply_stacked(states, op, qubits)
                            for i in range(items):
                                want = _tensordot_reference(states[i], op if op.ndim == 2 else op[i], qubits)
                                assert np.array_equal(out[i], want), (n, qubits, items)
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

    model = dv.noisy_model(2, nr, gate_factory=cl.clifford_gate_factory)
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


# -- fast-path fault sampling ----------------------------------------------------


def _rate_channel(probs) -> ch.Channel:
    """The Pauli channel with error rates ``probs`` in Pauli index order."""
    return ch.Channel(np.diag(ch.walsh_hadamard(probs, "rates-to-eigenvalues")))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    arities=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    zero_frac=st.sampled_from([0.0, 0.5, 0.9]),
    identity=st.sampled_from([0.0, 1.0, 50.0]),
    seed=st.integers(0, 2**31),
)
def test_hit_search_matches_searchsorted(arities, zero_frac, identity, seed):
    gen = rng(seed)
    rates, ops, defs, q = {}, [], {}, 0
    for i, k in enumerate(arities):
        probs = gen.random(4**k) * (gen.random(4**k) >= zero_frac)
        probs[0] += identity * probs.sum()
        if not probs[1:].any():
            probs[gen.integers(1, 4**k)] = 1.0
        label = f"g{i}"
        rates[label] = probs / probs.sum()
        defs[label] = np.eye(2**k)
        ops.append((label, tuple(range(q, q + k))))
        q += k
    model = dv.noisy_model(q, lambda label, k: _rate_channel(rates[label]))
    circuit = Circuit(q, (tuple(ops),), defs)
    compiled = dv.CliffordProgram(model, circuit).draws
    # one draw row per gate, in gate order
    cdfs = [model._entry("faults", label, len(qubits), defs)[0] for label, qubits in ops]
    rows = []
    for cdf in cdfs:
        exact = cdf[cdf < 1.0]
        row = np.concatenate([[0.0], exact, np.nextafter(exact, 0.0), gen.random(40)])
        rows.append(row)
    width = max(len(row) for row in rows)
    draws = np.array([np.concatenate([row, gen.random(width - len(row))]) for row in rows])
    hit_rows, hit_cols, idx = dv._search_hits(draws, compiled.identity, compiled.dists, compiled.cdfs, compiled.levels)
    # the hits come in row-major order of the draws searched; _hit_blocks
    # searches its rows grouped by circuit and maps each hit back
    want_rows, want_cols = np.nonzero(draws >= compiled.identity[:, None])
    assert np.array_equal(hit_rows, want_rows) and np.array_equal(hit_cols, want_cols)
    got = np.zeros(draws.shape, dtype=np.intp)
    got[hit_rows, hit_cols] = idx
    expected = np.array(
        [[min(np.searchsorted(cdf, u, side="right"), len(cdf) - 1) for u in row] for cdf, row in zip(cdfs, draws)]
    )
    assert np.array_equal(got, expected)
    for cdf, row, found in zip(cdfs, draws, got):
        assert not found[row < cdf[0]].any()  # identity draws give fault 0


def _fast_outputs(model, circ, shots):
    bits = dv.ideal_outcome_bits(model, circ)
    sign = -1 if (int(bits[0]) + int(bits[2])) % 2 else 1
    counts = dv.pauli_fastpath_sample(model, circ, shots, 21).counts
    signs = dv.pauli_fastpath_signs(model, circ, PauliString(circ.width, 0, 0b101, 0), shots, 22, sign)
    return counts, signs.tobytes()


@pytest.mark.parametrize("pre", [False, True], ids=["post", "pre"])
def test_fault_blocks_leave_seeded_samples_unchanged(monkeypatch, pre):
    def nr(lbl, ar):
        return ch.stochastic_pauli((0.01, 0.005, 0.02)) if ar == 1 else ch.stochastic_pauli({"XZ": 0.02, "YI": 0.01})

    n, shots = 5, 10_000
    model = dv.noisy_model(n, nr, idle=ch.stochastic_pauli((0.004, 0.002, 0.006)), pre_gate_noise=pre)
    circ = rb.mirror_circuit(rb.LayerSampler(n, twoq_density=0.7), 10, rng(9))
    assert circ.depth > 2 * (dv._DRAW_BUDGET // (n * shots))  # several blocks at the default budget
    default = _fast_outputs(model, circ, shots)
    for budget in (1, 2**40):  # one layer per block; the whole circuit in one block
        monkeypatch.setattr(dv, "_DRAW_BUDGET", budget)
        assert _fast_outputs(model, circ, shots) == default


@pytest.mark.parametrize("budget", [1, None], ids=["one-layer-blocks", "default"])
def test_stacked_bits_start_from_the_earliest_hit_of_any_circuit(monkeypatch, budget):
    """Each circuit of a stack draws in place into its own run of a block,
    so a block's hits come grouped by circuit, not by layer.  Circuit 0 is
    noiseless in its first three layers, so in one block its hits come
    first but are not the earliest; the stacked output bits still equal
    each circuit's one-item stack's."""
    n, shots, seeds = 2, 50, [11, 12, 13]
    model = dv.noisy_model(n, lambda label, k: None if label == "Z" else ch.stochastic_pauli((0.1, 0.05, 0.15)))
    sampler, gen = rb.LayerSampler(n, twoq_density=1.0), rng(29)
    z = (("Z", (0,)), ("Z", (1,)))
    circuits = [Circuit(n, (z, z, z) + sampler.sample(gen) + sampler.sample(gen)[:1])]
    circuits += [Circuit(n, sum((sampler.sample(gen) for _ in range(3)), ())) for _ in range(2)]
    if budget is not None:
        monkeypatch.setattr(dv, "_DRAW_BUDGET", budget)
    program = dv.CliffordProgram._side_by_side(model, circuits)
    d, blocks = program.draws, list(dv._hit_blocks(program, shots, [rng(s) for s in seeds]))
    first = next(rows for rows, _, _ in blocks if len(rows))
    assert d.layer[first].min() == 0
    if budget is None:  # one block: circuit 0's hits, at layer 3 or later, come first
        assert d.qubits[first[0], 0] // n == 0 and d.layer[first[0]] >= 3
    stacked = dv._fault_parities(program, None, shots, [rng(s) for s in seeds])
    assert stacked.any()
    for circuit, seed, bits in zip(circuits, seeds, stacked):
        assert np.array_equal(bits, dv._fault_parities(dv.CliffordProgram(model, circuit), None, shots, [rng(seed)])[0])


def propagate_faults_reference(model, circuit, shots, gen):
    """The per-shot x bits (n, shots) of one circuit's propagated fault
    frame, drawn from ``gen`` one layer at a time and pushed through the
    gates of every layer: the reference that the output bits of the
    stacked, hit-driven :func:`dv._fault_parities` must match bit for bit."""
    compiled = dv.CliffordProgram(model, circuit).draws
    gates = dv.CliffordProgram(model, circuit).gates
    n = model.n
    frame = np.zeros((n, shots), dtype=np.uint8)
    for t in range(circuit.depth):
        r0, r1 = compiled.starts[t], compiled.starts[t + 1]
        draws = gen.random((r1 - r0, shots))
        rows, cols, idx = dv._search_hits(draws, compiled.identity[r0:r1], compiled.dists[r0:r1], compiled.cdfs, compiled.levels)
        faults = np.zeros((n + 1, shots), dtype=np.uint8)
        faults[compiled.qubits[r0 + rows], cols[:, None]] = compiled.letters[compiled.dists[r0 + rows], idx]
        if model.pre_gate_noise:
            frame ^= faults[:n]
        dv._apply_gate_layer(frame, gates[t])
        if not model.pre_gate_noise:
            frame ^= faults[:n]
    return frame >> 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    width=st.integers(1, 4),
    depth=st.sampled_from([0, 3, 8, 12]),
    shots=st.sampled_from([1, 100]),
    noise=st.sampled_from(["gates", "gates+idle", "idle", "none"]),
    pre=st.booleans(),
    budget=st.sampled_from([None, 1, 150]),
    seed=st.integers(0, 2**31),
)
def test_hit_driven_propagation_matches_every_layer_reference(width, depth, shots, noise, pre, budget, seed):
    def nr(lbl, ar):
        if "gates" not in noise:
            return None
        return ch.stochastic_pauli((0.02, 0.01, 0.03)) if ar == 1 else ch.stochastic_pauli({"XZ": 0.03, "YI": 0.02})

    idle = ch.stochastic_pauli((0.01, 0.0, 0.02)) if "idle" in noise else None
    model = dv.noisy_model(width, nr, idle=idle, pre_gate_noise=pre)
    for sub in range(4):
        circ = _random_clifford_circuit(width, depth, rng(8 * seed + sub))
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:  # 1: a block per layer; 150: one or two layers per block at 100 shots
                mp.setattr(dv, "_DRAW_BUDGET", budget)
            fast_gen, ref_gen = rng(8 * seed + 4 + sub), rng(8 * seed + 4 + sub)
            got = dv._fault_parities(dv.CliffordProgram(model, circ), None, shots, [fast_gen])
        expected = propagate_faults_reference(model, circ, shots, ref_gen)
        assert got.shape == (1, width, shots) and got.dtype == np.uint8
        assert got[0].tobytes() == expected.tobytes()
        assert fast_gen.random() == ref_gen.random()  # the same draws were consumed


_STREAM_INTS = [5, -3, 2**63, 0, 2**64 + 9, 7, 2**62]


def _stream_seeds():
    """Integer seeds, with a fresh Generator at every odd position."""
    return [rng(s) if i % 2 else s for i, s in enumerate(_STREAM_INTS)]


def _stream_circuits(n):
    """Five mirror circuits of one depth, an empty circuit and a
    ``gate_defs`` circuit, which runs as a stack of its own, interleaved."""
    gen, sampler = rng(37), rb.LayerSampler(n, twoq_density=0.7)
    mirrors = [rb.mirror_circuit(sampler, 4, gen) for _ in range(5)]
    x = (("u", (n - 1,)),)
    defined = Circuit(n, mirrors[0].layers + (x, x), {"u": cl.GATE_UNITARIES["X"]})
    return mirrors[:3] + [Circuit(n, ()), defined] + mirrors[3:]


def _stream_reference(model, circuit, shots, seed):
    """``circuit``'s output-bit flips, drawn layer by layer from ``rng(seed)``
    alone (:func:`propagate_faults_reference`), and that generator, which
    draws the readout flips next."""
    gen = rng(seed)
    return propagate_faults_reference(model, circuit, shots, gen), gen


def _stream_budget(monkeypatch, budget, n, shots):
    """Patch ``_DRAW_BUDGET``: 1 gives one-item stacks of one-layer blocks,
    "stacked" stacks of three circuits of one-layer blocks."""
    if budget is not None:
        monkeypatch.setattr(dv, "_DRAW_BUDGET", 3 * n * shots if budget == "stacked" else budget)


@pytest.mark.parametrize("budget", [1, "stacked", None], ids=["one-layer-blocks", "stacked-blocks", "default"])
@pytest.mark.parametrize("confusion", ["none", "symmetric", "asymmetric"])
def test_fast_ensemble_draws_each_circuits_own_stream(monkeypatch, budget, confusion):
    """Each circuit of a fast ensemble draws, bit for bit, the stream of its
    own ``rng(seed)``: its faults layer by layer, then its readout flips,
    though its stack's one generator serves every circuit in turn and
    parks a circuit's state between its blocks and before its readout.
    Integer and Generator seeds mix, and an empty circuit draws its
    readout flips only."""
    n, shots = 3, 50
    model = _fast_ensemble_model(n, "pauli", True, confusion, False)
    circuits = _stream_circuits(n)
    _stream_budget(monkeypatch, budget, n, shots)
    if budget == "stacked":
        spans = [(len(chunk), program.depth // max(1, dv._DRAW_BUDGET // (program.n * shots))) for chunk, program in dv._fast_stacks(model, circuits, shots)]
        assert max(spans) >= (3, 2)  # three circuits that draw in two blocks or more
    records = dv._fast_ensemble(model, circuits, shots, _stream_seeds())
    for circuit, seed, record in zip(circuits, _stream_seeds(), records):
        faults = _stream_reference(model, circuit, shots, seed)
        bits = dv.ideal_outcome_bits(model, circuit)
        assert record == dv.pauli_fastpath_sample(model, circuit, shots, seed, bits, faults=faults)


@pytest.mark.parametrize("budget", [1, "stacked", None], ids=["one-layer-blocks", "stacked-blocks", "default"])
@pytest.mark.parametrize("confusion", ["none", "symmetric"])
def test_fast_signs_draw_each_circuits_own_stream(monkeypatch, budget, confusion):
    """Each circuit's parity signs in ``_fast_signs`` are, bit for bit,
    those its own ``rng(seed)`` stream gives; symmetric confusion sits on
    qubits 0 and 2, so in one stack some circuits draw readout flips after
    a parked state and one that reads qubit 1 alone draws none."""
    n, shots = 3, 50
    model = _fast_ensemble_model(n, "pauli", True, confusion, False)
    circuits = _stream_circuits(n)
    measured = [PauliString(n, 0, z, 0) for z in (0b101, 0b010, 0b001, 0b110, 0b111, 0b010, 0b100)]
    signs = []
    for circuit, m in zip(circuits, measured):
        bits = dv.ideal_outcome_bits(model, circuit)
        signs.append(-1 if sum(int(bits[q]) for q in range(n) if m.zbits >> q & 1) % 2 else 1)
    _stream_budget(monkeypatch, budget, n, shots)
    got = dv._fast_signs(model, circuits, measured, shots, _stream_seeds(), signs)
    for circuit, m, sign, seed, out in zip(circuits, measured, signs, _stream_seeds(), got):
        flips = _stream_reference(model, circuit, shots, seed)
        assert out.tobytes() == dv.pauli_fastpath_signs(model, circuit, m, shots, seed, sign, flips=flips).tobytes()


def test_fast_ensembles_build_one_generator_per_stack(monkeypatch):
    """Accreditation's 328 one-shot traps and a parity ensemble of 40
    circuits build one generator per stack, not one per circuit."""
    def noise(label, arity):
        return ch.stochastic_pauli((0.003, 0.002, 0.004)) if arity == 1 else ch.stochastic_pauli({"XZ": 0.01, "ZI": 0.008})

    model = dv.noisy_model(3, noise)
    sampler, gen = rb.LayerSampler(3, twoq_density=0.6, twoq_gate="CZ"), rng(1313)
    target = [layer for _ in range(3) for layer in sampler.sample(gen)]
    target.append(tuple((rb.clifford_label(1, int(gen.integers(24))), (q,)) for q in range(3)))
    mirrors = [rb.mirror_circuit(sampler, m, gen) for m in (2, 4) for _ in range(20)]
    zz = PauliString(3, 0, 0b101, 0)
    signs = [1 - 2 * ((int(b[0]) + int(b[2])) % 2) for b in (dv.ideal_outcome_bits(model, c) for c in mirrors)]
    keyed, built, stacks = [], [], []
    rng_, philox, fast_stacks = dv.rng, np.random.Philox, dv._fast_stacks

    def spy(*args):
        for chunk, program in fast_stacks(*args):
            stacks.append(len(chunk))
            yield chunk, program

    monkeypatch.setattr(dv, "_fast_stacks", spy)
    monkeypatch.setattr(dv, "rng", lambda seed: keyed.append(seed) or rng_(seed))
    fd.accredit(model, target, 0.15, 0.95, seed=37)
    assert sum(stacks) == fd.trap_count(0.15, 0.95) == 328
    assert len(keyed) <= len(stacks) < 328
    stacks.clear()
    monkeypatch.setattr(np.random, "Philox", lambda *args, **kwargs: built.append(kwargs) or philox(*args, **kwargs))
    dv._fast_signs(model, mirrors, [zz] * len(mirrors), 30, list(range(len(mirrors))), signs)
    assert sum(stacks) == len(mirrors)
    assert len(built) <= len(stacks) < len(mirrors)


def test_fault_free_samples_build_no_gate_tables(monkeypatch):
    circ = rb.mirror_circuit(rb.LayerSampler(3, twoq_density=0.7), 4, rng(2))
    bits = dv.ideal_outcome_bits(dv.ideal_model(3), circ)
    built = []
    tables = dv._gate_tables
    monkeypatch.setattr(dv, "_gate_tables", lambda *args: built.append(1) or tables(*args))

    def rule(rate):
        return lambda lbl, ar: ch.depolarizing(rate, n=ar)

    # noiseless, then noisy with no fault drawn in 5 shots
    models = (dv.ideal_model(3), dv.noisy_model(3, rule(1e-12)))
    for model in models:
        rec = dv.pauli_fastpath_sample(model, circ, 5, 3, ideal_bits=bits)
        assert rec.counts == {"".join(map(str, bits)): 5}
    assert not built
    dv.pauli_fastpath_sample(dv.noisy_model(3, rule(0.5)), circ, 5, 3, ideal_bits=bits)
    assert built == [1]
    # a parity without pulled_back rows walks the generators to check its
    # ideal sign, so it builds the tables; its fault-free shots keep the sign
    z0 = PauliString(3, 0, 1, 0)
    sign = -1 if bits[0] else 1
    for model in models:
        assert dv.pauli_fastpath_signs(model, circ, z0, 5, 3, sign).tolist() == [sign] * 5


def pulled_back_reference(model, circuit, measured):
    """The ``pulled_back`` rows of a Z-type ``measured`` (see
    :func:`dv.pauli_fastpath_signs`), from one walk of the generators.

    Row t is ``measured`` pulled back through layers t..depth-1, which is
    W_t Q W_t^dag for the input Pauli Q = U^dag measured U, U the circuit
    and W_t its layers before layer t.  Up to phase, Q is the product of
    the generators its bits select, so row t is the XOR of those
    generators' codes before layer t.  Conjugation keeps the symplectic
    form, so Q's x bit on qubit q is its form with Z_q, which is the form of
    ``measured`` with U Z_q U^dag: the parity of that image's x bits on the
    measured qubits; its z bit on q is the same with X_q."""
    n, program = model.n, dv.CliffordProgram(model, circuit)
    frame = program._generators()
    codes = program._walk(frame, None, history=True)
    read = [q for q in range(n) if (measured.zbits >> q) & 1]
    form = ((frame[read] >> 1).sum(axis=0) & 1).astype(bool)  # per generator image
    select = np.roll(form, n)  # X_q is selected by Z_q's image, Z_q by X_q's
    return np.bitwise_xor.reduce(codes[:, :, select], axis=2)


def _family_circuit(family, model, depth, gen):
    """A noisy-model circuit drawn the way one protocol draws it, with the
    Z-type Pauli it measures, that Pauli's ideal sign and the ``pulled_back``
    rows the protocol passes (:func:`dv._pulled_back_rows`).  The Pauli, the
    sign and the rows are None for the definite-outcome families (mirror and
    trap); a DFE circuit's rows are None, as DFE passes none."""
    n = model.n
    sampler = rb.LayerSampler(n, twoq_gate="CZ" if family == "trap" else "CNOT", twoq_density=0.8)
    if family == "mirror":
        return rb.mirror_circuit(sampler, depth, gen), None, None, None
    if family == "trap":
        (trap,), _ = fd._traps(n, [sampler.sample(gen)[1] for _ in range(depth // 2 + 1)], 1, gen)
        return trap, None, None, None
    if family == "dfe":  # a stabilizer state's preparation, then the readout of one of its stabilizers
        body = Circuit(n, tuple(layer for _ in range(depth) for layer in sampler.sample(gen)))
        current = dv.propagate_pauli(model, body, PauliString(n, 0, int(gen.integers(1, 2**n)), 0))
        circ = body.then(Circuit(n, (cl.readout_layer(current),)))
        return circ, cl.readout_pauli(current), 1 if current.sign.real > 0 else -1, None
    p = PauliString.from_index(int(gen.integers(1, 4**n)), n)
    prep, sign = cl.eigenstate_layer(p, gen)
    if family == "birb":
        body = Circuit(n, tuple(layer for _ in range(depth) for layer in sampler.sample(gen)))
        (current,), history = dv.CliffordProgram(model, body).propagate([p], history=True)
        history = history[:, :, 0]
    elif family == "cb":  # a fixed cycle, each repetition dressed with random Paulis
        oneq, twoq = sampler.sample(gen)
        layers = []
        for _ in range(depth):
            letters = [("I", "X", "Y", "Z")[int(i)] for i in gen.integers(4, size=n)]
            layers += [tuple((lab, (q,)) for q, lab in enumerate(letters) if lab != "I"), twoq or oneq]
        body = Circuit(n, tuple(layers))
        (current,), history = dv.CliffordProgram(model, body).propagate([p], history=True)
        history = history[:, :, 0]
    else:  # an ACES row: prep, a compiled prefix, readout
        layers = [layer for _ in range(depth) for layer in sampler.sample(gen)]
        gate_set = {op for layer in layers for op in layer if len(op[1]) == 2}
        params, first, _ = cy._aces_parameters(gate_set, n, True)
        prefix = cy._ACESPrefix(model, layers, first)
        body = prefix.circuit
        _, (current,), codes = prefix.rows([p], len(params), None)
        history = codes[:, :, 0]
    sign *= 1 if current.sign.real > 0 else -1
    circ = Circuit(n, (prep,)).then(body).then(Circuit(n, (cl.readout_layer(current),)))
    return circ, cl.readout_pauli(current), sign, dv._pulled_back_rows(history, readout=True)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["mirror", "birb", "trap", "cb", "aces"]),
    width=st.integers(1, 6),
    depth=st.sampled_from([0, 2, 4]),
    pre=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_dense_and_fast_backends_agree_on_noisy_mirror_circuits(family, width, depth, pre, seed):
    def nr(lbl, ar):
        if ar == 1:
            return ch.stochastic_pauli((0.02, 0.01, 0.03))
        return ch.stochastic_pauli({"XI": 0.03, "ZZ": 0.02, "YX": 0.015})

    model = dv.noisy_model(width, nr, idle=ch.stochastic_pauli((0.01, 0.0, 0.02)), pre_gate_noise=pre)
    gen = rng(seed)
    circ, measured, sign, pulled_back = _family_circuit(family, model, depth, gen)
    shots = 4000
    bits = dv.ideal_outcome_bits(model, circ)
    if bits is not None:
        dense = dv.sample(model, circ, shots, seed + 1, "dense").counts
        fast = dv.sample(model, circ, shots, seed + 2, "fast").counts
        # two-sample chi-square over the outcomes, pooling those seen fewer
        # than 10 times in both samples together
        outcomes = sorted(set(dense) | set(fast))
        table = np.array([[dense.get(o, 0) for o in outcomes], [fast.get(o, 0) for o in outcomes]])
        rare = table.sum(axis=0) < 10
        table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] > 1:
            assert chi2_contingency(table).pvalue > 1e-4
    if measured is None:
        mask = int(gen.integers(1, 2**width))
        sign = -1 if sum(int(bits[q]) for q in range(width) if (mask >> q) & 1) % 2 else 1
        measured = PauliString(width, 0, mask, 0)
    d = dv.parity_mean(model, circ, measured, shots, seed + 3, "dense", sign)
    f = dv.parity_mean(model, circ, measured, shots, seed + 4, "fast", sign, pulled_back)
    assert abs(d - f) <= 5 * np.sqrt((2 - d * d - f * f) / shots) + 1e-12


def _parity_rule(lbl, ar):
    if ar == 1:
        return ch.stochastic_pauli((0.04, 0.02, 0.05))
    return ch.stochastic_pauli({"XI": 0.05, "ZZ": 0.04, "YX": 0.03, "IY": 0.02})


def _symmetric_confusion(width, mask, flip=0.1):
    return {q: [[1 - flip, flip], [flip, 1 - flip]] for q in range(width) if (mask >> q) & 1}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["birb", "cb", "aces", "dfe"]),
    supplied=st.booleans(),
    width=st.integers(1, 6),
    depth=st.sampled_from([0, 1, 3, 6]),
    shots=st.sampled_from([1, 100]),
    idle=st.booleans(),
    pre=st.booleans(),
    budget=st.sampled_from([None, 1, 150]),
    confused=st.integers(0, 63),
    seed=st.integers(0, 2**31),
)
def test_fastpath_parities_match_the_propagated_fault_frame(
    family, supplied, width, depth, shots, idle, pre, budget, confused, seed
):
    """``pauli_fastpath_signs``, which counts the hits that anticommute with
    the pulled-back Pauli, gives bit for bit the parity of the propagated
    fault frame's x bits on the read qubits, with each symmetric readout
    flip after it, and consumes the same draws."""
    model = dv.noisy_model(
        width,
        _parity_rule,
        confusion=_symmetric_confusion(width, confused),
        idle=ch.stochastic_pauli((0.03, 0.01, 0.02)) if idle else None,
        pre_gate_noise=pre,
    )
    circ, measured, sign, pulled_back = _family_circuit(family, model, depth, rng(seed))
    if supplied and pulled_back is None:
        pulled_back = pulled_back_reference(model, circ, measured)
    if not supplied:
        pulled_back = None
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(dv, "_DRAW_BUDGET", budget)
        fast_gen, ref_gen = rng(seed + 1), rng(seed + 1)
        signs = dv.pauli_fastpath_signs(model, circ, measured, shots, fast_gen, sign, pulled_back)
    fx = propagate_faults_reference(model, circ, shots, ref_gen)
    parity = np.zeros(shots, dtype=np.uint8)
    for q in range(width):
        if (measured.zbits >> q) & 1:
            parity ^= fx[q]
            if q in model.confusion:
                parity ^= (ref_gen.random(shots) < model.confusion[q][0, 1]).astype(np.uint8)
    expected = (sign * (1 - 2 * parity.astype(np.int8))).astype(np.int8)
    assert signs.dtype == np.int8 and signs.tobytes() == expected.tobytes()
    assert fast_gen.random() == ref_gen.random()  # the same draws were consumed


def test_protocol_rows_equal_the_derived_pull_back():
    """The rows BiRB, CB and ACES pass are the rows the fast path derives
    from the circuit's generators."""
    for family in ("birb", "cb", "aces"):
        for width in range(1, 5):
            for depth in (0, 1, 3):
                model = dv.noisy_model(width, _parity_rule)
                circ, measured, _, rows = _family_circuit(family, model, depth, rng(31 * width + depth))
                derived = pulled_back_reference(model, circ, measured)
                assert rows.dtype == derived.dtype == np.uint8
                assert np.array_equal(rows, derived)


def _exact_parity(model, circ, measured, ideal_sign, pulled_back):
    """The infinite-shot mean of ``pauli_fastpath_signs``: the ideal sign
    times, per draw (each noisy gate and each idle qubit of every layer),
    1 - 2 q, q the probability that its fault anticommutes on its support
    with the pulled-back row where it acts, and per confused measured qubit
    1 - 2 times its flip probability."""
    n, shift = model.n, 0 if model.pre_gate_noise else 1
    value = float(ideal_sign)
    for t, layer in enumerate(circ.layers):
        draws = [(model._entry("faults", label, len(qs), circ.gate_defs), qs) for label, qs in layer]
        busy = {q for _, qs in layer for q in qs}
        draws += [(model._idle_faults, (q,)) for q in range(n) if q not in busy]
        row = pulled_back[t + shift]
        for faults, qs in draws:
            if faults is None:
                continue
            cdf, letters = faults
            r = row[list(qs)]
            anti = (((letters >> 1) & r) ^ (letters & (r >> 1))).sum(axis=1) % 2
            value *= 1 - 2 * (np.diff(cdf, prepend=0.0) @ anti)
    for q in range(n):
        if (measured.zbits >> q) & 1 and q in model.confusion:
            value *= 1 - 2 * model.confusion[q][0, 1]
    return value


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["birb", "cb", "aces", "dfe"]),
    width=st.integers(1, 5),
    depth=st.sampled_from([0, 2, 4]),
    idle=st.booleans(),
    pre=st.booleans(),
    confused=st.integers(0, 31),
    seed=st.integers(0, 2**31),
)
def test_exact_parity_matches_the_dense_backend(family, width, depth, idle, pre, confused, seed):
    """The product over draw rows of the pulled-back anticommutation
    probabilities is the dense backend's exact parity, to 1e-9, for the rows
    a protocol passes and for the derived ones."""
    model = dv.noisy_model(
        width,
        _parity_rule,
        confusion=_symmetric_confusion(width, confused, 0.05),
        idle=ch.stochastic_pauli((0.03, 0.01, 0.02)) if idle else None,
        pre_gate_noise=pre,
    )
    circ, measured, sign, pulled_back = _family_circuit(family, model, depth, rng(seed))
    dist = dv.circuit_probabilities(model, circ)
    read = [q for q in range(width) if (measured.zbits >> q) & 1]
    dense = sum(p * (-1) ** sum(int(bits[q]) for q in read) for bits, p in zip(dist.outcomes, dist.probs))
    derived = pulled_back_reference(model, circ, measured)
    for rows in (pulled_back, derived):
        if rows is not None:
            assert abs(_exact_parity(model, circ, measured, sign, rows) - dense) <= 1e-9


@st.composite
def _side_by_side_stacks(draw):
    """1 to 5 circuits of one width (1 to 6) and depth 0 to 8, empty layers
    included, mixing builtin, ``c1_<i>`` and ``c2_<i>`` gates, each with a
    Pauli of any phase; the circuits' key sets mostly differ."""
    n = draw(st.integers(1, 6))
    circuits, paulis = [], []
    for _ in range(draw(st.integers(1, 5))):
        layers = []
        for _ in range(draw(st.integers(0, 8))):
            free = draw(st.permutations(range(n)))
            layer = []
            while free:
                arity = draw(st.sampled_from((0, 1, 2) if len(free) >= 2 else (0, 1)))
                if arity == 2:
                    label = draw(st.sampled_from(("CNOT", "CZ", "ISWAP", "c2_7", "c2_5000", "c2_11519")))
                    layer.append((label, (free.pop(), free.pop())))
                elif arity == 1:
                    layer.append((draw(st.sampled_from(("H", "S", "Y90M", "c1_3", "c1_17", "c1_23"))), (free.pop(),)))
                else:
                    free.pop()
            layers.append(tuple(layer))
        circuits.append(Circuit(n, tuple(layers)))
        bits = st.integers(0, 2**n - 1)
        paulis.append(PauliString(n, draw(bits), draw(bits), draw(st.integers(0, 3))))
    return circuits, paulis


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_side_by_side_stacks())
def test_side_by_side_propagation_matches_each_circuits_own(stack):
    circuits, paulis = stack
    model = dv.ideal_model(circuits[0].width)
    got = dv._propagate_side_by_side(model, circuits, paulis)
    assert len(got) == len(circuits)
    for circuit, p, (image, history) in zip(circuits, paulis, got):
        (expected,), codes = dv.CliffordProgram(model, circuit).propagate([p], history=True)
        assert image == expected  # letters and phase
        assert history.dtype == np.uint8 and history.shape == (circuit.depth + 1, circuit.width)
        assert np.array_equal(history, codes[:, :, 0])


def test_side_by_side_refuses_gate_defs_and_other_widths():
    model = dv.ideal_model(2)
    plain = Circuit(2, ((("H", (0,)),),))
    defined = Circuit(2, ((("u", (0,)),),), {"u": np.eye(2)})
    with pytest.raises(ValueError, match="gate_defs"):
        dv._propagate_side_by_side(model, [plain, defined], [PauliString.from_label("XZ")] * 2)
    with pytest.raises(ValueError, match="width"):
        dv._propagate_side_by_side(model, [plain, Circuit(3, ())], [PauliString.from_label("XZ")] * 2)


def test_parity_circuits_build_gate_tables_for_their_bodies_only(monkeypatch):
    """BiRB and CB build one set of gate tables per stack of bodies
    (:func:`dv._stack_size` circuits of one depth) and CB one more for its
    cycle's tableau; an ACES prefix builds one, from which a systematic
    prefix also reads its layer's tableau.  Their joined circuits, run
    through the fast path with the rows the protocol passes, build none.
    The stack size changes no result."""
    built = []
    tables = dv._gate_tables
    monkeypatch.setattr(dv, "_gate_tables", lambda *args: built.append(1) or tables(*args))
    sampler = rb.LayerSampler(3, twoq_density=0.7)
    model = dv.noisy_model(3, _parity_rule)
    design = rb.RBDesign((0, 1, 2), (0, 2, 4), 3, 20, seed=5)
    two = dv.noisy_model(2, lambda lbl, ar: ch.depolarizing(0.01, n=ar))
    whole = rb.birb(model, design, sampler)
    assert len(built) == 3  # one stack per depth
    built.clear()
    cb = cy.cycle_benchmark(two, (("CZ", (0, 1)),), ["XI", "ZZ"], (2, 4), 3, 20, seed=6)
    assert len(built) == 1 + 2 * 2  # the cycle's tableau, then Paulis x depths
    monkeypatch.setattr(dv, "_STACK_BUDGET", 2 * 3 * 8)
    assert [dv._stack_size(3, 2 * m) for m in (1, 2, 4)] == [8, 4, 2]
    built.clear()
    split = rb.birb(model, design, sampler)
    assert len(built) == 1 + 1 + 2  # depths 0 and 2 in one stack, depth 4 in two
    assert split["data"].values == whole["data"].values
    monkeypatch.setattr(dv, "_STACK_BUDGET", 2 * 2 * 8)
    assert [dv._stack_size(2, 2 * m) for m in (2, 4)] == [4, 2]
    built.clear()
    cb_split = cy.cycle_benchmark(two, (("CZ", (0, 1)),), ["XI", "ZZ"], (2, 4), 3, 20, seed=6)
    assert len(built) == 1 + 2 * (1 + 2)  # the cycle's tableau, then per Pauli, depth 4 in two stacks
    assert [d.estimates for d in cb_split.decays.values()] == [d.estimates for d in cb.decays.values()]
    built.clear()
    layers = [(("CNOT", (0, 1)),), (("H", (0,)), ("S", (1,)))]
    cy.aces(two, layers, n_circuits=3, depth=2, paulis_per_circuit=4, shots=20, seed=7)
    assert len(built) == len(layers) + 3  # one prefix per gate layer and per random circuit


# -- full-register dense step, shared ideal channels, composed gauges ------------

def _general_apply(state, op, qubits):
    """The general path of ``_apply_stacked`` on one state: transpose
    ``qubits`` to the front, one ``np.dot``, transpose back."""
    perm = tuple(qubits) + tuple(a for a in range(state.ndim) if a not in qubits)
    moved = state.transpose(perm)
    out = np.dot(op, moved.reshape(op.shape[1], -1))
    return out.reshape(moved.shape).transpose(tuple(int(a) for a in np.argsort(perm)))


def _reference_unitary(model, label, gate_defs):
    """A label's unitary from ``gate_factory``, ``gate_defs`` or the builtin
    names, in that order, or None."""
    u = model.gate_factory(label) if model.gate_factory else None
    if u is not None:
        return u
    u = gate_defs.get(label) if gate_defs else None
    if u is not None:
        return u
    return dv.GATE_UNITARIES.get(label)


class ReferenceRecord:
    """One gate label resolved under a model, field by field, as the
    backends read it before the model compiled its gates into tables: the
    reference that the compiled entries are checked against."""

    def __init__(self, model, label, arity, gate_defs):
        self.label, self.explicit = label, None
        if label in model.gates:
            self.explicit, self.arity = model.gates[label]
            u = _reference_unitary(model, label, gate_defs) if self.explicit.unitary is None else self.explicit.unitary
        else:
            u = _reference_unitary(model, label, gate_defs)
            self.arity = len(u).bit_length() - 1
        assert self.arity == arity
        self.ideal = None if u is None else np.asarray(u, dtype=complex)
        self.noise = model.noise_rule(label, arity) if model.noise_rule else None
        self.pre = pre = model.pre_gate_noise
        if self.explicit is not None:
            self.noisy = self.explicit
        elif self.noise is None:
            self.noisy = ch.Channel.from_unitary(self.ideal)
        else:
            noise = self.noise
            ideal = ch.unitary_ptms(self.ideal[None])[0]
            u = None if noise.unitary is None else self.ideal @ noise.unitary if pre else noise.unitary @ self.ideal
            self.noisy = ch.Channel(ideal @ noise.ptm if pre else noise.ptm @ ideal, u)

    @property
    def error(self):
        if self.explicit is None:
            return ch.identity_channel(self.arity) if self.noise is None else self.noise
        ideal = ch.unitary_ptms(self.ideal[None])[0]
        return ch.Channel(ideal.T @ self.explicit.ptm if self.pre else self.explicit.ptm @ ideal.T)

    @property
    def tableau(self):
        return cl.tableau_from_unitary(self.ideal)

    @property
    def conjugation(self):
        return cl.conjugation_table(self.tableau)

    @property
    def faults(self):
        return dv._noise_dist(self.error.ptm, self.label)


def reference_records(model, circuit):
    """Per distinct key of the circuit, in order of first use, its
    :class:`ReferenceRecord`."""
    return {key: ReferenceRecord(model, *dv._PAIRS[key], circuit.gate_defs) for key in dict.fromkeys(circuit._flat.key)}


def reference_draws(model, circuit):
    """The fast path's draw rows of one circuit from its reference records,
    per row its identity probability, layer, padded support, cdf (padded)
    and letters (padded), and the first row of every layer."""
    records, flat, n = reference_records(model, circuit), circuit._flat.arrays, circuit.width
    levels = flat.supports.shape[1]
    faults = [records[key].faults for key in flat.key.tolist()]
    noisy = np.array([f is not None for f in faults], dtype=bool)
    rows = [(t, qs, f) for t, qs, f, keep in zip(flat.layer.tolist(), flat.supports.tolist(), faults, noisy) if keep]
    if model.idle is not None:
        idle = dv._noise_dist(model.idle.ptm, "idle")
        for t, q in zip(*np.nonzero(circuit._flat.idle)):
            rows.append((int(t), [int(q)] + [n] * (levels - 1), idle))
    rows = [rows[i] for i in np.argsort([t for t, _, _ in rows], kind="stable")] if rows else []
    cdfs, letters = np.full((len(rows), 4**levels - 1), np.inf), np.zeros((len(rows), 4**levels, levels), dtype=np.uint8)
    for i, (_, _, (cdf, codes)) in enumerate(rows):
        cdfs[i, : len(cdf) - 1] = cdf[:-1]
        letters[i, : len(codes), : codes.shape[1]] = codes
    layer = np.array([t for t, _, _ in rows], dtype=np.intp)
    qubits = np.array([qs for _, qs, _ in rows], dtype=np.intp).reshape(len(rows), levels)
    identity = np.array([f[0][0] for _, _, f in rows])
    return identity, layer, qubits, cdfs, letters, np.searchsorted(layer, np.arange(circuit.depth + 1))


def dense_reference_state(model, circuit):
    """The superket, shaped ``(4,) * n``, that a per-operation ``np.dot``
    loop leaves on C-ordered copies of the circuit's PTMs: each layer applies
    its gates in order, then the model's idle channel, if any, on the layer's
    idle qubits.  The dense backend's stacked loop gives these bits."""
    ptms = {key: np.ascontiguousarray(rec.noisy.ptm) for key, rec in reference_records(model, circuit).items()}
    key = iter(circuit._flat.key)
    state = np.array(model._superket)
    for layer, idle_qubits in zip(circuit.layers, dv._idle_qubits(model, circuit._flat)):
        for (_, qubits), g in zip(layer, key):
            state = _general_apply(state, ptms[g], qubits)
        for q in idle_qubits:
            state = _general_apply(state, model.idle.ptm, (q,))
    return state


def _one_circuit_state(model, circuit):
    """The superket that ``circuit_probabilities`` evolves for one circuit."""
    return dv._dense_states(model, [circuit], *dv._dense_rows(model, [circuit]))[0]


def test_full_register_step_matches_the_general_path_bit_for_bit():
    gen = rng(11)
    for n in (1, 2, 3):
        full = tuple(range(n))
        assert dv._axis_order(n, full) is None
        for _ in range(3):
            op = ch.random_cptp(2 ** min(n, 2), seed=gen).ptm
            if n == 3:
                op = np.kron(op, ch.random_cptp(2, seed=gen).ptm)
            for states in _layouts(gen.normal(size=(1,) + (4,) * n)):
                assert np.array_equal(dv._apply_stacked(states, op, full)[0], _general_apply(states[0], op, full))
    # a whole-register gate with its qubits out of order transposes
    assert dv._axis_order(2, (1, 0)) is not None
    op = ch.depolarizing(0.1, n=2).compose(ch.Channel.from_unitary(dv.GATE_UNITARIES["CNOT"])).ptm
    state = gen.normal(size=(4, 4))
    assert np.array_equal(dv._apply_stacked(state[None], op, (1, 0))[0], _general_apply(state, op, (1, 0)))
    assert not np.array_equal(dv._apply_stacked(state[None], op, (1, 0)), dv._apply_stacked(state[None], op, (0, 1)))


def test_layer_step_applies_idle_noise_only_to_idle_qubits():
    idle = ch.stochastic_pauli((0.1, 0.0, 0.05))
    model = dv.noisy_model(2, lambda label, arity: None, idle=idle)
    state = np.asarray(model._superket)
    x = ch.Channel.from_unitary(dv.GATE_UNITARIES["X"]).ptm
    cnot = ch.Channel.from_unitary(dv.GATE_UNITARIES["CNOT"]).ptm
    one = _one_circuit_state(model, Circuit(2, ((("X", (0,)),),)))
    assert np.array_equal(one, _general_apply(_general_apply(state, x, (0,)), idle.ptm, (1,)))
    both = _one_circuit_state(model, Circuit(2, ((("CNOT", (1, 0)),),)))
    assert np.array_equal(both, _general_apply(state, cnot, (1, 0)))
    circ = Circuit(2, ((("X", (0,)),),))
    assert dv.circuit_probabilities(model, circ).as_dict()["11"] == pytest.approx(0.1, abs=1e-12)


def test_fixed_ideal_table_never_serves_a_label_defined_elsewhere():
    h, x = dv.GATE_UNITARIES["H"], dv.GATE_UNITARIES["X"]
    p_h = ch.Channel.from_unitary(h).ptm
    # a custom factory, an explicit gate and a circuit's gate_defs each define c1_3
    custom = GateSetModel(1, gate_factory=lambda label: h if label == "c1_3" else None)
    explicit = GateSetModel(1, gates={"c1_3": (ch.Channel.from_unitary(h), 1)})
    inline = GateSetModel(1, gate_factory=lambda label: None)
    defs = {"c1_3": h, "X": h}
    assert not np.array_equal(dv.ideal_model(1).resolve("c1_3", 1).ptm, p_h)
    for model, gate_defs in ((custom, None), (explicit, None), (inline, defs)):
        assert np.array_equal(model.resolve("c1_3", 1, gate_defs).ptm, p_h)
    # gate_defs shadowing a builtin name
    assert np.array_equal(inline.resolve("X", 1, defs).ptm, p_h)
    # a custom factory that leaves a builtin name alone gets the builtin
    assert np.array_equal(custom.resolve("X", 1).ptm, ch.Channel.from_unitary(x).ptm)


_STACKED_GATES = st.one_of(
    st.integers(0, 11519).map(lambda i: (f"c2_{i}", 2)),
    st.integers(0, 23).map(lambda i: (f"c1_{i}", 1)),
    st.sampled_from(["H", "X90", "S", "CNOT", "CZ", "ISWAP"]).map(lambda name: (name, len(dv.GATE_UNITARIES[name]).bit_length() - 1)),
    st.tuples(st.integers(0, 2), st.integers(1, 2)).map(lambda ik: (f"u{ik[1]}_{ik[0]}", ik[1])),  # inline gate_defs
)


def _label_noise(kind: str):
    """A noise rule that builds a fresh channel on every call, fixed per label."""

    def rule(label, k):
        if kind == "none" or (kind == "mixed" and k == 1):
            return None
        seed = zlib.crc32(label.encode())
        if kind == "coherent":
            return ch.Channel.from_unitary(haar_random_unitary(2**k, seed))
        return ch.random_cptp(2**k, seed)

    return rule


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    gates=st.lists(_STACKED_GATES, min_size=1, max_size=8),
    noise=st.sampled_from(["none", "fresh", "coherent", "mixed"]),
    pre=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_stacked_noisy_channels_match_the_per_record_reference(gates, noise, pre, seed):
    """The dense backend's one stacked pass builds, bit for bit, what
    ``from_kraus([u])`` composed with the label's noise gives, for every mix
    of fixed, ``c2_<i>`` and inline labels, arities and noise placements."""
    gen = rng(seed)
    defs = {label: haar_random_unitary(2**k, seed + i) for i, (label, k) in enumerate(gates) if label[0] == "u"}
    layers = tuple(((label, tuple(int(q) for q in gen.permutation(3)[:k])),) for label, k in gates)
    circuit = Circuit(3, layers, defs or None)
    rule = _label_noise(noise)
    model = dv.noisy_model(3, rule, pre_gate_noise=pre)
    state = _one_circuit_state(model, circuit)
    noisy = model._tables["noisy"]
    assert not any(noisy.row[key] >= 0 for key in circuit._flat.key if dv._PAIRS[key][0] in defs)  # labels that gate_defs name are not kept
    entries, (rows,) = dv._gathered(model, "noisy", [(circuit._flat.key, defs)])  # builds the inline labels afresh, in their own stacked pass
    reference = {}
    for key, row in dict(zip(circuit._flat.key, rows.tolist())).items():
        label, arity = dv._PAIRS[key]
        ptm, noisy = entries[arity][0][row], model.resolve(label, arity, defs)
        u = model.ideal_unitary(label, defs)
        ideal = ch.Channel.from_kraus([u])
        ideal.unitary = u
        error = rule(label, arity)
        want = ideal if error is None else ideal.compose(error) if pre else error.compose(ideal)
        assert np.array_equal(noisy.ptm, want.ptm) and np.array_equal(ptm, want.ptm)
        assert (noisy.unitary is None) == (want.unitary is None)
        assert want.unitary is None or np.array_equal(noisy.unitary, want.unitary)
        reference[label] = (want, arity)
    # the dense run applied those channels: the references, given as explicit gates, give its bits
    assert np.array_equal(dense_reference_state(GateSetModel(3, gates=reference), circuit), state)


_CLIFFORD_GATES = st.one_of(
    st.integers(0, 11519).map(lambda i: (f"c2_{i}", 2)),
    st.integers(0, 23).map(lambda i: (f"c1_{i}", 1)),
    st.sampled_from([("H", 1), ("X90", 1), ("S", 1), ("CNOT", 2), ("CZ", 2), ("ISWAP", 2)]),
    st.sampled_from([("w1", 1), ("w2", 2), ("X", 1)]),  # inline gate_defs, one shadowing a builtin name
)
_INLINE = {"w1": dv.GATE_UNITARIES["S"], "w2": dv.GATE_UNITARIES["CNOT"], "X": dv.GATE_UNITARIES["H"]}


def _pauli_rule(label, k):
    return ch.stochastic_pauli((0.02, 0.01, 0.03)) if k == 1 else ch.stochastic_pauli({"XI": 0.02, "ZY": 0.01})


def _clifford_model(n, kind, pre, idle):
    idle = ch.stochastic_pauli((0.01, 0.0, 0.02)) if idle else None
    if kind == "explicit":  # CZ explicit with Pauli noise, every other gate by the rule
        cz = ch.Channel(_pauli_rule("CZ", 2).ptm @ ch.Channel.from_unitary(dv.GATE_UNITARIES["CZ"]).ptm)
        cz.unitary = dv.GATE_UNITARIES["CZ"]
        return GateSetModel(n, gates={"CZ": (cz, 2)}, noise_rule=_pauli_rule, idle=idle, pre_gate_noise=pre)
    return dv.noisy_model(n, _pauli_rule if kind == "pauli" else None, idle=idle, pre_gate_noise=pre)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    circuits=st.lists(st.lists(st.lists(_CLIFFORD_GATES, max_size=3), max_size=4), min_size=1, max_size=3),
    kind=st.sampled_from(["ideal", "pauli", "explicit"]),
    pre=st.booleans(),
    idle=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_compiled_entries_match_the_per_record_reference(n, circuits, kind, pre, idle, seed):
    """Random Clifford circuits, run one after another on one model, read
    from its compiled tables, bit for bit, what per-record resolution
    (:class:`ReferenceRecord`) gives: the dense state, every gate's
    conjugation tables, the fast path's draw rows and the statevector."""
    gen, model = rng(seed), _clifford_model(n, kind, pre, idle)
    for gates in circuits:
        layers = []
        for layer_gates in gates:
            free, layer = list(gen.permutation(n)), []
            for label, k in layer_gates:
                if k <= len(free):
                    layer.append((label, tuple(int(free.pop()) for _ in range(k))))
            layers.append(tuple(layer))
        used = {label for layer in layers for label, _ in layer}
        circuit = Circuit(n, tuple(layers), {k: v for k, v in _INLINE.items() if k in used})
        records = reference_records(model, circuit)
        assert np.array_equal(_one_circuit_state(model, circuit), dense_reference_state(model, circuit))
        psi = np.zeros((1,) + (2,) * n, dtype=complex)
        psi.flat[0] = 1.0
        for qubits, key in zip(circuit._flat.supports, circuit._flat.key):
            psi = dv._apply_stacked(psi, records[key].ideal, qubits)
        assert np.array_equal(dv.statevector_run(circuit, model), psi.reshape(-1))
        program, flat = dv.CliffordProgram(model, circuit), circuit._flat.arrays
        for t, groups in enumerate(program.gates):
            ops = np.flatnonzero(flat.layer == t)
            assert sorted(len(rows) for rows, *_ in groups) == sorted(set(flat.arity[ops].tolist()))
            for rows, offsets, images, phases in groups:
                k, sel = len(rows), ops[flat.arity[ops] == len(rows)]
                assert np.array_equal(np.array(rows).T, flat.supports[sel, :k])
                for op, offset in zip(sel, offsets[:, 0].tolist()):
                    want_images, want_phases = records[int(flat.key[op])].conjugation
                    assert all(np.array_equal(image[offset : offset + 4**k], want) for image, want in zip(images, want_images))
                    assert np.array_equal(phases[offset : offset + 4**k], want_phases)
        draws = program.draws
        identity, layer, qubits, cdfs, letters, starts = reference_draws(model, circuit)
        assert np.array_equal(draws.identity, identity) and np.array_equal(draws.layer, layer)
        assert np.array_equal(draws.qubits, qubits) and np.array_equal(draws.starts, starts)
        assert np.array_equal(draws.cdfs[draws.dists], cdfs) and np.array_equal(draws.letters[draws.dists], letters)


def test_run_crb_compiles_each_key_once(monkeypatch):
    """On a fresh 2q model, one ``run_crb`` builds the noisy PTM of each
    distinct key of its circuits exactly once, and a second call on the same
    model builds none."""
    built, build = [], dv._FIELDS["noisy"]
    monkeypatch.setitem(dv._FIELDS, "noisy", lambda model, keys, arity: built.extend(keys) or build(model, keys, arity))
    model = dv.noisy_model(2, lambda label, k: ch.depolarizing(0.01, n=k))
    design = rb.RBDesign((0, 1), (0, 2, 5), 6, 20, seed=17)
    rb.run_crb(model, design)
    used = {key for _, circuit, _ in rb.crb_circuits(design) for key in circuit._flat.key}
    assert len(built) == len(set(built)) == len(used) and set(built) == used
    built.clear()
    rb.run_crb(model, design)
    assert built == []


def _depolarized_h_model():
    gate = ch.depolarizing(0.1).compose(ch.Channel.from_unitary(dv.GATE_UNITARIES["H"]))
    return GateSetModel(1, gates={"G": (gate, 1)})


def test_gauges_compose_and_survive_replace():
    model = _depolarized_h_model()
    circ = Circuit(1, ((("G", (0,)),),))
    p0 = dv.circuit_probabilities(model, circ).probs
    assert np.allclose(p0, [0.5, 0.5], atol=1e-12)
    gen = rng(8)
    m1, m2 = (np.eye(4) + 0.2 * gen.normal(size=(4, 4)) for _ in range(2))
    once = dv.apply_gauge(model, m1)
    for variant in (dv.apply_gauge(once, m2), once.replace(), dv.apply_gauge(once.replace(), m2)):
        assert np.allclose(dv.circuit_probabilities(variant, circ).probs, p0, atol=1e-12)
    # readout confusion on a gauged model acts as on the parent
    conf = {0: [[0.9, 0.2], [0.1, 0.8]]}
    assert np.allclose(
        dv.circuit_probabilities(once.with_confusion(conf), circ).probs,
        dv.circuit_probabilities(model.with_confusion(conf), circ).probs,
        atol=1e-12,
    )


def test_gauge_rejects_what_it_cannot_transform():
    x_on_0 = ch.Channel.from_unitary(np.kron(dv.GATE_UNITARIES["X"], np.eye(2)))
    idle = ch.stochastic_pauli((0.2, 0, 0))
    model = GateSetModel(2, gates={"XI": (x_on_0, 2)}, idle=idle)
    circ = Circuit(2, ((("X", (0,)),),))
    assert np.allclose(dv.circuit_probabilities(model, circ).probs, [0, 0, 0.8, 0.2], atol=1e-12)
    # the idle channel acts on a single qubit, which a full-register gauge does not reach
    with pytest.raises(ValueError, match="idle"):
        dv.apply_gauge(model, np.eye(16))
    gauged = dv.apply_gauge(model.replace(idle=None), np.eye(16))
    with pytest.raises(ValueError, match="idle"):
        gauged.replace(idle=idle)
    # labels outside the explicit gates would act ungauged
    defs = {"u": np.eye(2)}
    for label in ("X", "c1_3", "u"):
        with pytest.raises(ValueError, match="explicit gates"):
            dv.circuit_probabilities(gauged, Circuit(2, (((label, (0,)),),), defs))
    p0 = dv.circuit_probabilities(model.replace(idle=None), Circuit(2, ((("XI", (0, 1)),),))).probs
    assert np.allclose(dv.circuit_probabilities(gauged, Circuit(2, ((("XI", (0, 1)),),))).probs, p0, atol=1e-12)


def _random_clifford_circuit(width, depth, gen):
    oneq = ["H", "S", "SDG", "X90", "Y90M", "Z"] + [f"c1_{i}" for i in range(24)]
    twoq = ["CNOT", "CZ", "SWAP", "ISWAP", "c2_17", "c2_4000", "c2_11519"]
    layers = []
    for _ in range(depth):
        order = [int(q) for q in gen.permutation(width)]
        layer = []
        while order:
            if len(order) > 1 and gen.random() < 0.5:
                layer.append((twoq[int(gen.integers(len(twoq)))], (order.pop(), order.pop())))
            else:
                layer.append((oneq[int(gen.integers(len(oneq)))], (order.pop(),)))
        layers.append(tuple(layer))
    return Circuit(width, tuple(layers))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(width=st.integers(1, 3), depth=st.integers(0, 6), seed=st.integers(0, 2**31))
def test_statevector_and_dense_agree_on_ideal_clifford_circuits(width, depth, seed):
    circ = _random_clifford_circuit(width, depth, rng(seed))
    sv = dv.ideal_probabilities(circ)
    dense = dv.circuit_probabilities(dv.ideal_model(width), circ)
    assert sv.outcomes == dense.outcomes
    assert np.abs(sv.probs - dense.probs).max() < 1e-10


def test_shot_record_keeps_its_circuit_until_read():
    circ = Circuit(2, ((("H", (0,)), ("X", (1,))), (("CNOT", (0, 1)),)))
    lazy = ShotRecord(circ, {"00": 3, "11": 1}, 4, 7)
    eager = ShotRecord(circ.to_json(), {"11": 1, "00": 3}, 4, 7)
    assert lazy._circuit is circ  # nothing serialised yet
    assert lazy == eager and eager == lazy
    assert lazy.circuit_id == circ.to_json() and lazy._circuit == circ.to_json()
    assert ShotRecord(circ, {"00": 4}, 4, 7).to_json() == ShotRecord(circ.to_json(), {"00": 4}, 4, 7).to_json()
    assert ShotRecord.from_json(lazy.to_json()) == lazy
    assert ShotRecord(**json.loads(ShotRecord(circ, {"00": 4}, 4, 7, 2).to_json())).timestamp_index == 2
    assert ShotRecord(circ, {"00": 4}, 4, 7) != ShotRecord(circ, {"00": 4}, 4, 8)
    assert repr(lazy) == f"ShotRecord(circuit_id={circ.to_json()!r}, counts={lazy.counts!r}, shots=4, seed=7, timestamp_index=0)"
    with pytest.raises(AttributeError):
        lazy.shots = 5
    with pytest.raises(TypeError):
        hash(lazy)
    fresh = ShotRecord(circ, {"00": 4}, 4, 7)
    clone = copy.copy(fresh)
    assert clone._circuit is circ  # a copy keeps the circuit, unserialised
    assert pickle.loads(pickle.dumps(fresh)) == clone == fresh
    # the samplers hand over the circuit and write the same record
    model = dv.noisy_model(2, lambda label, k: ch.depolarizing(0.05, n=k))
    rec = dv.sample_counts(model, circ, 50, 3)
    assert rec.to_json() == ShotRecord(circ.to_json(), rec.counts, 50, 3).to_json()


def test_drifting_sampler_stores_a_normalised_seed():
    def model_at(t):
        return dv.noisy_model(1, lambda l, a: ch.depolarizing(0.02 + 0.3 * t))

    circ = Circuit(1, tuple((("X90", (0,)),) for _ in range(4)))
    plain = dv.sample_counts_drifting(model_at, circ, 400, 3, segments=4)
    wide = dv.sample_counts_drifting(model_at, circ, 400, np.int64(3), segments=4)
    assert type(wide.seed) is int and wide == plain and wide.to_json() == plain.to_json()
    drawn = dv.sample_counts_drifting(model_at, circ, 400, np.random.default_rng(3), segments=4)
    assert drawn.seed == -1 and json.loads(drawn.to_json())["seed"] == -1


def _splice(width, pieces):
    """Circuits on disjoint qubit subsets, layer by layer, as simultaneous RB joins them."""
    depth = max(circ.depth for circ, _ in pieces)
    layers = []
    for t in range(depth):
        layers.append(tuple((lbl, tuple(sub[q] for q in qs)) for circ, sub in pieces if t < circ.depth for lbl, qs in circ.layers[t]))
    return Circuit(width, tuple(layers))


def _ensemble_case(kind, n, seed):
    """Circuits of one ensemble call: RB designs, embedded and spliced
    simultaneous-RB circuits, circuits with gate_defs or of mixed shapes."""
    gen = rng(seed)
    per = int(gen.integers(1, 4))
    if kind in ("crb", "irb", "gauged"):
        width = 1 if kind == "gauged" else min(n, 2)
        gate = None if kind != "irb" else ("S" if width == 1 else "CZ")
        design = rb.RBDesign(tuple(range(width)), (0, 1, 3), per, 10, seed)
        return [circ for _, circ, _ in rb.crb_circuits(design, interleave=gate)]
    if kind == "srb":
        order = [int(q) for q in gen.permutation(n)]
        subs = [tuple(order[:1]), tuple(order[1:3])] if n > 2 else [tuple(order[:1]), tuple(order[1:])]
        sets = [rb.crb_circuits(rb.RBDesign(sub, (0, 1, 2), per, 10, seed + i)) for i, sub in enumerate(subs)]
        embedded = [rb._embed_circuit(circ, n, sub) for sub, cs in zip(subs, sets) for _, circ, _ in cs]
        joint = [_splice(n, [(cs[j][1], sub) for sub, cs in zip(subs, sets)]) for j in range(len(sets[0]))]
        return embedded + joint
    shapes = [_random_clifford_circuit(n, int(gen.integers(0, 4)), gen) for _ in range(3)]
    circuits = []
    for t in gen.integers(0, 3, size=2 * per + 1).tolist():  # some shapes repeat, some stay alone
        layers = tuple(tuple((f"c{len(qs)}_{int(gen.integers(24 if len(qs) == 1 else 11520))}", qs) for _, qs in layer) for layer in shapes[t].layers)
        circuits.append(Circuit(n, layers))
    if kind == "defs":
        layers = tuple(tuple(("u" if len(qs) == 1 else lbl, qs) for lbl, qs in layer) for layer in shapes[0].layers)
        circuits += [Circuit(n, layers, {"u": haar_random_unitary(2, seed + i)}) for i in range(2)]
    return circuits


def _ensemble_model(kind, n, noise, idle, confusion, pre):
    if kind == "gauged":
        gates = {}
        for i in range(24):
            label = f"c1_{i}"
            chan = ch.random_cptp(2, zlib.crc32(label.encode())).compose(ch.Channel.from_unitary(cl.clifford_gate_factory(label)))
            gates[label] = (chan, 1)
        gauge = np.eye(4) + 0.1 * rng(5).normal(size=(4, 4))
        return dv.apply_gauge(GateSetModel(1, gates=gates, confusion={0: [[0.9, 0.2], [0.1, 0.8]]} if confusion else None), gauge)
    rule = {
        "depolarizing": lambda label, k: ch.depolarizing(0.02 * k, n=k),
        "coherent": lambda label, k: ch.Channel.from_unitary(haar_random_unitary(2**k, zlib.crc32(label.encode()))),
        "cptp": _label_noise("fresh"),
    }[noise]
    conf = {q: [[0.95 - 0.01 * q, 0.1], [0.05 + 0.01 * q, 0.9]] for q in range(n)} if confusion else None
    return dv.noisy_model(n, rule, confusion=conf, idle=ch.stochastic_pauli((0.01, 0.02, 0.005)) if idle else None, pre_gate_noise=pre)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["crb", "irb", "srb", "gauged", "defs", "mixed"]),
    n=st.integers(1, 4),
    noise=st.sampled_from(["depolarizing", "coherent", "cptp"]),
    idle=st.booleans(),
    confusion=st.booleans(),
    pre=st.booleans(),
    budget=st.sampled_from([None, 64]),
    seed=st.integers(0, 2**31),
)
def test_ensemble_sampling_matches_per_circuit_sample_counts(kind, n, noise, idle, confusion, pre, budget, seed):
    """``_sample_ensemble`` gives every circuit the record of its own
    ``sample_counts`` call, through one ``circuit_probabilities`` call with a
    superket equal, to the bit, to the circuit's own dense state: stacked
    full-register and embedded (partially supported) RB circuits, idle
    noise, readout confusion, pre-gate noise, a gauged model, circuits with
    gate_defs and lists of mixed shapes, in whole and split stacks."""
    if kind == "srb":
        n = max(n, 2)
    elif kind in ("crb", "irb"):
        n = min(n, 2)
    circuits = _ensemble_case(kind, n, seed)
    n = circuits[0].width
    seeds = [int(s) for s in rng(seed + 1).integers(2**62, size=len(circuits))]
    model = _ensemble_model(kind, n, noise, idle, confusion, pre)
    reference = _ensemble_model(kind, n, noise, idle, confusion, pre)
    size = dv._ENSEMBLE_BUDGET
    dv._ENSEMBLE_BUDGET = budget or size
    try:
        _check_ensemble(model, reference, circuits, seeds)
    finally:
        dv._ENSEMBLE_BUDGET = size


def test_ensemble_sampling_takes_integer_and_generator_seeds():
    """A mixed list of integer and Generator seeds gives each circuit the
    record of its own ``sample_counts`` call: the ensemble re-keys its one
    generator for each integer seed, also for stacks that come back out of
    circuit order, and draws from each Generator seed as it is."""
    circuits = _ensemble_case("mixed", 2, 9)
    assert [i for i, _ in dv._ensemble_states(GateSetModel(2), circuits)] != list(range(len(circuits)))
    model = _ensemble_model("mixed", 2, "depolarizing", True, True, False)
    ints = [5, -3, 2**63, 0, 2**64 + 9, 7, 2**62]

    def seeds():
        return [rng(s) if i % 2 else s for i, s in enumerate(ints[: len(circuits)])]

    records = dv._sample_ensemble(model, circuits, 40, seeds())
    assert records == [dv.sample_counts(model, c, 40, s) for c, s in zip(circuits, seeds())]
    assert [r.seed for r in records] == [-1 if i % 2 else s for i, s in enumerate(ints[: len(circuits)])]


def _check_ensemble(model, reference, circuits, seeds, shots=25):
    """``_sample_ensemble`` on ``model`` gives each circuit the record of its
    own ``sample_counts`` call on ``reference``, through one
    ``circuit_probabilities`` call whose superket is, to the bit, the
    ``np.dot`` reference state and the circuit's own one-item stack."""
    seen, original = [], dv.circuit_probabilities

    def spy(model, circuit, *, superket=None):
        seen.append((circuit, superket))
        return original(model, circuit, superket=superket)

    dv.circuit_probabilities = spy
    try:
        records = dv._sample_ensemble(model, circuits, shots, seeds)
    finally:
        dv.circuit_probabilities = original
    assert records == [dv.sample_counts(reference, c, shots, s) for c, s in zip(circuits, seeds)]
    assert sorted(map(id, circuits)) == sorted(id(c) for c, _ in seen)  # one call per circuit
    for circuit, superket in seen:
        assert np.array_equal(superket, dense_reference_state(reference, circuit))
        assert np.array_equal(superket, _one_circuit_state(reference, circuit))


def test_f_ordered_ptm_evolves_as_its_c_ordered_copy():
    """An explicit gate whose PTM is F-ordered gives, per circuit and in a
    stack, the superket that a C-ordered copy of its PTM gives."""
    gen = rng(4)
    ptms = {label: np.ascontiguousarray(ch.random_cptp(4, seed).ptm) for label, seed in zip("ABC", (0, 1, 9))}
    fortran = GateSetModel(2, gates={label: (ch.Channel(np.asfortranarray(p) if label != "C" else p), 2) for label, p in ptms.items()})
    c_ordered = GateSetModel(2, gates={label: (ch.Channel(p), 2) for label, p in ptms.items()})
    assert not fortran.resolve("A", 2).ptm.flags.c_contiguous
    for support in ((0, 1), (1, 0)):
        circuits = [Circuit(2, tuple(((str(gen.choice(list(labels))), support),) for _ in range(4))) for labels in ("AC", "C", "C", "BC")]
        for circuit in circuits:
            assert np.array_equal(_one_circuit_state(fortran, circuit), _one_circuit_state(c_ordered, circuit))
        stacked = dv._dense_states(fortran, circuits, *dv._dense_rows(fortran, circuits))
        assert np.array_equal(stacked, dv._dense_states(c_ordered, circuits, *dv._dense_rows(c_ordered, circuits)))
        _check_ensemble(fortran, c_ordered, circuits, [1, 2, 3, 4])


def test_ensemble_keeps_each_circuits_gate_defs(monkeypatch):
    """Circuits of one shape whose ``gate_defs`` give the label ``u``
    different unitaries share one stack, in which each circuit's ``u`` has
    its own row, not one per label: with one seed, each gets the record of its own
    ``sample_counts`` call, and no two get the same counts."""
    model = dv.noisy_model(2, lambda label, k: ch.depolarizing(0.02 * k, n=k))
    layers = ((("u", (0,)), ("H", (1,))), (("CNOT", (0, 1)),), (("u", (1,)),))
    circuits = [Circuit(2, layers, {"u": haar_random_unitary(2, seed)}) for seed in range(5)]
    stacks, original = [], dv._dense_states

    def spy(model, circuits, *rows):
        stacks.append(len(circuits))
        return original(model, circuits, *rows)

    monkeypatch.setattr(dv, "_dense_states", spy)
    records = dv._sample_ensemble(model, circuits, 400, [7] * 5)
    assert stacks == [5]
    monkeypatch.undo()
    assert records == [dv.sample_counts(model, c, 400, 7) for c in circuits]
    assert len({tuple(sorted(r.counts.items())) for r in records}) == 5


def test_ensemble_gate_defs_stay_with_their_circuit():
    """A circuit whose ``gate_defs`` redefine a builtin name lends that gate
    to no other circuit of its ensemble: a later circuit that uses the
    builtin name, or defines it otherwise, evolves under its own gate, and
    each state and record is that of the circuit's own call."""
    model = dv.noisy_model(2, lambda label, k: ch.depolarizing(0.02 * k, n=k))
    layers = ((("X", (0,)), ("H", (1,))), (("CNOT", (0, 1)),), (("X", (1,)),))
    circuits = [
        Circuit(2, layers, {"X": dv.GATE_UNITARIES["H"]}),
        Circuit(2, layers),
        Circuit(2, layers, {"X": haar_random_unitary(2, 3)}),
        Circuit(2, layers),
    ]
    probs = [dv.circuit_probabilities(model, c).probs for c in circuits]
    assert not np.allclose(probs[0], probs[1]) and np.array_equal(probs[1], probs[3])
    for i, state in dv._ensemble_states(model, circuits):
        assert np.array_equal(dv.circuit_probabilities(model, circuits[i], superket=state).probs, probs[i])
    assert dv._sample_ensemble(model, circuits, 300, [5] * 4) == [dv.sample_counts(model, c, 300, 5) for c in circuits]


def test_distinct_inline_labels_build_in_one_pass(monkeypatch):
    """The inline gates of a QV ensemble, whose circuits name different
    labels, are built on one copy of the model, in one noisy pass, and
    appended to the model's rows once, and so are their ideal unitaries
    for the ensemble's statevectors; circuits that give one label
    different unitaries take a copy each."""
    model = dv.noisy_model(3, _depolarizing_rule)
    circuits = qv_circuits(3, 6, 11)
    copies, defined = [], GateSetModel._defined
    monkeypatch.setattr(GateSetModel, "_defined", lambda self, defs: copies.append(defs) or defined(self, defs))
    states = dict(dv._ensemble_states(model, circuits))
    assert len(copies) == 1 and len(copies[0]) == sum(len(c.gate_defs) for c in circuits)
    for i, circuit in enumerate(circuits):
        assert np.array_equal(states[i], _one_circuit_state(dv.noisy_model(3, _depolarizing_rule), circuit))
    copies.clear()
    amplitudes = list(dv._statevectors(model, circuits))  # the ideal unitaries too
    assert len(copies) == 1
    for amps, circuit in zip(amplitudes, circuits):
        assert np.array_equal(amps, dv.statevector_run(circuit, model))
    copies.clear()
    clashing = [Circuit(1, ((("u", (0,)),),), {"u": haar_random_unitary(2, seed)}) for seed in range(3)]
    dict(dv._ensemble_states(dv.ideal_model(1), clashing))
    assert len(copies) == 3


def _depolarizing_rule(label, k):  # a module-level noise rule, which pickles
    return ch.depolarizing(0.03 * k, n=k)


def test_pickled_circuits_and_models_load_under_another_numbering(monkeypatch):
    """Keys are numbered per process, in order of first use, so a pickled
    circuit, a record that holds one and a model with compiled tables load
    as they were into a registry that numbers their labels otherwise, as
    another process's would."""
    model = dv.noisy_model(2, _depolarizing_rule)
    circuit = Circuit(2, ((("X90", (0,)), ("c1_5", (1,))), (("CZ", (0, 1)),), (("u", (1,)),)), {"u": haar_random_unitary(2, 4)})
    want = dv.circuit_probabilities(model, circuit).probs
    blob = pickle.dumps((circuit, ShotRecord(circuit, {"00": 3}, 3, 1), model))
    monkeypatch.setattr(dv, "_KEYS", {})
    monkeypatch.setattr(dv, "_PAIRS", [])
    dv._numbered(["CZ", "u", "c1_5", "c1_0", "X90"], [2, 1, 1, 1, 1])
    back, record, loaded = pickle.loads(blob)
    assert [dv._PAIRS[key] for key in back._flat.key] == [(label, len(qs)) for label, qs in chain.from_iterable(circuit.layers)]
    assert back == circuit and record.circuit_id == circuit.to_json() and loaded._tables == {}
    assert np.array_equal(dv.circuit_probabilities(loaded, back).probs, want)


def test_one_shape_built_apart_is_one_stack(monkeypatch):
    """Circuits of one shape share a dense stack however each was built:
    CRB circuits assembled by two generator calls and checked copies of
    them, rebuilt from lists, interleaved with circuits of another shape,
    evolve in one ``_dense_states`` call per shape, each with the records
    of its own ``sample_counts`` call."""
    model = dv.noisy_model(2, lambda label, k: ch.depolarizing(0.02 * k, n=k), idle=ch.stochastic_pauli((0.01, 0.0, 0.02)))
    short, long = ([c for d, c, _ in rb.crb_circuits(rb.RBDesign((0, 1), (1, 2, 3), 3, 10, seed=m)) if d == m] for m in (1, 3))
    checked = [Circuit(2, [[list(op) for op in layer] for layer in c.layers]) for c in short]
    circuits = [c for trio in zip(short, long, checked) for c in trio]
    stacks, original = [], dv._dense_states

    def spy(model, circuits, *rows):
        stacks.append(len(circuits))
        return original(model, circuits, *rows)

    monkeypatch.setattr(dv, "_dense_states", spy)
    seeds = list(range(len(circuits)))
    records = dv._sample_ensemble(model, circuits, 200, seeds)
    assert stacks == [6, 3]
    monkeypatch.undo()
    assert records == [dv.sample_counts(model, c, 200, s) for c, s in zip(circuits, seeds)]


# -- fast-path ensembles ------------------------------------------------------------


class _Handed(Exception):
    """Carries the circuits a protocol hands to ``_sample_all``."""


def _fast_ensemble_case(family, n, seed):
    """Circuits of one fast-path ensemble call, drawn as the protocols draw
    them: accreditation traps over a CZ target, mirror circuits of mixed
    depths in shuffled order (one with ``gate_defs``), or the M1-M3
    circuits that one MCFE call hands over, of mixed depths."""
    gen = rng(seed)
    sampler = rb.LayerSampler(n, twoq_gate="CZ", twoq_density=0.8)
    target = [layer for _ in range(int(gen.integers(1, 4))) for layer in sampler.sample(gen)]
    if family == "trap":
        _, twoq = fd.split_alternating(target, n)
        return fd._traps(n, twoq, int(gen.integers(2, 12)), gen)[0]
    if family == "mirror":
        circuits = [rb.mirror_circuit(sampler, m, gen) for m in (0, 2, 4, 6) for _ in range(int(gen.integers(1, 4)))]
        x = (("u", (n - 1,)),)
        circuits.append(Circuit(n, circuits[-1].layers + (x, x), {"u": cl.GATE_UNITARIES["X"]}))
        return [circuits[i] for i in gen.permutation(len(circuits))]
    return _mcfe_circuits(n, target, int(gen.integers(2, 4)), seed)


def _fast_ensemble_model(n, noise, idle, confusion, pre):
    rate = {"pauli": 1.0, "tiny": 1e-9}[noise]

    def rule(label, k):
        return ch.stochastic_pauli(tuple(rate * p for p in (0.02, 0.01, 0.03))) if k == 1 else ch.depolarizing(0.05 * rate, n=2)

    conf = {
        "none": None,
        "symmetric": {q: [[0.9, 0.1], [0.1, 0.9]] for q in range(0, n, 2)},
        "asymmetric": {q: [[0.95 - 0.02 * q, 0.15], [0.05 + 0.02 * q, 0.85]] for q in range(n)},
    }[confusion]
    idle = ch.stochastic_pauli(tuple(rate * p for p in (0.01, 0.0, 0.02))) if idle else None
    return dv.noisy_model(n, rule, confusion=conf, idle=idle, pre_gate_noise=pre)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["trap", "mirror", "mcfe"]),
    n=st.integers(2, 4),
    noise=st.sampled_from(["pauli", "pauli", "tiny"]),
    idle=st.booleans(),
    confusion=st.sampled_from(["none", "symmetric", "asymmetric"]),
    pre=st.booleans(),
    shots=st.sampled_from([1, 7, 60]),
    budgets=st.sampled_from([(None, None), (150, None), (600, 40)]),
    derive=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_fast_ensemble_matches_per_circuit_samples(family, n, noise, idle, confusion, pre, shots, budgets, derive, seed):
    """``_sample_all`` on the fast backend gives every circuit the record of
    its own ``pauli_fastpath_sample`` call, through one such call with its
    shots, whose fault bits are, to the bit, the per-layer reference's:
    traps, mirror circuits and MCFE circuits of mixed depths, idle and
    pre-gate noise, symmetric and asymmetric readout confusion, stacks that
    span several draw blocks or several stacks per depth, stacks without a
    hit, and ideal bits given or derived."""
    circuits = _fast_ensemble_case(family, n, seed)
    seeds = [int(s) for s in rng(seed + 1).integers(2**62, size=len(circuits))]
    bits = None if derive else np.zeros(n, dtype=np.uint8)
    model = _fast_ensemble_model(n, noise, idle, confusion, pre)
    reference = _fast_ensemble_model(n, noise, idle, confusion, pre)
    seen, original = [], dv.pauli_fastpath_sample

    def spy(model, circuit, shots, seed, ideal_bits=None, *, faults=None):
        seen.append((circuit, shots, seed, faults[0].copy()))
        return original(model, circuit, shots, seed, ideal_bits, faults=faults)

    draw, stack = budgets
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dv, "pauli_fastpath_sample", spy)
        if draw is not None:
            mp.setattr(dv, "_DRAW_BUDGET", draw)
        if stack is not None:
            mp.setattr(dv, "_STACK_BUDGET", stack)
        records = dv._sample_all(model, circuits, shots, seeds, "fast", bits)
    assert records == [dv.pauli_fastpath_sample(reference, c, shots, s) for c, s in zip(circuits, seeds)]
    assert sorted(map(id, circuits)) == sorted(id(c) for c, *_ in seen)  # one call per circuit
    for circuit, got_shots, s, x in seen:
        assert got_shots == shots
        assert np.array_equal(x, propagate_faults_reference(reference, circuit, shots, rng(s)))


def test_fast_ensemble_without_hits_builds_no_gate_tables(monkeypatch):
    """A stack in which no shot draws a fault conjugates nothing; one fault
    anywhere builds the stack's tables once."""
    circuits = [rb.mirror_circuit(rb.LayerSampler(3, twoq_density=0.7), 4, rng(s)) for s in range(6)]
    built, tables = [], dv._gate_tables
    monkeypatch.setattr(dv, "_gate_tables", lambda *args: built.append(1) or tables(*args))
    bits = np.zeros(3, dtype=np.uint8)
    quiet = dv.noisy_model(3, lambda lbl, ar: ch.depolarizing(1e-12, n=ar))
    records = dv._sample_all(quiet, circuits, 5, list(range(6)), "fast", bits)
    assert [r.counts for r in records] == [{"000": 5}] * 6 and not built
    dv._sample_all(dv.noisy_model(3, lambda lbl, ar: ch.depolarizing(0.5, n=ar)), circuits, 5, list(range(6)), "fast", bits)
    assert built == [1]


def test_fast_ensemble_raises_on_an_indefinite_outcome_before_drawing(monkeypatch):
    model = dv.noisy_model(1, lambda lbl, ar: ch.depolarizing(0.1, n=ar))
    circuits = [Circuit(1, ((("X", (0,)),),)), Circuit(1, ((("H", (0,)),),))]
    monkeypatch.setattr(dv, "_fault_parities", lambda *args: pytest.fail("drew before checking outcomes"))
    with pytest.raises(ValueError, match="not definite"):
        dv._sample_all(model, circuits, 10, [1, 2], "fast")


def test_fast_ensemble_compiles_one_program_per_stack(monkeypatch):
    """A fast-backend ``run_crb`` of 3 depths x 10 1q circuits compiles one
    program per depth, with the ideal bits derived from the stacks that
    then draw, and so does an ensemble of mirror circuits of 3 depths that
    is given its bits."""
    compiles, compile_ = [], dv.CliffordProgram._compile
    monkeypatch.setattr(dv.CliffordProgram, "_compile", lambda self, *args: compiles.append(1) or compile_(self, *args))
    model = dv.noisy_model(1, lambda lbl, ar: ch.depolarizing(0.02, n=ar))
    design = rb.RBDesign((0,), (0, 2, 4), 10, 50, seed=3)
    rb.run_crb(model, design, backend="fast")
    assert len(compiles) == 3
    compiles.clear()
    sampler, gen = rb.LayerSampler(2, twoq_density=0.7), rng(4)
    circuits = [rb.mirror_circuit(sampler, m, gen) for m in (0, 2, 4) for _ in range(10)]
    two = dv.noisy_model(2, lambda lbl, ar: ch.depolarizing(0.02, n=ar))
    dv._sample_all(two, circuits, 50, list(range(len(circuits))), "fast", np.zeros(2, dtype=np.uint8))
    assert len(compiles) == 3


def _same(a, b):
    """Equal nested lists and tuples of arrays: each array by dtype, shape
    and bytes, anything else by ``==``."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_one_item_stack_is_the_circuits_own_program():
    """``CliffordProgram._side_by_side`` of one circuit gives the gate tables
    and draw rows of ``CliffordProgram(model, circuit)``, byte for byte,
    ``gate_defs`` included; two circuits with ``gate_defs`` still raise."""
    model = dv.noisy_model(3, _parity_rule, idle=ch.stochastic_pauli((0.01, 0.0, 0.02)))
    plain = _random_clifford_circuit(3, 5, rng(8))
    defined = Circuit(3, plain.layers + ((("u", (0,)), ("w", (2, 1))),), {"u": cl.GATE_UNITARIES["S"], "w": cl.GATE_UNITARIES["ISWAP"]})
    for circuit in (plain, defined, Circuit(3, ())):
        own, stacked = dv.CliffordProgram(model, circuit), dv.CliffordProgram._side_by_side(model, [circuit])
        assert _same(stacked.gates, own.gates) and _same(stacked.draws, own.draws)
    with pytest.raises(ValueError, match="gate_defs"):
        dv.CliffordProgram._side_by_side(model, [defined, defined])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    depth=st.integers(0, 5),
    defs=st.booleans(),
    generator=st.booleans(),
    rows=st.booleans(),
    shots=st.sampled_from([1, 9, 40]),
    seed=st.integers(0, 2**31),
)
def test_direct_samplers_are_their_one_item_ensembles(n, depth, defs, generator, rows, shots, seed):
    """A direct ``sample_counts``, ``pauli_fastpath_sample`` or
    ``pauli_fastpath_signs`` call gives, byte for byte, the record or sign
    array of its one-item ensemble, and draws as much from a Generator
    seed: integer and Generator seeds, parities with and without
    pulled-back rows, and circuits whose ``gate_defs`` define a label."""
    gen = rng(seed)
    circuit = _classical_clifford_circuit(n, depth, gen)
    if defs:
        circuit = Circuit(n, circuit.layers + ((("u", (0,)),),), {"u": cl.GATE_UNITARIES["X"]})
    model = dv.noisy_model(n, _parity_rule, confusion=_symmetric_confusion(n, int(gen.integers(2**n))))
    measured = PauliString(n, 0, int(gen.integers(1, 2**n)), 0)
    bits = dv.ideal_outcome_bits(model, circuit)
    sign = (-1) ** int(sum(bits[q] for q in range(n) if (measured.zbits >> q) & 1))
    back = pulled_back_reference(model, circuit, measured) if rows else None
    draw = int(gen.integers(2**62))
    cases = [
        (
            lambda s: dv._sample_ensemble(model, [circuit], shots, [s])[0].to_json(),
            lambda s: dv.sample_counts(model, circuit, shots, s).to_json(),
        ),
        (
            lambda s: dv._fast_ensemble(model, [circuit], shots, [s])[0].to_json(),
            lambda s: dv.pauli_fastpath_sample(model, circuit, shots, s).to_json(),
        ),
        (
            lambda s: dv._fast_signs(model, [circuit], [measured], shots, [s], [sign], None if back is None else [back])[0],
            lambda s: dv.pauli_fastpath_signs(model, circuit, measured, shots, s, sign, back),
        ),
    ]
    for ensemble, direct in cases:
        a, b = (rng(draw), rng(draw)) if generator else (draw, draw)
        assert _same(direct(b), ensemble(a))
        if generator:
            assert b.random(3).tolist() == a.random(3).tolist()


# -- stacked parities -----------------------------------------------------------------


def _three_qubit_model(n, idle, pre, confused):
    """A model whose ``T3`` gate (CNOT on its first two qubits, H on its
    third) carries a 3q Pauli channel, every other gate ``_parity_rule``'s
    1q or 2q one."""
    u3 = np.kron(cl.GATE_UNITARIES["CNOT"], cl.GATE_UNITARIES["H"])
    t3 = ch.Channel(ch.stochastic_pauli({"XIZ": 0.03, "ZYI": 0.02, "YYY": 0.02}).ptm @ ch.Channel.from_unitary(u3).ptm)
    t3.unitary = u3
    return dv.GateSetModel(
        n,
        gates={"T3": (t3, 3)} if n >= 3 else {},
        noise_rule=_parity_rule,
        confusion=_symmetric_confusion(n, confused),
        idle=ch.stochastic_pauli((0.03, 0.01, 0.02)) if idle else None,
        pre_gate_noise=pre,
    )


def _parity_row(model, gen, depth, defined):
    """One parity circuit as BiRB, CB and ACES build it: an eigenstate
    preparation, a body of random layers (each pair followed by a 3q
    ``T3`` layer on three qubits or more, and by a ``gate_defs`` gate when
    ``defined``) and the readout of the
    propagated Pauli, left out when empty, so depths differ; with its
    measured Pauli, ideal sign and pulled-back rows."""
    n = model.n
    sampler = rb.LayerSampler(n, twoq_density=0.8)
    layers = []
    for _ in range(depth):
        layers.extend(sampler.sample(gen))
        if n >= 3:
            layers.append((("T3", tuple(int(q) for q in gen.permutation(n)[:3])),))
    defs = {}
    if defined:
        defs = {"u": cl.GATE_UNITARIES["Y"]}
        layers.append((("u", (n - 1,)),))
    body = Circuit(n, tuple(layers), defs)
    p = PauliString.from_index(int(gen.integers(1, 4**n)), n)
    prep, sign = cl.eigenstate_layer(p, gen)
    (current,), codes = dv.CliffordProgram(model, body).propagate([p], history=True)
    meas = cl.readout_layer(current)
    circ = Circuit(n, (prep,)).then(body)
    circ = circ.then(Circuit(n, (meas,))) if meas else circ
    rows = dv._pulled_back_rows(codes[:, :, 0], readout=bool(meas))
    return circ, cl.readout_pauli(current), sign * (1 if current.sign.real > 0 else -1), rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    depth=st.integers(0, 3),
    count=st.integers(1, 9),
    idle=st.booleans(),
    pre=st.booleans(),
    confused=st.integers(0, 15),
    shots=st.sampled_from([1, 7, 60]),
    budgets=st.sampled_from([(None, None), (150, None), (600, 40)]),
    derive=st.booleans(),
    defined=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_parity_all_matches_per_circuit_parities(
    n, depth, count, idle, pre, confused, shots, budgets, derive, defined, seed
):
    """``_parity_all`` gives every circuit, sign for sign, the parities of
    its own ``pauli_fastpath_signs`` call, through one such call with its
    shots, and the mean of ``parity_mean``: circuits of mixed depths (an
    empty readout left out), idle and pre-gate noise, 1q, 2q and 3q fault
    channels, symmetric confusion, rows passed or derived (``pulled_back``
    None), stacks that span draw blocks or split by ``_DRAW_BUDGET``, and
    a ``gate_defs`` circuit, which runs alone.  The dense backend gives
    each circuit ``parity_mean``'s dense value."""
    gen = rng(seed)
    model = _three_qubit_model(n, idle, pre, confused)
    reference = _three_qubit_model(n, idle, pre, confused)
    # two body depths, so each call mixes depths, as an empty readout also does
    cases = [_parity_row(model, gen, depth + int(gen.integers(2)), defined and i == count // 2) for i in range(count)]
    circuits, measured, signs, rows = map(list, zip(*cases))
    rows = None if derive else rows
    seeds = [int(s) for s in gen.integers(2**62, size=count)]
    seen, original = [], dv.pauli_fastpath_signs

    def spy(model, circuit, measured, shots, seed, ideal_sign, pulled_back=None, *, flips=None):
        out = original(model, circuit, measured, shots, seed, ideal_sign, pulled_back, flips=flips)
        seen.append((circuit, shots, flips is not None, out))
        return out

    draw, stack = budgets
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dv, "pauli_fastpath_signs", spy)
        if draw is not None:
            mp.setattr(dv, "_DRAW_BUDGET", draw)
        if stack is not None:
            mp.setattr(dv, "_STACK_BUDGET", stack)
        means = dv._parity_all(model, circuits, measured, shots, seeds, "fast", signs, rows)
    assert sorted(map(id, circuits)) == sorted(id(c) for c, *_ in seen)  # one call per circuit
    assert all(got_shots == shots and stacked for _, got_shots, stacked, _ in seen)
    got = {id(c): out for c, _, _, out in seen}
    for i, circuit in enumerate(circuits):
        pulled_back = None if rows is None else rows[i]
        expected = dv.pauli_fastpath_signs(reference, circuit, measured[i], shots, seeds[i], signs[i], pulled_back)
        assert got[id(circuit)].dtype == np.int8 and got[id(circuit)].tobytes() == expected.tobytes()
        assert means[i] == expected.mean()
        assert means[i] == dv.parity_mean(
            reference, circuit, measured[i], shots, seeds[i], "fast", signs[i], pulled_back
        )
    dense = dv._parity_all(model, circuits, measured, shots, seeds, "dense", signs, rows)
    args = zip(circuits, measured, seeds, signs)
    assert dense == [dv.parity_mean(reference, c, m, shots, s, "dense", g) for c, m, s, g in args]


def test_parity_all_checks_every_circuit_before_drawing(monkeypatch):
    """An asymmetric confusion on a qubit that any circuit reads, or an
    ideal sign other than +1 or -1, raises before any generator draws, also
    in a direct ``pauli_fastpath_signs`` call."""
    model = dv.ideal_model(2).with_confusion({1: [[0.95, 0.1], [0.05, 0.9]]})
    circuits = [Circuit(2, ((("X", (0,)),),)), Circuit(2, ((("X", (1,)),),))]
    measured = [PauliString(2, 0, 0b01, 0), PauliString(2, 0, 0b10, 0)]
    monkeypatch.setattr(dv, "rng", lambda seed: pytest.fail("drew before checking every circuit"))
    with pytest.raises(ValueError, match="asymmetric"):
        dv._parity_all(model, circuits, measured, 10, [1, 2], "fast", [-1, -1])
    with pytest.raises(ValueError, match="not \\+1 or -1"):
        dv._parity_all(dv.ideal_model(2), circuits, measured, 10, [1, 2], "fast", [-1, 0.5])
    with pytest.raises(ValueError, match="not \\+1 or -1"):
        dv.pauli_fastpath_signs(dv.ideal_model(2), circuits[0], measured[0], 10, 1, 0.5)


def test_eigenstate_parities_keep_an_empty_readout_only_when_asked(monkeypatch):
    """A Z-type image needs no readout rotation.  With
    ``keep_empty_readout`` the circuit still ends in the empty layer, where
    idle qubits take noise, and its pulled-back rows gain the row after it;
    by default it ends with its body."""
    model = dv.noisy_model(2, _parity_rule, idle=ch.stochastic_pauli((0.03, 0.01, 0.02)))
    body = Circuit(2, ((("CZ", (0, 1)),), (("Z", (0,)),)))
    p = PauliString.from_label("ZI")
    prep, sign = cl.eigenstate_layer(p, rng(3))
    (image,), history = dv.CliffordProgram(model, body).propagate([p], history=True)
    assert cl.readout_layer(image) == ()
    seen, original = [], dv._parity_all
    monkeypatch.setattr(dv, "_parity_all", lambda *args: seen.append(args) or original(*args))
    for keep in (True, False):
        dv._eigenstate_parities(model, [(p, prep, sign, body, 9)], [(image, history[:, :, 0])], 50, "fast", keep)
    (kept,), (dropped,) = [args[1] for args in seen]
    (kept_rows,), (dropped_rows,) = [args[7] for args in seen]
    assert kept.depth == body.depth + 2 and kept.layers[-1] == ()
    assert dropped.depth == body.depth + 1 and dropped.layers == kept.layers[:-1]
    assert kept_rows.shape == (body.depth + 3, 2) and dropped_rows.shape == (body.depth + 2, 2)
    assert (kept_rows[:-1] == dropped_rows).all()


@pytest.mark.parametrize("backend", ["fast", "dense"])
@pytest.mark.parametrize("keep", [True, False])
def test_eigenstate_parities_match_parity_all_on_hand_built_circuits(backend, keep):
    """Each signed mean is the ideal sign times the ``_parity_all`` mean of
    the circuit built by hand: preparation, body, the image's readout
    rotation (an empty one kept only with ``keep_empty_readout``), the
    prepared and the image's sign, and the pulled-back rows.  Drawing and
    propagating a stack at a time (``_eigenstate_stacks``) gives the same
    means."""
    model = _three_qubit_model(3, True, False, 0b101)
    sampler, gen = rb.LayerSampler(3, twoq_density=0.8), rng(11)
    drawn, propagated = [], []
    for _ in range(12):  # drawn as BiRB draws them
        p = PauliString.from_index(int(gen.integers(1, 4**3)), 3)
        prep, sign = cl.eigenstate_layer(p, gen)
        body = Circuit(3, tuple(layer for _ in range(2) for layer in sampler.sample(gen)))
        drawn.append((p, prep, sign, body, int(gen.integers(2**62))))
        (image,), history = dv.CliffordProgram(model, body).propagate([p], history=True)
        propagated.append((image, history[:, :, 0]))
    circuits, measured, signs, rows = [], [], [], []
    for (_, prep, sign, body, _), (image, history) in zip(drawn, propagated):
        readout = cl.readout_layer(image)
        circuit = Circuit(3, (prep,)).then(body)
        circuits.append(circuit.then(Circuit(3, (readout,))) if readout or keep else circuit)
        measured.append(cl.readout_pauli(image))
        signs.append(sign * (1 if image.sign.real > 0 else -1))
        rows.append(dv._pulled_back_rows(history, readout=bool(readout) or keep))
    seeds = [seed for *_, seed in drawn]
    parities = dv._parity_all(model, circuits, measured, 40, seeds, backend, signs, rows)
    expected = [sign * mean for sign, mean in zip(signs, parities)]
    assert dv._eigenstate_parities(model, drawn, propagated, 40, backend, keep) == expected
    order = iter(drawn)
    assert dv._eigenstate_stacks(model, lambda: next(order), len(drawn), 4, 40, backend, keep) == expected


def test_parity_protocols_sample_only_through_eigenstate_parities(monkeypatch):
    """BiRB, cycle benchmarking and ACES sample each of their circuits
    through ``_eigenstate_parities``, and nothing else samples."""
    inside, helped, signed = [0], [], []
    original, signs = dv._eigenstate_parities, dv.pauli_fastpath_signs

    def helper(model, drawn, *args):
        inside[0] += 1
        helped.append(len(drawn))
        try:
            return original(model, drawn, *args)
        finally:
            inside[0] -= 1

    def spy(*args, **kwargs):
        assert inside[0] == 1
        signed.append(1)
        return signs(*args, **kwargs)

    monkeypatch.setattr(dv, "_eigenstate_parities", helper)
    monkeypatch.setattr(cy, "_eigenstate_parities", helper)
    monkeypatch.setattr(dv, "pauli_fastpath_signs", spy)
    monkeypatch.setattr(dv, "pauli_fastpath_sample", lambda *args, **kwargs: pytest.fail("sampled counts"))
    model = dv.noisy_model(2, lambda lbl, ar: ch.depolarizing(0.01, n=ar))
    rb.birb(model, rb.RBDesign((0, 1), (0, 1, 2), 3, 20, seed=5), rb.LayerSampler(2, twoq_density=0.5))
    cy.cycle_benchmark(model, (("CZ", (0, 1)),), ["XI", "ZZ"], (2, 4), 3, 20, seed=6)
    layers = [(("CNOT", (0, 1)),), (("H", (0,)), ("S", (1,)))]
    cy.aces(model, layers, n_circuits=2, depth=2, paulis_per_circuit=4, shots=20, seed=7)
    # BiRB, CB, then ACES's systematic rows (15 + 3 + 3 local Paulis) and random rows
    assert sum(helped) == len(signed) == 3 * 3 + 2 * 2 * 3 + (15 + 3 + 3) + 2 * 4


# -- circuits the generators assemble unchecked -------------------------------------


@st.composite
def _generated_ensembles(draw):
    """The circuits of one generator call, of one shape per depth: the traps
    of one accreditation call over a random CZ target (width 1 to 5, none
    to three CZ layers), or the CRB circuits of one call, with or without
    an interleaved gate."""
    seed = draw(st.integers(0, 2**31))
    gen = rng(seed)
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        target = [tuple(("H", (q,)) for q in range(n))]
        if n > 1:
            sampler = rb.LayerSampler(n, twoq_gate="CZ", twoq_density=0.8)
            target += [layer for _ in range(draw(st.integers(0, 3))) for layer in sampler.sample(gen)]
        _, twoq = fd.split_alternating(target, n)
        return fd._traps(n, twoq, draw(st.integers(1, 8)), gen)[0]
    n = draw(st.integers(1, 2))
    depths = tuple(draw(st.lists(st.integers(0, 5), min_size=3, max_size=4, unique=True)))
    interleave = draw(st.sampled_from([None, "X90" if n == 1 else "CZ"]))
    design = rb.RBDesign(tuple(range(n)), depths, draw(st.integers(1, 4)), 10, seed)
    return [circuit for _, circuit, _ in rb.crb_circuits(design, interleave=interleave)]


def _assert_arrays_equal(got, expected):
    for name, a, b in zip(expected._fields, got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _assert_built_as_checked(got, want):
    """``got``, built unchecked, is the circuit ``want`` that ``Circuit(width,
    layers)`` checked and built: its layers, every flat field, arrays and
    idle mask, equality, hash, pickle and JSON."""
    assert got.layers == want.layers and got == want and hash(got) == hash(want)
    assert got.to_json() == want.to_json() and got.gate_defs == want.gate_defs == {}
    for field in dv._Flat._fields:
        assert getattr(got._flat, field) == getattr(want._flat, field), field
    _assert_arrays_equal(got._flat.arrays, want._flat.arrays)
    assert np.array_equal(got._flat.idle, want._flat.idle)
    back = pickle.loads(pickle.dumps(got))
    assert back == want and back._flat == want._flat and back.to_json() == want.to_json()
    _assert_arrays_equal(back._flat.arrays, want._flat.arrays)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_generated_ensembles(), st.integers(0, 2**31))
def test_generated_circuits_equal_checked_ones(circuits, seed):
    """A circuit that a generator call assembles unchecked is the circuit
    that ``Circuit(width, layers)`` checks and builds: its layers, every
    flat field, arrays and idle mask, equality, hash, pickle and JSON, and
    its records on both backends.  A stack of the circuits of one shape is
    the stack of the checked circuits."""
    n = circuits[0].width
    checked = [Circuit(n, c.layers) for c in circuits]
    for got, want in zip(circuits, checked):
        _assert_built_as_checked(got, want)
    by_shape = {}
    for got, want in zip(circuits, checked):
        by_shape.setdefault((tuple(got._flat.lengths), tuple(got._flat.supports)), []).append((got, want))
    for pairs in by_shape.values():
        stacked = dv._Flat.side_by_side([got._flat for got, _ in pairs], n)
        checked_stack = dv._Flat.side_by_side([want._flat for _, want in pairs], n)
        assert stacked == checked_stack
        _assert_arrays_equal(stacked.arrays, checked_stack.arrays)
        assert np.array_equal(stacked.idle, checked_stack.idle)
    seeds = [int(s) for s in rng(seed).integers(2**62, size=len(circuits))]

    def model():
        def rule(label, k):
            return ch.stochastic_pauli((0.02, 0.01, 0.03)) if k == 1 else ch.depolarizing(0.04, n=2)

        return dv.noisy_model(n, rule, idle=ch.stochastic_pauli((0.01, 0.0, 0.02)))

    for backend in ("dense", "fast"):
        assert dv._sample_all(model(), circuits, 30, seeds, backend) == dv._sample_all(model(), checked, 30, seeds, backend)


def test_shared_shapes_are_checked_once(monkeypatch):
    """One accreditation call (328 traps here) and one MCFE call check their
    target once and no circuit of their own, also for a target given as
    lists, and one CRB call checks nothing; every circuit is assembled."""
    checks, of = [], dv._Flat.of
    monkeypatch.setattr(dv._Flat, "of", classmethod(lambda cls, *args: checks.append(1) or of(*args)))
    sampler = rb.LayerSampler(3, twoq_gate="CZ", twoq_density=0.6)
    target = [layer for _ in range(3) for layer in sampler.sample(rng(1313))]
    result = fd.accredit(dv.ideal_model(3), target, theta=0.15, alpha=0.95, seed=5)
    assert result.n_traps == 328 and len(checks) == 1
    checks.clear()
    listed = [list(layer) for layer in target]
    assert fd.accredit(dv.ideal_model(3), listed, theta=0.15, alpha=0.95, seed=5) == result and len(checks) == 1
    checks.clear()
    assert len(_mcfe_circuits(3, listed, 4, 5)) == 12 and len(checks) == 1
    checks.clear()
    design = rb.RBDesign((0, 1), (0, 2, 4, 8), 10, 10, seed=7)
    assert len(rb.crb_circuits(design, interleave="CZ")) == 40 and checks == []
    assert len(rb.crb_circuits(rb.RBDesign((0,), (0, 3, 6), 4, 10, seed=8), interleave="X90")) == 12 and checks == []
    assert len(_mcfe_circuits(3, target, 40, 5)) == 120 and len(checks) == 1


def _mcfe_circuits(n, target, k, seed):
    """The M1-M3 circuits that one MCFE call hands to ``_sample_all``."""

    def hand(model, circuits, *args):
        raise _Handed(circuits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fd, "_sample_all", hand)
        with pytest.raises(_Handed) as handed:
            fd.mcfe(dv.ideal_model(n), target, k, 1, seed)
    return handed.value.args[0]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(2, 4), raw=st.booleans(), seed=st.integers(0, 2**31))
def test_mcfe_ensembles_are_built_as_checked(n, k, raw, seed):
    """MCFE checks its target once and assembles its three ensembles; every
    circuit is the one ``Circuit(n, layers)`` checks and builds, also for a
    target given as lists of numpy integers."""
    gen = rng(seed)
    sampler = rb.LayerSampler(n, twoq_gate="CZ", twoq_density=0.8)
    target = [layer for _ in range(int(gen.integers(0, 3))) for layer in sampler.sample(gen)]
    if raw:
        target = [[(label, list(map(np.int64, qubits))) for label, qubits in layer] for layer in target]
    circuits = _mcfe_circuits(n, target, k, seed)
    assert len(circuits) == 3 * k
    for i in range(3):
        ensemble = circuits[i * k : (i + 1) * k]
        for c in ensemble:
            _assert_built_as_checked(c, Circuit(n, c.layers))


@pytest.mark.parametrize("protocol", ["birb", "mrb"])
def test_sampled_circuits_are_assembled_unchecked(monkeypatch, protocol):
    """One BiRB or MRB call builds no body, mirror circuit, preparation or
    readout through the checked constructor: the sampler checked its edges
    once, and every circuit is assembled from its layers."""
    n = 4
    sampler = rb.LayerSampler(n, edges=[(1, 0), (2, 3), (1, 2)], twoq_density=0.6)
    model = dv.noisy_model(n, lambda lbl, ar: ch.depolarizing(0.02, n=ar), idle=ch.stochastic_pauli((0.01, 0.0, 0.01)))
    design = rb.RBDesign(tuple(range(n)), (0, 2, 4), 3, 20, seed=5)
    checks, of = [], dv._Flat.of
    monkeypatch.setattr(dv._Flat, "of", classmethod(lambda cls, *args: checks.append(1) or of(*args)))
    result = getattr(rb, protocol)(model, design, sampler)
    assert len(result["data"].depths) == 3 and checks == []


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    gate=st.sampled_from(["CNOT", "CZ", "ISWAP", "SWAP"]),
    density=st.sampled_from([0.0, 0.5, 1.0]),
    m=st.sampled_from([0, 2, 6]),
    custom=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_assembled_circuits_equal_checked_ones(n, gate, density, m, custom, seed):
    """``Circuit._assembled`` builds the circuit that ``Circuit(n, layers)``
    checks and builds, on the layers the library assembles: sampled bodies,
    mirror circuits, eigenstate preparations and readouts, default or custom
    edges (random pairs in either orientation), depth 0 included."""
    gen = rng(seed)
    edges = None
    if custom:
        pairs = [(a, b) if gen.random() < 0.5 else (b, a) for a in range(n) for b in range(a + 1, n)]
        edges = [pairs[i] for i in gen.permutation(len(pairs))[: int(gen.integers(0, len(pairs) + 1))]]
    sampler = rb.LayerSampler(n, edges=edges, twoq_gate=gate, twoq_density=density)
    body = tuple(layer for _ in range(m) for layer in sampler.sample(gen))
    mirror = rb.mirror_circuit(sampler, m, gen).layers
    p = PauliString.from_index(int(gen.integers(1, 4**n)), n)
    prep, _ = cl.eigenstate_layer(p, gen)
    for layers in (body, mirror, (prep,), (cl.readout_layer(p),)):
        assert dv._Flat.of(n, layers) is not None  # normalised as built, so kept as they are
        _assert_built_as_checked(Circuit._assembled(n, layers), Circuit(n, layers))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    noise=st.sampled_from(["cptp", "coherent", "mixed"]),
    pre=st.booleans(),
    budget=st.sampled_from([None, 3 * 16**2]),
    seed=st.integers(0, 2**31),
)
def test_ensemble_channels_match_per_circuit_channels(noise, pre, budget, seed):
    """The dense ensemble compiles every noisy channel that the model lacks
    in one pass, in stacks that ``_NOISY_BUDGET`` bounds, and gathers one
    row per operation of each circuit; a fresh model that compiles them
    circuit by circuit gets the same channels, bit for bit, and the same
    states: 2q CRB circuits, whose ``c2_<i>`` labels each model builds, and
    circuits whose inline gates share a label."""
    circuits = [c for _, c, _ in rb.crb_circuits(rb.RBDesign((0, 1), (0, 1, 3), 4, 10, seed))]
    for i in range(3):
        defs = {"v": haar_random_unitary(2, seed + i), f"u{i}": haar_random_unitary(4, seed + 10 + i)}
        circuits.insert(2 * i, Circuit(2, (((f"u{i}", (1, 0)),), (("v", (0,)),), (("c2_7", (0, 1)),)), defs))
    ensemble, per_circuit = (dv.noisy_model(2, _label_noise(noise), pre_gate_noise=pre) for _ in range(2))
    gathered, passes = [], []
    gather, compiled = dv._gathered, GateSetModel._compiled
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dv, "_gathered", lambda model, field, parts: gathered.append((model, field, gather(model, field, parts))) or gathered[-1][2])
        mp.setattr(GateSetModel, "_compiled", lambda model, *args: passes.append((model, args[0])) or compiled(model, *args))
        if budget is not None:
            mp.setattr(dv, "_NOISY_BUDGET", budget)
        states = dict(dv._ensemble_states(ensemble, circuits))
    gathered = [result for model, field, result in gathered if model is ensemble and field == "noisy"]
    assert [field for model, field in passes if model is ensemble].count("noisy") == 1 and len(gathered[0][1]) == len(circuits)
    assert len(gathered) == 1
    entries, rows = gathered[0]
    for i, circuit in enumerate(circuits):
        want, (want_rows,) = dv._gathered(per_circuit, "noisy", [(circuit._flat.key, circuit.gate_defs)])
        for (label, qubits), row, want_row in zip(chain.from_iterable(circuit.layers), rows[i].tolist(), want_rows.tolist()):
            (ptms,), (want_ptms,) = entries[len(qubits)], want[len(qubits)]
            a, b = (m.resolve(label, len(qubits), circuit.gate_defs) for m in (ensemble, per_circuit))
            assert np.array_equal(a.ptm, b.ptm) and np.array_equal(ptms[row], b.ptm) and np.array_equal(want_ptms[want_row], b.ptm)
            assert (a.unitary is None) == (b.unitary is None)
            assert a.unitary is None or np.array_equal(a.unitary, b.unitary)
        assert np.array_equal(states[i], _one_circuit_state(per_circuit, circuit))
