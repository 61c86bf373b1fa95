import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcvv import channels as ch
from qcvv import device as dv
from qcvv import rb
from qcvv import volumetrics as vm
from qcvv.device import ideal_probabilities
from qcvv.linalg import child_seeds, rng
from qcvv.metrics import heavy_outcomes
from qcvv.rb import LayerSampler


def test_qv_circuits_shape():
    circs = vm.qv_circuits(4, 3, seed=1)
    assert len(circs) == 3
    for c in circs:
        assert c.width == 4 and c.depth == 4
        for layer in c.layers:
            assert len(layer) == 2  # two disjoint SU(4) pairs at width 4
    with pytest.raises(ValueError):
        vm.qv_circuits(13, 1, seed=1)


def test_qv_circuits_odd_width_one_idle():
    circs = vm.qv_circuits(5, 2, seed=2)
    for c in circs:
        for layer in c.layers:
            used = [q for _, qs in layer for q in qs]
            assert len(used) == 4 and len(set(used)) == 4  # exactly one idle


def test_qv_heavy_mass_at_least_half():
    circs = vm.qv_circuits(3, 5, seed=3)
    for c in circs:
        ideal = ideal_probabilities(c)
        heavy = heavy_outcomes(ideal)
        mass = sum(ideal.as_dict()[o] for o in heavy)
        assert mass >= 0.5 - 1e-9


def test_qv_noiseless_passes():
    model = dv.ideal_model(3)
    res = vm.qv_test(model, 3, k_circuits=120, shots=300, seed=5)
    assert res.passed
    assert 0.78 <= res.hbar <= 0.90


def test_qv_depolarized_fails_at_half():
    model = dv.noisy_model(2, lambda l, a: ch.depolarizing(1.0, n=a))
    res = vm.qv_test(model, 2, k_circuits=120, shots=400, seed=7)
    assert not res.passed
    assert res.hbar == pytest.approx(0.5, abs=0.01)


def test_qv_test_ensemble_matches_per_circuit_sample_counts(monkeypatch):
    """qv_test samples its circuits (inline SU(4) gates) as one dense
    ensemble and gives, bit for bit, the heavy-output frequencies of one
    ``sample_counts`` call per circuit; each circuit is one
    ``circuit_probabilities`` call."""
    model = dv.noisy_model(3, lambda l, a: ch.depolarizing(0.05, n=a), idle=ch.depolarizing(0.01))
    calls, original = [], dv.circuit_probabilities

    def spy(model, circuit, **kw):
        calls.append(circuit)
        return original(model, circuit, **kw)

    monkeypatch.setattr(dv, "circuit_probabilities", spy)
    res = vm.qv_test(model, 3, k_circuits=6, shots=200, seed=13)
    monkeypatch.undo()
    circuits = vm.qv_circuits(3, 6, 13)
    assert sorted(map(repr, calls)) == sorted(map(repr, circuits))
    want = []
    for circ, s in zip(circuits, child_seeds(14, 6)):
        heavy = heavy_outcomes(ideal_probabilities(circ, model))
        want.append(sum(c for o, c in dv.sample_counts(model, circ, 200, s).counts.items() if o in heavy) / 200)
    assert res.per_circuit == want


def test_qv_monotone_under_depolarizing():
    # increasing the layer depolarizing rate never flips fail -> pass
    passes = []
    for p in np.linspace(0.0, 0.9, 8):
        model = dv.noisy_model(3, lambda l, a, p=p: ch.depolarizing(p, n=a) if a == 2 else None)
        res = vm.qv_test(model, 3, k_circuits=60, shots=200, seed=11)
        passes.append(res.passed)
    seen_fail = False
    for ok in passes:
        if not ok:
            seen_fail = True
        assert not (seen_fail and ok)


def test_quantum_volume_aggregation():
    qv, results = vm.quantum_volume(dv.ideal_model, 3, k_circuits=60, shots=200, seed=13)
    assert qv == 8 and all(r.passed for r in results)


def test_volumetric_noiseless_all_pass():
    def builder(w):
        return dv.ideal_model(w)

    grid = vm.volumetric_run(builder, "randomized-mirror", (2, 3), (2, 4), 4, 100, seed=15)
    region = vm.capability_region(grid)
    assert set(region.values()) == {"all-pass"}


def test_volumetric_decay_frontier_oracle():
    # uniform per-layer polarization f: mean polarization at depth D ~ f**D
    p = 0.04

    def builder(w):
        return dv.noisy_model(
            w, lambda l, a: ch.depolarizing(1 - (1 - p) ** (1 / w), n=a) if a == 1 else None
        )

    # per-qubit depolarizing scaled so each full layer has polarization ~ 1-p
    grid = vm.volumetric_run(builder, "randomized-mirror", (2,), (2, 8, 16), 8, 400, seed=17, twoq_density=0.0)
    means = {d: grid[(2, d)].mean for d in (2, 8, 16)}
    for d in (2, 8, 16):
        # benchmark depth d contains d + 1 one-qubit layers
        expected = (1 - p) ** (d + 1)
        assert means[d] == pytest.approx(expected, abs=0.08)


def test_volumetric_statistics_permutation_invariant():
    cell = vm.VolumetricCell(2, 2, 0.1, 0.2, 0.3, [0.1, 0.3, 0.2])
    cell2 = vm.VolumetricCell(2, 2, 0.1, 0.2, 0.3, [0.3, 0.2, 0.1])
    assert (cell.min, cell.mean, cell.max) == (cell2.min, cell2.mean, cell2.max)


def test_periodic_vs_randomized_mirror_coherent_signature():
    # structured (periodic) circuits amplify coherent errors: the randomized
    # compiling in randomized mirror circuits scrambles the alignment of a
    # coherent 2q error within each instance, while germ repetition keeps it
    # aligned, so the periodic worst-case polarization sits lower
    import scipy.linalg

    from qcvv.linalg import pauli_matrices

    theta = 0.12
    zz = np.kron(pauli_matrices(1)[3], pauli_matrices(1)[3])
    err2q = ch.Channel.from_unitary(scipy.linalg.expm(-1j * theta / 2 * zz))

    def builder(w):
        return dv.noisy_model(w, lambda l, a: err2q if a == 2 else None)

    rand_grid = vm.volumetric_run(
        builder, "randomized-mirror", (2,), (12,), 24, 400, seed=19, backend="dense", twoq_density=1.0
    )
    per_grid = vm.volumetric_run(
        builder, "periodic-mirror", (2,), (12,), 24, 400, seed=19, backend="dense", twoq_density=1.0
    )
    assert per_grid[(2, 12)].min < rand_grid[(2, 12)].min


def test_mirror_circuits_compile_once_each(monkeypatch):
    """No mirror circuit compiles more than once.  On the fast backend each
    grid cell's circuits compile in one program per stack, which samples
    them; periodic-mirror circuits, whose ideal outcomes differ, also
    compile once per cell side by side for those outcomes, which is all
    the dense backend compiles."""
    compiled, compile_ = [], dv.CliffordProgram._compile
    monkeypatch.setattr(dv.CliffordProgram, "_compile", lambda self, *args: compiled.append(1) or compile_(self, *args))

    def builder(w):
        return dv.noisy_model(w, lambda lbl, ar: ch.depolarizing(0.01, n=ar))

    # 4 cells of 3 circuits; the periodic-mirror circuits of a cell differ in
    # depth when a germ has no 2q layer, so its fast cells take 7 stacks
    expected = {
        ("periodic-mirror", "fast"): 4 + 7,
        ("periodic-mirror", "dense"): 4,
        ("randomized-mirror", "fast"): 4,
        ("randomized-mirror", "dense"): 0,
    }
    for (family, backend), count in expected.items():
        compiled.clear()
        vm.volumetric_run(builder, family, (2, 3), (2, 4), 3, 20, seed=3, backend=backend)
        assert len(compiled) == count


def _cell_values_per_circuit(builder, family, widths, depths, count, shots, seed, backend):
    """Each grid cell's polarizations with one ``sample`` call per circuit,
    its seed drawn as it is built."""
    gen, out = rng(seed), {}
    for w in widths:
        model, sampler = builder(w), LayerSampler(w, twoq_density=0.5, twoq_gate="CZ")
        for depth in depths:
            out[(w, depth)] = vals = []
            for _ in range(count):
                sub = int(gen.integers(2**62))
                if family == "qv-shape":
                    circ = vm.qv_circuits(w, 1, sub)[0]
                    heavy = heavy_outcomes(ideal_probabilities(circ, model))
                    rec = dv.sample_counts(model, circ, shots, sub + 1)
                    vals.append(2 * (sum(c for o, c in rec.counts.items() if o in heavy) / shots) - 1)
                    continue
                if family == "randomized-mirror":
                    circ, target = rb.mirror_circuit(sampler, depth + depth % 2, gen), "0" * w
                else:
                    germ = [sampler.sample(gen)]
                    circ = vm.periodic_mirror_circuit(sampler, germ, depth + depth % 2, gen)
                    target = "".join(map(str, dv.ideal_outcome_bits(model, circ).tolist()))
                rec = dv.sample(model, circ, shots, sub, backend)
                vals.append(rb.adjusted_success_probability(rec.counts, target, w))
    return out


@pytest.mark.parametrize("family", ["randomized-mirror", "periodic-mirror", "qv-shape"])
@pytest.mark.parametrize("backend", ["fast", "dense"])
def test_volumetric_cells_equal_per_circuit_samples(family, backend):
    """Each grid cell samples its circuits as one ensemble; its values are,
    to the bit, those of one ``sample`` call per circuit, each seed drawn
    as its circuit is built."""

    def builder(w):
        return dv.noisy_model(w, lambda lbl, ar: ch.depolarizing(0.02, n=ar))

    grid = vm.volumetric_run(builder, family, (2, 3), (2, 4), 3, 40, seed=23, backend=backend)
    expected = _cell_values_per_circuit(builder, family, (2, 3), (2, 4), 3, 40, 23, backend)
    assert {key: cell.values for key, cell in grid.items()} == expected


def test_capability_region_classes():
    grid = {
        (2, 2): vm.VolumetricCell(2, 2, 0.9, 0.95, 1.0, []),
        (2, 4): vm.VolumetricCell(2, 4, 0.1, 0.5, 0.9, []),
        (2, 8): vm.VolumetricCell(2, 8, 0.0, 0.1, 0.2, []),
    }
    region = vm.capability_region(grid, threshold=1 / np.e)
    assert region == {(2, 2): "all-pass", (2, 4): "mixed", (2, 8): "all-fail"}
    rows = vm.grid_to_rows(grid)
    assert [r["class"] for r in rows] == ["all-pass", "mixed", "all-fail"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    width=st.integers(1, 6),
    gate=st.sampled_from(["CZ", "CNOT"]),
    germ_layers=st.integers(1, 2),
    depth=st.integers(0, 10),
    seed=st.integers(0, 2**31),
)
def test_periodic_mirror_outcome_bits_match_statevector(width, gate, germ_layers, depth, seed):
    # the one mirror generator whose target outcome is not all zeros: the
    # stabilizer derivation must agree with the statevector's basis state
    gen = rng(seed)
    sampler = LayerSampler(width, twoq_gate=gate, twoq_density=0.7)
    germ = [sampler.sample(gen) for _ in range(germ_layers)]
    circ = vm.periodic_mirror_circuit(sampler, germ, depth, gen)
    bits = dv.ideal_outcome_bits(dv.ideal_model(width), circ)
    probs = np.abs(dv.statevector_run(circ)) ** 2
    assert probs.max() == pytest.approx(1.0, abs=1e-9)
    assert bits is not None
    assert "".join(str(int(b)) for b in bits) == format(int(np.argmax(probs)), f"0{width}b")
