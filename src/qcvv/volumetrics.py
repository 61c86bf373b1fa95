"""Quantum volume, volumetric benchmarking grids, and capability regions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliffords import inverse_layer
from .device import (
    Circuit,
    GateSetModel,
    _ideal_distributions,
    _ideal_outcomes,
    _sample_all,
    _sample_ensemble,
)
from .linalg import child_seeds, haar_random_unitary, rng
from .metrics import heavy_outcomes
from .paulis import PauliString
from .rb import LayerSampler, adjusted_success_probability, mirror_circuit

QV_WIDTH_CAP = 12


def qv_circuits(width: int, count: int, seed):
    """Square quantum-volume circuits: each of ``width`` layers applies
    Haar-random SU(4) gates on a random disjoint pairing (one random qubit
    idles when the width is odd)."""
    if width > QV_WIDTH_CAP:
        raise ValueError(f"quantum-volume circuits capped at width {QV_WIDTH_CAP}")
    gen = rng(seed)
    circuits = []
    for c in range(count):
        layers = []
        defs = {}
        for d in range(width):
            perm = list(gen.permutation(width))
            layer = []
            for i in range(0, width - 1, 2):
                a, b = perm[i], perm[i + 1]
                label = f"qv_{c}_{d}_{i}"
                defs[label] = haar_random_unitary(4, gen)
                layer.append((label, (min(a, b), max(a, b))))
            layers.append(tuple(layer))
        circuits.append(Circuit(width, tuple(layers), defs))
    return circuits


@dataclass
class QVResult:
    width: int
    hbar: float
    lower_bound: float
    passed: bool
    per_circuit: list
    threshold: float = 2 / 3


def qv_test(model: GateSetModel, width: int, k_circuits: int, shots: int, seed) -> QVResult:
    """The quantum-volume pass test at one width.

    Heavy sets come from ideal statevector simulation; the pass rule is a
    one-sided 95% normal lower confidence bound on the circuit-averaged
    heavy-output frequency (circuit-to-circuit variance) exceeding 2/3.
    The circuits are sampled as one dense ensemble.
    """
    circuits = qv_circuits(width, k_circuits, seed)
    heavy_sets = []
    for ideal in _ideal_distributions(model, circuits):
        heavy = heavy_outcomes(ideal)
        assert sum(ideal.as_dict()[o] for o in heavy) >= 0.5 - 1e-9
        heavy_sets.append(heavy)
    records = _sample_ensemble(model, circuits, shots, child_seeds(seed + 1, len(circuits)))
    hs = np.asarray([sum(rec.counts.get(o, 0) for o in heavy) / shots for rec, heavy in zip(records, heavy_sets)])
    hbar = float(hs.mean())
    se = float(hs.std(ddof=1) / np.sqrt(len(hs))) if len(hs) > 1 else 0.5
    lower = hbar - 1.645 * se
    return QVResult(width, hbar, lower, lower > 2 / 3, hs.tolist())


def quantum_volume(model_builder, max_width: int, k_circuits: int, shots: int, seed):
    """Largest passing width's 2**n, requiring all smaller widths to pass.

    ``model_builder(width)`` supplies the device model at each width.
    """
    qv = 1
    results = []
    for w in range(2, max_width + 1):
        res = qv_test(model_builder(w), w, k_circuits, shots, seed + w)
        results.append(res)
        if not res.passed:
            break
        qv = 2**w
    return qv, results


# -- volumetric grids ----------------------------------------------------------------

@dataclass
class VolumetricCell:
    width: int
    depth: int
    min: float
    mean: float
    max: float
    values: list

    def classify(self, threshold: float) -> str:
        if self.min > threshold:
            return "all-pass"
        if self.max > threshold:
            return "mixed"
        return "all-fail"


def periodic_mirror_circuit(sampler: LayerSampler, germ_layers, depth: int, gen) -> Circuit:
    """Mirror circuit repeating a fixed germ (structured-error amplifier).

    Unlike randomized mirror circuits there is no per-layer Pauli dressing:
    germ repetitions stay coherent so structured errors amplify, and a
    single random Pauli layer at the turnaround prevents systematic
    cancellation between the two halves.
    """
    n = sampler.n
    half = [germ_layers[i % len(germ_layers)] for i in range(depth // 2)]
    layers = []
    for oneq, twoq in half:
        layers.append(tuple(oneq))
        if twoq:
            layers.append(tuple(twoq))
    central = PauliString.from_index(int(gen.integers(4**n)), n)
    pauli_layer = tuple((central.letter(q), (q,)) for q in range(n) if central.letter(q) != "I")
    if pauli_layer:
        layers.append(pauli_layer)
    for oneq, twoq in reversed(half):
        if twoq:
            layers.append(inverse_layer(twoq))
        layers.append(inverse_layer(oneq))
    return Circuit(n, tuple(layers))


def volumetric_run(
    model_builder,
    family: str,
    widths,
    depths,
    circuits_per_cell: int,
    shots: int,
    seed,
    backend: str = "fast",
    twoq_density: float = 0.5,
):
    """Polarization statistics over a width x depth grid.

    ``model_builder(width)`` supplies the device model at each width.
    Families: "randomized-mirror" (random mirror circuits, Clifford fast
    path), "periodic-mirror" (a random germ repeated), and "qv-shape"
    (quantum-volume circuits scored by heavy-output polarization
    ``2 h - 1``).  Returns {(W, D): VolumetricCell}.
    """
    grid = {}
    gen = rng(seed)
    for w in widths:
        model = model_builder(w)
        sampler = LayerSampler(w, twoq_density=twoq_density, twoq_gate="CZ")
        for depth in depths:
            vals = _cell_polarizations(model, sampler, family, depth, circuits_per_cell, shots, gen, backend)
            grid[(w, depth)] = VolumetricCell(
                w, depth, float(np.min(vals)), float(np.mean(vals)), float(np.max(vals)), vals
            )
    return grid


def _cell_polarizations(model, sampler, family, depth, count, shots, gen, backend):
    """The polarizations of one grid cell's ``count`` circuits, drawn with
    their seeds from ``gen`` circuit by circuit, then sampled as one
    ensemble: mirror circuits on ``backend``, scored by their adjusted
    success probability against the all-zero outcome (randomized) or their
    ideal outcome (periodic); qv-shape circuits on the dense backend, scored
    by their heavy-output polarization ``2 h - 1``."""
    if family not in ("randomized-mirror", "periodic-mirror", "qv-shape"):
        raise ValueError(f"unknown circuit family {family!r}")
    w, m = sampler.n, depth + depth % 2
    circuits, seeds = [], []
    for _ in range(count):
        seeds.append(int(gen.integers(2**62)))
        if family == "randomized-mirror":
            circuits.append(mirror_circuit(sampler, m, gen))
        elif family == "periodic-mirror":
            germ = [sampler.sample(gen)]  # fresh short germ per circuit
            circuits.append(periodic_mirror_circuit(sampler, germ, m, gen))
        else:
            circuits.append(qv_circuits(w, 1, seeds[-1])[0])
    if family == "qv-shape":
        heavy = [heavy_outcomes(ideal) for ideal in _ideal_distributions(model, circuits)]
        records = _sample_ensemble(model, circuits, shots, [s + 1 for s in seeds])
        return [2 * (sum(c for o, c in rec.counts.items() if o in h) / shots) - 1 for rec, h in zip(records, heavy)]
    if family == "randomized-mirror":
        targets, bits = ["0" * w] * count, np.zeros(w, dtype=np.uint8)
    else:
        ideal, bits = _ideal_outcomes(model, circuits), None
        if any(b is None for b in ideal):
            raise ValueError("mirror circuit does not have a definite outcome")
        targets = ["".join(map(str, b.tolist())) for b in ideal]
    records = _sample_all(model, circuits, shots, seeds, backend, bits)
    return [adjusted_success_probability(rec.counts, t, w) for rec, t in zip(records, targets)]


def capability_region(grid: dict, threshold: float = 1 / np.e) -> dict:
    """Classify each grid cell as all-pass, mixed, or all-fail."""
    return {key: cell.classify(threshold) for key, cell in grid.items()}


def grid_to_rows(grid: dict, threshold: float = 1 / np.e):
    """Plot-ready rows (W, D, min, mean, max, class), sorted."""
    rows = []
    for (w, d), cell in sorted(grid.items()):
        rows.append(
            {
                "width": w,
                "depth": d,
                "min": cell.min,
                "mean": cell.mean,
                "max": cell.max,
                "class": cell.classify(threshold),
            }
        )
    return rows
