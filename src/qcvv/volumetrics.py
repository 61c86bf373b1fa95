"""Quantum volume, volumetric benchmarking grids, and capability regions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cliffords import inverse_layer
from .device import (
    Circuit,
    CliffordProgram,
    GateSetModel,
    ideal_probabilities,
    pauli_fastpath_sample,
    sample,
    sample_counts,
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
    """
    circuits = qv_circuits(width, k_circuits, seed)
    seeds = child_seeds(seed + 1, len(circuits))
    hs = []
    for circ, s in zip(circuits, seeds):
        ideal = ideal_probabilities(circ, model)
        heavy = heavy_outcomes(ideal)
        assert sum(ideal.as_dict()[o] for o in heavy) >= 0.5 - 1e-9
        rec = sample_counts(model, circ, shots, s)
        hs.append(sum(c for o, c in rec.counts.items() if o in heavy) / shots)
    hs = np.asarray(hs)
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
            vals = []
            for _ in range(circuits_per_cell):
                sub = int(gen.integers(2**62))
                if family == "randomized-mirror":
                    m = depth + depth % 2
                    circ = mirror_circuit(sampler, m, gen)
                    vals.append(_mirror_polarization(model, circ, shots, sub, backend, target="0" * w))
                elif family == "periodic-mirror":
                    m = depth + depth % 2
                    germ = [sampler.sample(gen)]  # fresh short germ per circuit
                    circ = periodic_mirror_circuit(sampler, germ, m, gen)
                    vals.append(_mirror_polarization(model, circ, shots, sub, backend))
                elif family == "qv-shape":
                    circ = qv_circuits(w, 1, sub)[0]
                    ideal = ideal_probabilities(circ, model)
                    heavy = heavy_outcomes(ideal)
                    rec = sample_counts(model, circ, shots, sub + 1)
                    h = sum(c for o, c in rec.counts.items() if o in heavy) / shots
                    vals.append(2 * h - 1)
                else:
                    raise ValueError(f"unknown circuit family {family!r}")
            grid[(w, depth)] = VolumetricCell(
                w, depth, float(np.min(vals)), float(np.mean(vals)), float(np.max(vals)), vals
            )
    return grid


def _mirror_polarization(model, circ, shots, seed, backend, target=None):
    """The adjusted success probability of a mirror circuit's samples
    against ``target``, or against the circuit's ideal outcome when None.
    The circuit compiles at most once: on the fast backend the program that
    gives the ideal outcome also samples."""
    program = CliffordProgram(model, circ) if target is None or backend == "fast" else None
    if target is None:
        bits = program._ideal_bits()
        if bits is None:
            raise ValueError("mirror circuit does not have a definite outcome")
        target = "".join(map(str, bits.tolist()))
    if backend == "fast":
        bits = np.array([int(b) for b in target], dtype=np.uint8)
        rec = pauli_fastpath_sample(model, circ, shots, seed, bits, program=program)
    else:
        rec = sample(model, circ, shots, seed, backend)
    return adjusted_success_probability(rec.counts, target, model.n)


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
