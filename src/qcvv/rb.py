"""Randomized-benchmarking family: circuit generation, execution, decay fits.

Depth convention: ``m`` counts the random gates exclusive of the inversion,
so ``m = 0`` circuits contain one random gate and its inverse.  All decays
fit ``p(m) = A f**m + B`` by weighted least squares on per-depth means,
with a variance floor of ``(0.5 / sqrt(K N))**2`` to avoid zero-weight
degeneracy at saturated depths.

Every protocol draws its circuits and shot seeds first and samples them as
one ensemble (:func:`qcvv.device._sample_all`): a decay run, each
simultaneous-RB stage and each XEB or XRB depth, on the dense backend as
one superket stack per shape, each circuit's seeded result that of a call
per circuit.  Binary RB draws each circuit's Pauli, preparation, layers and
shot seed in turn, assembles its body from the sampler's layers without a
check, and hands its circuits a stack at a time to
:func:`qcvv.device._eigenstate_stacks`, which joins the readout and
propagates the bodies of one depth side by side.  Mirror RB assembles its
mirror circuits from sampled layers the same way, as :class:`LayerSampler`
checks its edges once: two distinct qubits in ``range(n)`` each, else a
ValueError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from .cliffords import (
    GATE_UNITARIES,
    clifford_1q_tables,
    clifford_index,
    clifford_label,
    compose_1q_layers,
    eigenstate_layer,
    group_unitaries,
    inverse_layer,
    oneq_layer,
    randomized_compile,
    readout_layer,
)
from .device import (
    Circuit,
    GateSetModel,
    ShotRecord,
    _eigenstate_stacks,
    _ideal_distributions,
    _sample_all,
    parity_from_counts,
)
from .linalg import child_seeds, haar_random_unitary, pauli_matrices, rng
from .metrics import convert_metric
from .paulis import PauliString


@dataclass(frozen=True)
class RBDesign:
    qubits: tuple
    depths: tuple
    circuits_per_depth: int
    shots: int
    seed: int
    variant: str = "crb"

    def __post_init__(self):
        if len(self.depths) < 3:
            raise ValueError("need at least 3 depths to fit an exponential")
        if any(m < 0 for m in self.depths):
            raise ValueError("depths must be nonnegative")


@dataclass
class DecayDataset:
    depths: list
    values: dict  # depth -> list of per-circuit success metric values
    variant: str = "crb"
    meta: dict = field(default_factory=dict)

    def means(self):
        return np.array([np.mean(self.values[m]) for m in self.depths])

    def stderrs(self):
        out = []
        for m in self.depths:
            v = np.asarray(self.values[m], dtype=float)
            out.append(v.std(ddof=1) / np.sqrt(v.size) if v.size > 1 else 0.1)
        return np.array(out)


@dataclass
class FitResult:
    a: float
    f: float
    b: float
    cov: np.ndarray
    fixed_b: bool
    f_err: float
    residuals: np.ndarray
    chi2: float
    dof: int

    @property
    def chi2_pvalue(self) -> float:
        if self.dof <= 0:
            return float("nan")
        import scipy.special

        return float(scipy.special.chdtrc(self.dof, self.chi2))  # the chi-squared survival function


def fit_decay(depths, means, stderrs=None, fix_b=None, variance_floor=None) -> FitResult:
    """Weighted least-squares fit of ``A f**m (+ B)`` to per-depth means."""
    depths = np.asarray(depths, dtype=float)
    means = np.asarray(means, dtype=float)
    if not np.all(np.isfinite(means)):
        raise ValueError(f"decay means contain non-finite values: {means}")
    if stderrs is None:
        stderrs = np.full_like(means, 0.02)
    sig = np.asarray(stderrs, dtype=float).copy()
    floor = 1e-4 if variance_floor is None else np.sqrt(variance_floor)
    sig = np.maximum(sig, floor)

    b0 = 0.0 if fix_b is None else float(fix_b)
    if fix_b is None and means.size >= 4:
        b0 = float(means[np.argmax(depths)])
        b0 = min(max(b0, 0.0), 1.0)
    a0 = float(np.clip(means[np.argmin(depths)] - b0, 1e-3, 2.0))
    f0 = 0.98
    with np.errstate(all="ignore"):
        pos = (means - b0) / max(a0, 1e-9)
        good = (pos > 1e-3) & (depths > 0)
        if good.sum() >= 1:
            f0 = float(np.exp(np.log(pos[good]).min() / depths[good].max()))
    f0 = min(max(f0, 1e-3), 1.0 - 1e-9)

    if fix_b is None:
        fun = lambda m, a, f, b: a * f**m + b
        p0 = [a0, f0, b0]
        bounds = ([-2.0, 1e-9, -1.0], [2.0, 1.0, 1.0])
    else:
        fun = lambda m, a, f: a * f**m + fix_b
        p0 = [a0, f0]
        bounds = ([-2.0, 1e-9], [2.0, 1.0])
    import scipy.optimize

    try:
        popt, pcov = scipy.optimize.curve_fit(
            fun, depths, means, p0=p0, sigma=sig, absolute_sigma=True, bounds=bounds, maxfev=20000
        )
    except RuntimeError as exc:
        resid = means - fun(depths, *p0)
        raise RuntimeError(f"decay fit did not converge; residuals at start {resid}") from exc
    resid = means - fun(depths, *popt)
    chi2 = float(np.sum((resid / sig) ** 2))
    if fix_b is None:
        a, f, b = popt
    else:
        a, f = popt
        b = float(fix_b)
    f_err = float(np.sqrt(max(pcov[1, 1], 0.0)))
    if not np.isfinite(f_err) or f_err == 0.0:
        f_err = float(np.max(sig))  # boundary fits: fall back to data scatter
    return FitResult(float(a), float(f), float(b), pcov, fix_b is not None, f_err, resid, chi2, len(depths) - len(popt))


def epc(fit: FitResult, d: int, metric: str = "e_F") -> float:
    """Error per Clifford from a fitted polarization, in the chosen metric."""
    return convert_metric(fit.f, "f", metric, d)


# -- standard (Clifford-group) RB ------------------------------------------------

@lru_cache(maxsize=None)
def _element_layers(n: int) -> tuple:
    """Per enumerated n-qubit Clifford k, its full-register layer
    ``((c<n>_<k>, qubits),)``, built once per width and shared by every
    sequence."""
    qubits = tuple(range(n))
    return tuple(((clifford_label(n, k), qubits),) for k in range(len(group_unitaries(n))))


@lru_cache(maxsize=None)
def _success_bits(n: int) -> tuple:
    """Per n-qubit Pauli index p, the outcome that the Pauli's X part
    flips from all zeros: the bit string a motion-reversal circuit closed
    by that Pauli returns, qubit 0 first."""
    xbits = (PauliString.from_index(p, n).xbits for p in range(4**n))
    return tuple("".join("1" if (x >> q) & 1 else "0" for q in range(n)) for x in xbits)


def _clifford_sequence(gen, n: int, m: int, interleave: str = None):
    """Draw one RB sequence of m + 1 uniformly random n-qubit Cliffords.

    The element indices come from one array call, which gives the same
    stream as m + 1 scalar draws.  Returns the indices and the sequence's
    full-register layers, with ``interleave`` after every element when given.
    """
    elements = _element_layers(n)
    ks = gen.integers(len(elements), size=m + 1)
    layers = list(map(elements.__getitem__, ks.tolist()))
    if interleave:
        inter = ((str(interleave), tuple(range(n))),)
        layers = [layer for pair in zip(layers, repeat(inter)) for layer in pair]
    return ks, layers


def crb_circuits(design: RBDesign, interleave: str = None):
    """Motion-reversal circuits with a uniformly random final Pauli.

    Yields ``(depth, Circuit, success_bits)`` triples; the composed unitary
    of every circuit is proportional to the sampled Pauli, so noiseless
    execution returns ``success_bits`` with probability 1.

    Draw order, per circuit in depth order: the m + 1 element indices, then
    the index of the final Pauli.  The circuits of one depth are composed
    together, one stacked product per sequence position, and one pass over
    all circuits identifies each closing element (the Pauli times the
    inverse of the composed sequence).  Every layer is a full-register
    element layer of one per-width table or the interleaved gate's, named
    by ``str(interleave)``, so each circuit is assembled unchecked
    (:meth:`Circuit._assembled`); a model checks a label's arity when it
    resolves it.
    """
    n = len(design.qubits)
    if n not in (1, 2):
        raise ValueError("standard RB is enumerated for 1 or 2 qubits")
    group_us = group_unitaries(n)
    paulis = pauli_matrices(n)
    inter_u = GATE_UNITARIES[interleave] if interleave else None
    success = _success_bits(n)
    gen = rng(design.seed)
    drawn, targets = [], []
    for m in design.depths:
        seqs, pidx = [], []
        for _ in range(design.circuits_per_depth):
            ks, layers = _clifford_sequence(gen, n, m, interleave)
            p = int(gen.integers(4**n))
            seqs.append(ks)
            pidx.append(p)
            drawn.append((m, layers, success[p]))
        u = np.broadcast_to(np.eye(2**n, dtype=complex), (len(seqs), 2**n, 2**n))
        for column in np.array(seqs).reshape(-1, m + 1).T:
            u = group_us[column] @ u
            if inter_u is not None:
                u = inter_u @ u
        targets.append(paulis[pidx] @ u.conj().swapaxes(-1, -2))  # the closing elements, up to phase
    closing = clifford_index(n, np.concatenate(targets))
    elements = _element_layers(n)
    return [(m, Circuit._assembled(n, (*layers, elements[k])), bits) for (m, layers, bits), k in zip(drawn, closing)]


def run_decay(model: GateSetModel, circuits, design: RBDesign, backend: str = "dense") -> DecayDataset:
    """Execute success-string circuits and collect per-circuit frequencies."""
    values = {m: [] for m in design.depths}
    seeds = child_seeds(design.seed + 1, len(circuits))
    records = _sample_all(model, [circ for _, circ, _ in circuits], design.shots, seeds, backend)
    for (m, _, bits), rec in zip(circuits, records):
        values[m].append(rec.counts.get(bits, 0) / design.shots)
    return DecayDataset(list(design.depths), values, design.variant)


def write_decay_dataset(path, entries):
    """Write an RB dataset as JSON lines.

    Each entry is ``(depth, ShotRecord, success_bits)`` plus optional design
    metadata; external (hardware) datasets in this format can be analyzed
    with :func:`load_decay_dataset` + :func:`fit_decay` without the
    simulator.
    """
    with open(path, "w") as f:
        for depth, record, bits, meta in entries:
            f.write(
                json.dumps(
                    {
                        "depth": depth,
                        "success": bits,
                        "record": json.loads(record.to_json()),
                        "meta": meta,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def load_decay_dataset(path) -> DecayDataset:
    """Read a JSON-lines RB dataset into a :class:`DecayDataset` of variant
    ``"external"``."""
    values = {}
    meta = {}
    with open(path) as f:
        for line in f:
            payload = json.loads(line)
            rec = ShotRecord(**payload["record"])
            freq = rec.counts.get(payload["success"], 0) / rec.shots
            values.setdefault(payload["depth"], []).append(freq)
            meta.update(payload.get("meta") or {})
    return DecayDataset(sorted(values), values, "external", meta)


def run_crb(model: GateSetModel, design: RBDesign, backend: str = "dense"):
    """Standard RB end to end: circuits, execution, fit with B = 1/2**n."""
    n = len(design.qubits)
    circuits = crb_circuits(design)
    data = run_decay(model, circuits, design, backend)
    floor = (0.5 / np.sqrt(design.circuits_per_depth * design.shots)) ** 2
    fit = fit_decay(data.depths, data.means(), data.stderrs(), fix_b=1 / 2**n, variance_floor=floor)
    return data, fit


# -- simultaneous RB ---------------------------------------------------------------

def simultaneous_rb(model: GateSetModel, subsets, design: RBDesign, isolated_model=None, backend="dense"):
    """Isolated and simultaneous single-subset RB with the sRB number.

    ``subsets`` are disjoint qubit tuples.  Isolated runs drive one subset
    (others idle) on ``isolated_model`` (default: ``model``); the
    simultaneous run drives all subsets on ``model``.  Returns per-subset
    ``{"isolated": fit, "simultaneous": fit, "srb_number": value, "srb_err": err}``.
    """
    flat = [q for s in subsets for q in s]
    if len(flat) != len(set(flat)):
        raise ValueError("subsets must be disjoint")
    isolated_model = isolated_model or model
    n_total = model.n
    gen_seeds = child_seeds(design.seed, 2 * len(subsets) + 1)
    per_subset_circuits = {}
    for i, sub in enumerate(subsets):
        sub_design = RBDesign(tuple(sub), design.depths, design.circuits_per_depth, design.shots, gen_seeds[i], "srb")
        per_subset_circuits[sub] = crb_circuits(sub_design)

    results, embedded = {}, {}
    for i, sub in enumerate(subsets):
        values = {m: [] for m in design.depths}
        seeds = child_seeds(gen_seeds[i] + 7, len(per_subset_circuits[sub]))
        embedded[sub] = [_embed_circuit(circ, n_total, sub) for _, circ, _ in per_subset_circuits[sub]]
        records = _sample_all(isolated_model, embedded[sub], design.shots, seeds, backend)
        for (m, _, bits), rec in zip(per_subset_circuits[sub], records):
            values[m].append(_marginal_success(rec, bits, sub))
        data = DecayDataset(list(design.depths), values, "srb-isolated")
        fit = fit_decay(data.depths, data.means(), data.stderrs(), fix_b=1 / 2 ** len(sub))
        results[sub] = {"isolated": fit, "isolated_data": data}

    # simultaneous: splice the i-th circuit of every subset together, layer by layer
    joints = []
    for pieces in zip(*(embedded[sub] for sub in subsets)):
        layers = (tuple(op for c in pieces if t < c.depth for op in c.layers[t]) for t in range(max(c.depth for c in pieces)))
        joints.append(Circuit(n_total, tuple(layers)))
    records = _sample_all(model, joints, design.shots, child_seeds(gen_seeds[-1], len(joints)), backend)
    sim_values = {sub: {m: [] for m in design.depths} for sub in subsets}
    for j, rec in enumerate(records):
        for sub in subsets:
            m, _, bits = per_subset_circuits[sub][j]
            sim_values[sub][m].append(_marginal_success(rec, bits, sub))
    for sub in subsets:
        data = DecayDataset(list(design.depths), sim_values[sub], "srb-simultaneous")
        fit = fit_decay(data.depths, data.means(), data.stderrs(), fix_b=1 / 2 ** len(sub))
        d = 2 ** len(sub)
        iso = results[sub]["isolated"]
        ratio = fit.f / iso.f
        srb = (d - 1) / d * (1 - ratio)
        err = (d - 1) / d * ratio * np.sqrt((fit.f_err / fit.f) ** 2 + (iso.f_err / iso.f) ** 2)
        results[sub].update({"simultaneous": fit, "simultaneous_data": data, "srb_number": srb, "srb_err": err})
    return results


def _embed_circuit(circ: Circuit, n_total: int, qubits) -> Circuit:
    layers = tuple(
        tuple((lbl, tuple(qubits[q] for q in qs)) for lbl, qs in layer) for layer in circ.layers
    )
    return Circuit(n_total, layers, circ.gate_defs)


def _marginal_success(rec, bits, sub) -> float:
    hits = 0
    for outcome, c in rec.counts.items():
        if all(outcome[sub[i]] == bits[i] for i in range(len(sub))):
            hits += c
    return hits / rec.shots


# -- interleaved RB -----------------------------------------------------------------

def interleaved_rb(model: GateSetModel, design: RBDesign, gate: str, backend="dense"):
    """Reference + interleaved CRB with the point estimate and its bounds.

    Returns a dict with fits, the process-infidelity point estimate
    ``(d**2-1)/d**2 (1 - f_D/f)`` (negative estimates are returned, never
    clamped), and the systematic-error interval for the gate's AGI and
    process infidelity.
    """
    n = len(design.qubits)
    d = 2**n
    ref_design = RBDesign(design.qubits, design.depths, design.circuits_per_depth, design.shots, design.seed, "irb-ref")
    int_design = RBDesign(design.qubits, design.depths, design.circuits_per_depth, design.shots, design.seed + 101, "irb-int")
    ref_data = run_decay(model, crb_circuits(ref_design), ref_design, backend)
    int_data = run_decay(model, crb_circuits(int_design, interleave=gate), int_design, backend)
    ref_fit = fit_decay(ref_data.depths, ref_data.means(), ref_data.stderrs(), fix_b=1 / d)
    int_fit = fit_decay(int_data.depths, int_data.means(), int_data.stderrs(), fix_b=1 / d)
    f, f_d = ref_fit.f, int_fit.f
    ratio = f_d / f
    e_f_gate = (d**2 - 1) / d**2 * (1 - ratio)
    r_gate = (d - 1) / d * (1 - ratio)
    e_sys = systematic_irb_bound(f, f_d, d)
    rel = np.sqrt((ref_fit.f_err / f) ** 2 + (int_fit.f_err / f_d) ** 2)
    stat = (d - 1) / d * abs(ratio) * rel
    return {
        "reference_fit": ref_fit,
        "interleaved_fit": int_fit,
        "e_F": e_f_gate,
        "r": r_gate,
        "stat_err_r": stat,
        # coherent cancellation can make the interleaved curve decay more
        # slowly than the reference; the estimate is returned as is
        "negative_estimate": bool(f_d > f),
        "bounds_r": (r_gate - e_sys - stat, r_gate + e_sys + stat),
        "bounds_e_F": (
            (d + 1) / d * (r_gate - e_sys - stat),
            (d + 1) / d * (r_gate + e_sys + stat),
        ),
    }


def systematic_irb_bound(f: float, f_d: float, d: int) -> float:
    """The interleaved-RB systematic error term E (minimum of two forms)."""
    first = (d - 1) / d * (abs(f - f_d / f) + (1 - f))
    second = 2 * (d**2 - 1) * (1 - f) / (d**2 * f) + 4 * np.sqrt(1 - f) * np.sqrt(d**2 - 1) / f
    return min(first, second)


# -- purity benchmarking (XRB) ---------------------------------------------------------

def xrb(model: GateSetModel, design: RBDesign, reference_fit: FitResult = None):
    """eXtended RB: CRB circuits without inversion, state tomography appended.

    Fits ``<gamma(m)> = A u**m`` where gamma is the unbiased estimate of the
    squared Bloch-vector length; returns (u, e_S, e_U) with ``e_U`` present
    when a reference CRB fit is supplied.
    """
    n = len(design.qubits)
    d = 2**n
    gen = rng(design.seed)
    settings = _all_settings(n)
    values = {m: [] for m in design.depths}
    readouts = [readout_layer(PauliString.from_label(setting)) for setting in settings]
    for m in design.depths:
        circuits, seeds = [], []
        for _ in range(design.circuits_per_depth):
            _, layers = _clifford_sequence(gen, n, m)
            for readout in readouts:
                circuits.append(Circuit(n, tuple(layers) + (readout,)))
                seeds.append(int(gen.integers(2**62)))
        records = iter(_sample_all(model, circuits, design.shots, seeds, "dense"))
        for _ in range(design.circuits_per_depth):
            gamma = 0.0
            per_pauli = {}
            for setting, rec in zip(settings, records):
                for pidx in range(1, 4**n):
                    p = PauliString.from_index(pidx, n)
                    if not _setting_covers(setting, p):
                        continue
                    mean = parity_from_counts(rec, p)
                    per_pauli.setdefault(pidx, []).append(mean)
            for pidx, means in per_pauli.items():
                mhat = float(np.mean(means))
                nshots = design.shots * len(means)
                gamma += (nshots * mhat**2 - 1) / (nshots - 1)  # unbiased <P>**2
            values[m].append(gamma / (d - 1) * 1.0)
    data = DecayDataset(list(design.depths), values, "xrb")
    # gamma normalized by (d-1) so the noiseless value is 1 and the fit's
    # decay parameter is the unitarity
    fit = fit_decay(data.depths, data.means(), data.stderrs(), fix_b=0.0)
    u = fit.f
    e_s = 1 - np.sqrt(((d**2 - 1) * min(u, 1.0) + 1) / d**2)
    out = {"data": data, "fit": fit, "u": u, "u_err": fit.f_err, "e_S": e_s}
    if reference_fit is not None:
        out["e_F"] = convert_metric(reference_fit.f, "f", "e_F", d)
        out["e_U"] = out["e_F"] - e_s
    return out


def _all_settings(n):
    out = [""]
    for _ in range(n):
        out = [s + a for s in out for a in "XYZ"]
    return out


def _setting_covers(setting, p: PauliString) -> bool:
    return all(p.letter(q) in ("I", setting[q]) for q in range(p.n))


# -- layer samplers for native-gate RB ----------------------------------------------

class LayerSampler:
    """Omega distribution over composite layers (1q sublayer + 2q sublayer).

    Each sample returns a pair of layers: uniformly random single-qubit
    Cliffords on every qubit, then disjoint two-qubit gates placed on edges
    with the given density.  Each edge's 2q operation is built once, so
    every layer shares it.

    The edges are checked here, once, so the circuits built from samples
    need no check of their own (:meth:`qcvv.device.Circuit._assembled`):
    each edge must be two distinct qubits in ``range(n)``, else a
    ValueError.  ``edges`` becomes a tuple of int pairs and ``twoq_gate``
    a ``str``.
    """

    def __init__(self, n: int, edges=None, twoq_gate: str = "CNOT", twoq_density: float = 0.5):
        self.n = n
        edges = [(i, i + 1) for i in range(n - 1)] if edges is None else edges
        self.edges = tuple(tuple(map(int, e)) for e in edges)
        for e in self.edges:
            if len(e) != 2 or e[0] == e[1] or not all(0 <= q < n for q in e):
                raise ValueError(f"edge {e} is not two distinct qubits in range({n})")
        self.twoq_gate = str(twoq_gate)
        self.twoq_density = twoq_density
        self._ops = [(self.twoq_gate, e) for e in self.edges]

    def sample(self, gen):
        oneq = oneq_layer(gen.integers(24, size=self.n).tolist())
        order = gen.permutation(len(self.edges)).tolist()
        busy = set()
        twoq = []
        for ei in order:
            a, b = self.edges[ei]
            if a in busy or b in busy:
                continue
            if gen.random() < self.twoq_density:
                twoq.append(self._ops[ei])
                busy.update((a, b))
        return oneq, tuple(twoq)

    def layer_polarization(self, model: GateSetModel, oneq, twoq) -> float:
        """Entanglement-fidelity-based polarization oracle for one layer."""
        fe = 1.0
        busy = set()
        for label, qubits in tuple(oneq) + tuple(twoq):
            err = model.error_channel(label, len(qubits))
            fe *= err.to_chi()[0, 0].real
            busy.update(qubits)
        if model.idle is not None:
            for q in range(self.n):
                if q not in busy:
                    fe *= model.idle.to_chi()[0, 0].real
        d = 2**self.n
        return (d**2 * fe - 1) / (d**2 - 1)


# -- binary RB ----------------------------------------------------------------------

def birb(model: GateSetModel, design: RBDesign, sampler: LayerSampler, backend="fast"):
    """Binary RB over the sampler's layer distribution.

    Prepares a random Pauli's tensor eigenstate, applies m composite layers,
    rotates the propagated Pauli to Z-type, and scores each shot +1/-1 by
    the measured eigenvalue.  Fits ``A f**m`` with B = 0.  The body's
    propagation of the Pauli, layer by layer, is also the measured Pauli
    pulled back through the circuit, which the fast path reads instead of
    compiling the joined circuit's gate tables.

    Each circuit draws its Pauli, eigenstate signs, layers and shot seed in
    turn and is sampled through :func:`qcvv.device._eigenstate_stacks`,
    which keeps the empty readout layer a Z-type image leaves, so idle
    qubits still take its noise.  A body is assembled from the sampler's
    layers, which are valid by construction (see :class:`LayerSampler`),
    without a check (:meth:`qcvv.device.Circuit._assembled`).
    """
    n = sampler.n
    gen = rng(design.seed)

    def draw():  # one circuit of the depth m that the loop below is at
        p = PauliString.from_index(int(gen.integers(1, 4**n)), n)
        prep, sign = eigenstate_layer(p, gen)
        layers = []
        for _i in range(m):
            layers.extend(sampler.sample(gen))
        return p, prep, sign, Circuit._assembled(n, tuple(layers)), int(gen.integers(2**62))

    values = {m: [] for m in design.depths}
    for m in design.depths:
        # a body holds m composite layers of two sublayers each
        means = _eigenstate_stacks(
            model, draw, design.circuits_per_depth, 2 * m, design.shots, backend, keep_empty_readout=True
        )
        values[m].extend(means)
    data = DecayDataset(list(design.depths), values, "birb")
    fit = fit_decay(data.depths, data.means(), data.stderrs(), fix_b=0.0)
    return {"data": data, "fit": fit, "f": fit.f, "f_err": fit.f_err}


# -- mirror RB ---------------------------------------------------------------------

def mirror_circuit(sampler: LayerSampler, m: int, gen) -> Circuit:
    """A randomized mirror circuit of benchmark depth m (m/2 layers + inverses).

    Structure: random 1q-Clifford layer L0; m/2 sampled composite layers;
    the layer-by-layer inverse; L0 inverse.  Adjacent 1q sublayers are
    merged, and randomized compiling dresses every 2q sublayer with Paulis
    compiled into the neighboring 1q layers, leaving depth unchanged and
    the ideal action a definite bit string.  Every layer is a sampled
    layer, its inverse or a full-width 1q layer, so the circuit is
    assembled without a check (:meth:`qcvv.device.Circuit._assembled`).
    """
    if m % 2:
        raise ValueError("mirror benchmark depth must be even")
    n = sampler.n
    half = [sampler.sample(gen) for _ in range(m // 2)]
    l0 = oneq_layer(gen.integers(24, size=n).tolist())
    ident = oneq_layer([clifford_1q_tables().identity] * n)
    # flat alternation u[0] t[0] u[1] t[1] ... u[m]; the center and edge 1q
    # layers absorb L0, its inverse, and the turnaround
    oneq_layers = []
    twoq_layers = []
    h = m // 2
    if h == 0:
        oneq_layers = [compose_1q_layers(l0, inverse_layer(l0), n)]
    else:
        oneq_layers.append(compose_1q_layers(l0, half[0][0], n))
        twoq_layers.append(half[0][1])
        for i in range(1, h):
            oneq_layers.append(half[i][0])
            twoq_layers.append(half[i][1])
        oneq_layers.append(ident)  # turnaround between t_h and its inverse
        for i in range(h - 1, 0, -1):
            twoq_layers.append(inverse_layer(half[i][1]))
            oneq_layers.append(inverse_layer(half[i][0]))
        twoq_layers.append(inverse_layer(half[0][1]))
        oneq_layers.append(compose_1q_layers(inverse_layer(half[0][0]), inverse_layer(l0), n))
    dressed_oneq, dressed_twoq = randomized_compile(oneq_layers, twoq_layers, n, gen)
    layers = []
    for i, oneq in enumerate(dressed_oneq):
        layers.append(oneq)
        if i < len(dressed_twoq):
            layers.append(dressed_twoq[i])
    return Circuit._assembled(n, tuple(layers))


def adjusted_success_probability(counts: dict, target: str, n: int) -> float:
    """Hamming-weighted success metric from an outcome histogram."""
    shots, mask = sum(counts.values()), int(target, 2)
    hk = np.zeros(n + 1)
    for bstr, c in counts.items():
        hk[bin(int(bstr, 2) ^ mask).count("1")] += c / shots
    weights = (-0.5) ** np.arange(n + 1)
    return float(4**n / (4**n - 1) * np.dot(weights, hk) - 1 / (4**n - 1))


def mrb(model: GateSetModel, design: RBDesign, sampler: LayerSampler, backend="fast"):
    """Mirror RB over the sampler's layer distribution.

    The randomized compiling in :func:`mirror_circuit` preserves the exact
    ideal action, so every mirror circuit's target string is all zeros.
    Each depth draws all its circuits and shot seeds first, circuit by
    circuit, then samples them as one ensemble
    (:func:`qcvv.device._sample_all`), which draws nothing from ``gen``.
    """
    n = sampler.n
    gen = rng(design.seed)
    target = "0" * n
    values = {m: [] for m in design.depths}
    for m in design.depths:
        circuits, seeds = [], []
        for _ in range(design.circuits_per_depth):
            circuits.append(mirror_circuit(sampler, m, gen))
            seeds.append(int(gen.integers(2**62)))
        for rec in _sample_all(model, circuits, design.shots, seeds, backend, np.zeros(n, dtype=np.uint8)):
            values[m].append(adjusted_success_probability(rec.counts, target, n))
    data = DecayDataset(list(design.depths), values, "mrb")
    fit = fit_decay(data.depths, data.means(), data.stderrs(), fix_b=0.0)
    return {"data": data, "fit": fit, "f": fit.f, "f_err": fit.f_err}


# -- cross-entropy benchmarking and speckle purity -----------------------------------

def haar_su4_layer_sampler(n: int, seed):
    """Layer generator: Haar-random SU(4) on a random disjoint pairing."""
    state = {"k": 0}
    gen = rng(seed)

    def sample():
        perm = gen.permutation(n).tolist()
        layer = []
        defs = {}
        for i in range(0, n - 1, 2):
            a, b = perm[i], perm[i + 1]
            label = f"su4_{state['k']}"
            state["k"] += 1
            defs[label] = haar_random_unitary(4, gen)
            layer.append((label, (min(a, b), max(a, b))))
        return tuple(layer), defs

    return sample


def xeb(model: GateSetModel, design: RBDesign, layer_sample, min_depth: int = 0):
    """XEB over scrambling layers: per-depth linear-fit estimator of F_XEB.

    ``layer_sample()`` must return (layer, gate_defs).  Depths below the
    user-declared scrambling depth ``min_depth`` are refused; the choice is
    recorded in the result.
    """
    n = model.n
    if any(m < min_depth for m in design.depths):
        raise ValueError(f"XEB depths below the declared scrambling depth {min_depth}")
    gen = rng(design.seed)
    d = 2**n
    per_depth_f = []
    bitstring_probs = {m: [] for m in design.depths}
    for m in design.depths:
        xs, ys = [], []
        circuits, seeds = [], []
        for _ in range(design.circuits_per_depth):
            layers = []
            defs = {}
            for _i in range(m):
                layer, dd = layer_sample()
                layers.append(layer)
                defs.update(dd)
            circuits.append(Circuit(n, tuple(layers), defs))
            seeds.append(int(gen.integers(2**62)))
        for rec, ideal in zip(_sample_all(model, circuits, design.shots, seeds, "dense"), _ideal_distributions(model, circuits)):
            pmap = ideal.as_dict()
            h_pq = d / design.shots * sum(pmap[b] * c for b, c in rec.counts.items()) - 1
            h_pp = d * float(np.sum(ideal.probs**2)) - 1
            xs.append(h_pp)
            ys.append(h_pq)
            emp = np.zeros(d)
            for b, c in rec.counts.items():
                emp[int(b, 2)] = c / design.shots
            bitstring_probs[m].append(emp)
        xs, ys = np.asarray(xs), np.asarray(ys)
        per_depth_f.append(float(xs @ ys / (xs @ xs)))
    fit = fit_decay(design.depths, per_depth_f, np.full(len(design.depths), 0.03), fix_b=0.0)
    return {
        "per_depth_f_xeb": per_depth_f,
        "fit": fit,
        "f": fit.f,
        "f_err": fit.f_err,
        "min_depth": min_depth,
        "bitstring_probs": bitstring_probs,
    }


def porter_thomas_variance(d: int) -> float:
    return (d - 1) / (d**2 * (d + 1))


def speckle_purity(bitstring_probs: dict, shots: int, d: int):
    """Purity decay from the variance of the bit-string probability speckle.

    ``bitstring_probs[m]`` is a list of empirical probability vectors (one
    per random circuit).  The per-cell multinomial sampling variance is
    subtracted before fitting ``var(m) = sigma_PT**2 * eps**(2m)``.
    """
    depths = sorted(bitstring_probs)
    variances = []
    for m in depths:
        cells = np.concatenate([np.asarray(v) for v in bitstring_probs[m]])
        var = cells.var(ddof=1)
        shot_var = float(np.mean(cells * (1 - cells))) / (shots - 1)
        variances.append(max(var - shot_var, 1e-12))
    sig_pt = porter_thomas_variance(d)
    ys = np.sqrt(np.asarray(variances) / sig_pt)  # eps**m
    fit = fit_decay(depths, ys, np.full(len(depths), 0.05), fix_b=0.0)
    eps = fit.f
    return {"variances": dict(zip(depths, variances)), "eps": eps, "u": eps**2, "fit": fit}
