"""Whole-circuit fidelity estimation: direct fidelity estimation, mirror
circuit fidelity estimation, and circuit output accreditation.

DFE measures the sampled Paulis of one shot count in one
:func:`qcvv.device._parity_all` call.  MCFE and accreditation check their
target once and assemble every circuit from it (MCFE needs at least two
circuits per ensemble); they draw all their circuits and shot seeds first
and then sample them as one ensemble on either backend.  Trap 1q layers
are composed and randomly compiled on per-qubit Clifford element indices,
and each trap's labels are built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .cliffords import (
    _dress_elements,
    _elements,
    clifford_1q_tables,
    compose_1q_layers,
    inverse_layer,
    oneq_layer,
    readout_layer,
    readout_pauli,
)
from .device import Circuit, GateSetModel, _apply_stacked, _parity_all, _sample_all
from .linalg import pauli_matrices, rng
from .metrics import convert_metric
from .paulis import PauliString
from .rb import adjusted_success_probability

DFE_DENSE_QUBIT_CAP = 10


# -- direct fidelity estimation ---------------------------------------------------

@dataclass
class DFEResult:
    estimate: float
    stderr: float
    epsilon: float
    delta: float
    sampled_bases: int
    total_shots: int


def characteristic_function(target, n: int) -> np.ndarray:
    """chi_psi(k) = Tr[psi P_k] / sqrt(d) over the Pauli index.

    ``target`` is a density matrix (dense route, capped loudly at 10
    qubits) or a list of signed stabilizer-generator labels such as
    ["+XX", "-ZY"] (exact route).
    """
    d = 2**n
    if isinstance(target, np.ndarray):
        if n > DFE_DENSE_QUBIT_CAP:
            raise ValueError(
                f"dense characteristic functions are capped at {DFE_DENSE_QUBIT_CAP} qubits; "
                "pass a stabilizer description instead"
            )
        paulis = pauli_matrices(n)
        return np.einsum("kij,ji->k", paulis, target).real / np.sqrt(d)
    chi = np.zeros(4**n)
    for sign, p in _stabilizer_group(target, n):
        chi[p.index] = sign / np.sqrt(d)
    return chi


def _stabilizer_group(generators, n):
    gens = []
    for g in generators:
        sign = 1
        if g[0] in "+-":
            sign = -1 if g[0] == "-" else 1
            g = g[1:]
        p = PauliString.from_label(g)
        if sign < 0:
            p = PauliString(p.n, p.xbits, p.zbits, p.phase + 2)
        gens.append(p)
    if len(gens) != n:
        raise ValueError("need n independent stabilizer generators")
    group = []
    for mask in range(2**n):
        acc = PauliString.identity(n)
        for i in range(n):
            if (mask >> i) & 1:
                acc = acc * gens[i]
        s = acc.sign
        if abs(s.imag) > 1e-12:
            raise ValueError("generators do not commute")
        group.append((1 if s.real > 0 else -1, acc.hermitian()))
    return group


def ghz_stabilizers(n: int):
    gens = ["X" * n]
    for i in range(n - 1):
        gens.append("".join("Z" if q in (i, i + 1) else "I" for q in range(n)))
    return gens


def ghz_circuit(n: int) -> Circuit:
    layers = [(("H", (0,)),)]
    for i in range(n - 1):
        layers.append((("CNOT", (i, i + 1)),))
    return Circuit(n, tuple(layers))


def dfe(
    model: GateSetModel,
    prep_circuit: Circuit,
    target,
    epsilon: float,
    delta: float,
    seed,
    backend: str = "dense",
) -> DFEResult:
    """Direct fidelity estimation of the state a circuit prepares.

    Samples ``l = ceil(1/(eps**2 delta))`` Pauli indices k with probability
    ``chi_psi(k)**2``, measures each with the per-k budget
    ``m_k = ceil(2 ln(2/delta) / (d chi_psi(k)**2 l eps**2))`` shots, and
    averages the estimators ``X = chi_rho(k) / chi_psi(k)``.  For stabilizer
    targets the chi weights are uniform, so the number of sampled bases is
    independent of n.  The fast backend needs each sampled
    ``sqrt(d) chi_psi(k)``, the ideal parity, to be +1 or -1 (a stabilizer
    target) and raises a ValueError otherwise.
    """
    n = model.n
    d = 2**n
    chi = characteristic_function(target, n)
    probs = chi**2
    probs = probs / probs.sum()
    gen = rng(seed)
    l = int(np.ceil(1 / (epsilon**2 * delta)))
    ks, reps = np.unique(gen.choice(len(probs), size=l, p=probs), return_counts=True)
    rows, by_shots = [], {}  # per sampled Pauli: its circuit, measured Pauli, seed and ideal parity
    for i, (k, rep) in enumerate(zip(ks, reps)):
        p = PauliString.from_index(int(k), n)
        m_k = int(np.ceil(2 * np.log(2 / delta) / (d * chi[k] ** 2 * l * epsilon**2)))
        by_shots.setdefault(max(m_k, 1) * int(rep), []).append(i)
        meas_layer = readout_layer(p)
        circ = prep_circuit.then(Circuit(n, (meas_layer,))) if meas_layer else prep_circuit
        rows.append((circ, readout_pauli(p), int(gen.integers(2**62)), chi[k] * np.sqrt(d)))
    # the Paulis of one shot count are measured as one ensemble
    means = [None] * len(ks)
    for m_k, group in by_shots.items():
        circuits, measured, seeds, signs = zip(*(rows[i] for i in group))
        for i, mean in zip(group, _parity_all(model, circuits, measured, m_k, seeds, backend, signs)):
            means[i] = float(mean)
    values = []
    for k, rep, mean in zip(ks, reps, means):
        values.extend([(mean / np.sqrt(d)) / chi[k]] * int(rep))
    total_shots = sum(m_k * len(group) for m_k, group in by_shots.items())
    values = np.asarray(values)
    est = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else epsilon
    return DFEResult(est, stderr, epsilon, delta, int(len(ks)), total_shots)


# -- mirror circuit fidelity estimation -------------------------------------------

@dataclass
class MCFEResult:
    f: float
    f_e: float
    gamma_m1: float
    gamma_m2: float
    gamma_m3: float
    stderr: float


def split_alternating(layers, n):
    """Split a circuit into the alternating form u t u t ... u, padding with
    identity 1q layers where needed.  Returns (oneq list, twoq list)."""
    ident = oneq_layer([clifford_1q_tables().identity] * n)
    oneq, twoq = [], []
    have_oneq = False
    for layer in layers:
        is_twoq = any(len(qs) == 2 for _, qs in layer)
        if is_twoq:
            if not have_oneq:
                oneq.append(ident)
            twoq.append(tuple(layer))
            have_oneq = False
        else:
            if have_oneq:
                oneq[-1] = compose_1q_layers(oneq[-1], tuple(layer), n)
            else:
                oneq.append(tuple(layer))
                have_oneq = True
    if not have_oneq:
        oneq.append(ident)
    return oneq, twoq


def mcfe(
    model: GateSetModel,
    target_layers,
    k_ensemble: int,
    shots: int,
    seed,
    backend: str = "fast",
) -> MCFEResult:
    """Mirror circuit fidelity estimation of a Clifford circuit.

    Builds the three mirror ensembles: M1 embeds the bare target followed by
    a randomly compiled layer-by-layer inverse, M2 randomly compiles both
    halves, M3 is the SPAM-only reference.  Estimates
    ``f(C) = E gamma(M1) / sqrt(E gamma(M2) E gamma(M3))`` with gamma the
    Hamming-weighted polarization estimator, then converts to F_e.  All
    3 * ``k_ensemble`` circuits and their shot seeds are drawn first, in
    ensemble order, then sampled as one ensemble
    (:func:`qcvv.device._sample_all`), which draws nothing from ``seed``'s
    generator.  Per circuit the draws are its L0 elements, the Pauli
    indices of its randomly compiled halves (forward for M2, then reverse
    for M1 and M2; see :func:`qcvv.cliffords.randomized_compile`) and its
    seed; the halves of all circuits are then dressed at once
    (:func:`qcvv.cliffords._dress_elements`).

    The target is checked once, as ``Circuit(n, target_layers)``.  Every
    circuit is assembled from its normalised layers, their inverses and
    drawn full-width 1q layers, so none is checked again
    (:meth:`qcvv.device.Circuit._assembled`).  ``k_ensemble`` below 2 is a
    ValueError: the error bar needs two circuits per ensemble.
    """
    if k_ensemble < 2:
        raise ValueError("k_ensemble must be at least 2")
    n = model.n
    gen = rng(seed)
    oneq_t, twoq_t = split_alternating(Circuit(n, target_layers).layers, n)
    rv_one = [inverse_layer(u) for u in reversed(oneq_t)]
    rv_two = [inverse_layer(layer) for layer in reversed(twoq_t)]
    which_of = [which for which in (1, 2, 3) for _ in range(k_ensemble)]
    l0s, fw_draws, rv_draws, seeds = [], [], [], []
    for which in which_of:
        l0s.append(gen.integers(24, size=n).tolist())
        if which == 2:
            fw_draws.append(gen.integers(4**n, size=len(twoq_t)))
        if which != 3:
            rv_draws.append(gen.integers(4**n, size=len(twoq_t)))
        seeds.append(int(gen.integers(2**62)))
    # a half without a 2q sublayer is not compiled and keeps its labels
    fw_halves, rv_halves = [oneq_t] * k_ensemble, [rv_one] * (2 * k_ensemble)
    if twoq_t:
        fw_halves = _compiled_halves(oneq_t, twoq_t, fw_draws, n)
        rv_halves = _compiled_halves(rv_one, rv_two, rv_draws, n)
    fw_halves, rv_halves = iter(fw_halves), iter(rv_halves)
    inverse = clifford_1q_tables().inverse
    circuits = []
    for which, l0 in zip(which_of, l0s):
        layers = [oneq_layer(l0)]
        if which != 3:
            fw_one = next(fw_halves) if which == 2 else oneq_t
            for half_one, half_two in ((fw_one, twoq_t), (next(rv_halves), rv_two)):
                for i, oq in enumerate(half_one):
                    layers.append(tuple(oq))
                    if i < len(half_two) and half_two[i]:
                        layers.append(tuple(half_two[i]))
        layers.append(oneq_layer(inverse[l0].tolist()))
        circuits.append(Circuit._assembled(n, tuple(lay for lay in layers if lay)))
    gammas = {1: [], 2: [], 3: []}
    records = _sample_all(model, circuits, shots, seeds, backend, np.zeros(n, dtype=np.uint8))
    for which, rec in zip(which_of, records):
        gammas[which].append(adjusted_success_probability(rec.counts, "0" * n, n))
    g1, g2, g3 = (float(np.mean(gammas[i])) for i in (1, 2, 3))
    if g2 * g3 <= 0:
        raise ValueError(f"negative radicand: ensemble means gamma2={g2}, gamma3={g3}")
    f = g1 / np.sqrt(g2 * g3)
    errs = [float(np.std(gammas[i], ddof=1)) / np.sqrt(k_ensemble) for i in (1, 2, 3)]
    rel = np.sqrt((errs[0] / g1) ** 2 + (errs[1] / (2 * g2)) ** 2 + (errs[2] / (2 * g3)) ** 2)
    f_e = convert_metric(f, "f", "F_e", 2**n)
    return MCFEResult(float(f), float(f_e), g1, g2, g3, float(abs(f) * rel))


def _compiled_halves(oneq_layers, twoq_layers, dressings, n):
    """Per row of ``dressings``, the 1q layers of ``oneq_layers`` randomly
    compiled around ``twoq_layers`` with those Pauli indices, as full-width
    ``c1`` layers, all rows dressed at once."""
    elements = np.array([_elements(layer, n) for layer in oneq_layers], dtype=np.intp)
    stacked = np.broadcast_to(elements, (len(dressings),) + elements.shape)
    return [list(map(oneq_layer, rows)) for rows in _dress_elements(stacked, twoq_layers, np.array(dressings)).tolist()]


def circuit_polarization_oracle(model: GateSetModel, layers) -> float:
    """Dense PTM-product polarization of a circuit under the model's noise.

    Composes the noisy and ideal circuit PTMs and evaluates
    ``f = (Tr[L_noisy L_ideal^-1] - 1)/(d**2 - 1)``.  Width-capped by memory
    (intended for n <= 3 oracle checks).
    """
    n = model.n
    d2 = 4**n
    noisy = np.eye(d2)
    ideal = np.eye(d2)
    for layer in layers:
        for label, qubits in layer:
            ch = model.resolve(label, len(qubits), None)
            noisy = _embed_ptm(ch.ptm, qubits, n) @ noisy
            u = model.ideal_unitary(label)
            ideal = _embed_ptm(Channel.from_unitary(u).ptm, qubits, n) @ ideal
    err = noisy @ ideal.T
    return float((np.trace(err) - 1) / (d2 - 1))


def _embed_ptm(ptm, qubits, n):
    t = np.eye(4**n).reshape((1,) + (4,) * (2 * n))
    return _apply_stacked(t, ptm, qubits).reshape(4**n, 4**n)


# -- circuit output accreditation ---------------------------------------------------

@dataclass
class AccreditationResult:
    f_lower: float
    f_upper: float
    n_unsuccessful: int
    n_traps: int
    theta: float
    alpha: float


def trap_count(theta: float, alpha: float) -> int:
    """N_c = ceil(2 ln(2/(1-alpha)) / theta**2)."""
    return int(np.ceil(2 * np.log(2 / (1 - alpha)) / theta**2))


# the {I, H, S} choices of a trap round, as :func:`_trap_rounds` numbers them
_TRAP_GATES = ("I", "H", "S")


def _trap_rounds(n, n_rounds, twoq_layers, gen):
    """Per-round {I, H, S} picks, as per-qubit indices into
    ``_TRAP_GATES``, constrained so every entangling gate sees at least one
    Z-basis qubit (the trap then acts classically through the CZ layers and
    ends in a definite computational outcome).

    Each round's gates reset the single-qubit frame (the previous pick's
    inverse is compiled in), so a qubit is equatorial during round t exactly
    when that round's pick is H.

    A round is redrawn whole, as n more draws, until it passes.  The draws
    come in blocks of one pick per round still to fill, and every pick of a
    block is used, passing or not, so the stream is that of one call per
    pick."""
    h = _TRAP_GATES.index("H")
    pairs = [[qs for _, qs in layer if len(qs) == 2] for layer in twoq_layers[:n_rounds]]
    rounds = []
    while len(rounds) < n_rounds:
        for pick in gen.integers(3, size=(n_rounds - len(rounds), n)).tolist():
            t = len(rounds)
            if not any(pick[a] == h and pick[b] == h for a, b in (pairs[t] if t < len(pairs) else ())):
                rounds.append(pick)
    return rounds


def _trap_oneq_elements(rounds):
    """Compose each round's {I, H, S} pick with the inverse of the previous
    round's, closing with a full inversion round, so a trap's 1q gates alone
    compose to the identity per qubit.  ``rounds`` holds the picks of
    :func:`_trap_rounds`, shaped ``(..., rounds, n)``; the result holds each
    layer's per-qubit elements (see :func:`qcvv.cliffords.clifford_1q_tables`),
    shaped ``(..., rounds + 1, n)``, as table lookups over every leading
    index at once."""
    tables = clifford_1q_tables()
    picks = np.array([tables.element[g] for g in _TRAP_GATES])[rounds]
    identity = np.full(picks.shape[:-2] + (1, picks.shape[-1]), tables.identity)
    undo = np.concatenate([identity, tables.inverse[picks]], axis=-2)
    return tables.compose[undo, np.concatenate([picks, identity], axis=-2)]


def accredit(
    model: GateSetModel,
    target_layers,
    theta: float,
    alpha: float,
    seed,
    backend: str = "fast",
) -> AccreditationResult:
    """Circuit output accreditation: bound the target circuit's F_e with traps.

    The target must alternate 1q layers with CZ entangling layers.  Each of
    the ``N_c = trap_count(theta, alpha)`` traps keeps the target's width
    and entangling-gate placement, substitutes {I, H, S} draws for the 1q
    gates with inverses compiled into the next round, and is randomly
    compiled.  Each trap runs one shot and is unsuccessful when it misses
    its ideal all-zeros outcome; the fraction bounds F_e via ``1 -
    N_uns/N_c >= F_e >= 1 - 2 N_uns/N_c``.  All traps and their shot seeds are drawn first, trap by
    trap, then sampled as one ensemble (:func:`qcvv.device._sample_all`),
    which draws nothing from ``seed``'s generator.  The target is checked
    once, as ``Circuit(n, target_layers)``, and the traps are built as one
    ensemble (:func:`_traps`): the draws keep their order, one trap at a
    time.
    """
    n = model.n
    gen = rng(seed)
    _, twoq_t = split_alternating(Circuit(n, target_layers).layers, n)
    for layer in twoq_t:
        for lbl, qs in layer:
            if len(qs) == 2 and lbl != "CZ":
                raise ValueError("accreditation traps assume CZ entangling layers")
    n_traps = trap_count(theta, alpha)
    circuits, seeds = _traps(n, twoq_t, n_traps, gen)
    records = _sample_all(model, circuits, 1, seeds, backend, np.zeros(n, dtype=np.uint8))
    n_uns = sum("0" * n not in rec.counts for rec in records)
    frac = n_uns / n_traps
    return AccreditationResult(max(1 - 2 * frac, 0.0), 1 - frac, n_uns, n_traps, theta, alpha)


def _traps(n, twoq_t, n_traps, gen):
    """``n_traps`` randomly compiled traps over the CZ layers ``twoq_t``,
    and their shot seeds.  A trap's 1q gates compose to the identity and
    every CZ meets a qubit in |0>, where it acts as the identity, so each
    trap's ideal outcome is all zeros.

    The draws are those of one trap at a time, in order: per trap, its
    rounds' picks (:func:`_trap_rounds`), one dressing index per CZ layer
    (:func:`qcvv.cliffords.randomized_compile`), then its seed.  Only then
    are the 1q elements of every trap composed and dressed at once
    (:func:`_trap_oneq_elements`, :func:`qcvv.cliffords._dress_elements`).
    Full-width 1q layers alternate with the non-empty CZ layers of the
    checked target, so every trap is assembled unchecked
    (:meth:`qcvv.device.Circuit._assembled`)."""
    n_rounds = len(twoq_t) + 1
    rounds, dressings, seeds = [], [], []
    for _ in range(n_traps):
        rounds.append(_trap_rounds(n, n_rounds, twoq_t, gen))
        dressings.append(gen.integers(4**n, size=len(twoq_t)))
        seeds.append(int(gen.integers(2**62)))
    elements = _trap_oneq_elements(np.array(rounds, dtype=np.intp))
    elements[:, :-1] = _dress_elements(elements[:, :-1], twoq_t, np.array(dressings))
    # a trap's layers: its 1q layer i (the slot's number), then CZ layer i
    # unless it is empty
    slots = []
    for i in range(n_rounds + 1):
        slots.append(i)
        if i < len(twoq_t) and twoq_t[i]:
            slots.append(twoq_t[i])
    return [Circuit._assembled(n, _trap_layers(row, slots)) for row in elements.tolist()], seeds


def _trap_layers(elements, slots) -> tuple:
    """A trap's layers: per slot, the full-width 1q layer of the elements
    the slot numbers, or the slot's own CZ layer."""
    return tuple([oneq_layer(elements[s]) if type(s) is int else s for s in slots])
