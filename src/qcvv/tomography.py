"""State, process, measurement, and linear gate-set tomography.

Estimators: ``linear`` least-squares inversion (``lstsq`` is an alias) and
``mle``, one likelihood fit shared by states, processes and measurements.
It runs over Choi matrices J = (S^-1/2 kron I) A A^dag (S^-1/2 kron I) with
S = Tr_out(A A^dag), which are CP and TP by construction, with an analytic
gradient.  A state is a channel from a one-dimensional input and a POVM a
channel to classical outcomes (Jezek, Fiurasek & Hradil, PRA 68, 012305,
2003).  Probabilities and operators live in the normalized-Pauli superket
convention throughout, so linear designs are real.

The default fiducials follow the minimal informationally complete choice:
preparations {|0>, |1>, |+>, |i+>} per qubit and the 3**n Pauli measurement
settings.  Their 6**n effect matrices and normalized-Pauli superbras are
built once per width (:func:`_effect_table`) and shared, read-only, by QST,
QPT, LGST and gauge optimization.

A state's 3**n Pauli settings are sampled as one dense ensemble
(:func:`qcvv.device._sample_ensemble`), and linear GST builds its
dataset's circuits first and evolves them as dense stacks
(:func:`qcvv.device._ensemble_states`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import Channel
from .cliffords import GATE_UNITARIES, readout_layer
from .device import (
    Circuit,
    GateSetModel,
    _ensemble_states,
    _sample_ensemble,
    _statevectors,
    circuit_probabilities,
)
from .linalg import (
    NORMALIZED_PAULI,
    Superket,
    child_seeds,
    kron_all,
    pauli_matrices,
    unvectorize,
    vectorize,
)
from .paulis import PauliString


# -- designs -------------------------------------------------------------------

_PREP_FIDUCIALS_1Q = (("I",), ("X",), ("Y90",), ("X90M",))  # |0>, |1>, |+>, |i+>
_MEAS_SETTINGS_1Q = ("Z", "X", "Y")


def prep_fiducial_circuits(n: int):
    """The 4**n preparation fiducials as layers of palette gates."""
    seqs = [()]
    for _ in range(n):
        seqs = [s + (f,) for s in seqs for f in _PREP_FIDUCIALS_1Q]
    out = []
    for s in seqs:
        layer = tuple((gates[0], (q,)) for q, gates in enumerate(s) if gates[0] != "I")
        out.append((layer,))
    return out


def meas_setting_circuits(n: int):
    """The 3**n Pauli measurement settings as basis-rotation layers."""
    settings = [""]
    for _ in range(n):
        settings = [s + a for s in settings for a in _MEAS_SETTINGS_1Q]
    return [(s, (readout_layer(PauliString.from_label(s)),)) for s in settings]


@lru_cache(maxsize=None)
def _setting_circuits(n: int):
    """The settings of :func:`meas_setting_circuits` with their rotations as
    circuits, built once per width and shared by every caller; a joined
    circuit is new, so none of them changes."""
    return tuple([(setting, Circuit(n, rot)) for setting, rot in meas_setting_circuits(n)])


def pauli_eigenstate_effects(n: int):
    """The 6**n-effect POVM fragment from the 3**n settings: for each setting
    and outcome, the effect matrix; returned as a flat list of (setting,
    outcome bits, matrix)."""
    effects = []
    for setting, _ in meas_setting_circuits(n):
        for outcome in range(2**n):
            mats = []
            for q, axis in enumerate(setting):
                bit = (outcome >> (n - 1 - q)) & 1
                p = pauli_matrices(1)["IXYZ".index(axis)]
                mats.append((np.eye(2) + (1 - 2 * bit) * p) / 2)
            effects.append((setting, format(outcome, f"0{n}b"), kron_all(mats)))
    return effects


@lru_cache(maxsize=None)
def _effect_table(n: int):
    """The effects of :func:`pauli_eigenstate_effects`, built once per width:
    their ``(setting, outcome bits)`` keys, their matrices stacked as a
    (6**n, 2**n, 2**n) array and their normalized-Pauli superbras as a
    (6**n, 4**n) array.  Both arrays are read-only: every caller shares them."""
    effects = pauli_eigenstate_effects(n)
    keys = tuple([(setting, bits) for setting, bits, _ in effects])
    mats = np.array([e for _, _, e in effects])
    bras = np.array([vectorize(e, NORMALIZED_PAULI).coeffs.real for _, _, e in effects])
    mats.flags.writeable = bras.flags.writeable = False
    return keys, mats, bras


def gram_rank(effects) -> int:
    """Rank of the stacked effect superbras (Fisher-information surrogate),
    counting singular values above 1e-8."""
    rows = [vectorize(e, NORMALIZED_PAULI).coeffs.real for e in effects]
    return int(np.linalg.matrix_rank(np.array(rows), tol=1e-8))


# -- the likelihood fit ------------------------------------------------------------

_METHODS = ("linear", "lstsq", "mle")


def _check_method(method):
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")


def _kron_eye(x, d_out: int):
    """``np.kron(x, np.eye(d_out))``, as an index scatter."""
    out = np.zeros((len(x), d_out, len(x), d_out), dtype=x.dtype)
    out[:, np.arange(d_out), :, np.arange(d_out)] = x
    return out.reshape(len(x) * d_out, -1)


def _cptp_choi(x, d_in: int, d_out: int):
    """The Choi matrix J = (S^-1/2 kron I) A A^dag (S^-1/2 kron I), with
    S = Tr_out(A A^dag) and A the square matrix whose real and imaginary parts
    are the two halves of ``x``.  J is CP and TP for every full-rank A.
    Returns J, then A, A A^dag, S^-1/2 kron I and the square roots and
    eigenvectors of S, which the gradient reuses."""
    d = d_in * d_out
    a = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
    b = a @ a.conj().T
    evals, u = np.linalg.eigh(b.reshape(d_in, d_out, d_in, d_out).trace(axis1=1, axis2=3))
    r = np.sqrt(evals)
    t = _kron_eye((u / r) @ u.conj().T, d_out)
    return t @ b @ t, a, b, t, r, u


def _cptp_nll(x, preps, effects, counts):
    """Negative log-likelihood of the Choi matrix :func:`_cptp_choi` makes of
    ``x``, and its gradient in ``x``.

    The design is the product of ``preps`` (P, d_in, d_in) and ``effects``
    (K, d_out, d_out): effect k after preparation i has probability
    Tr[(preps[i]^T kron effects[k]) J] and count ``counts[i, k]``.  Effects
    without counts drop out (0 log 0 = 0).  The part of the gradient that
    passes through S^-1/2 is the Daleckii-Krein derivative of s^-1/2 in the
    eigenbasis of S.
    """
    d_in, d_out = preps.shape[1], effects.shape[1]
    j, a, b, t, r, u = _cptp_choi(x, d_in, d_out)
    rho = preps.reshape(len(preps), -1)
    eff = effects.reshape(len(effects), -1)
    # each preparation's output state, Tr_in[(rho^T kron I) J], flattened
    outs = rho @ j.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3).reshape(d_in**2, d_out**2)
    p = np.where(counts > 0, np.clip((outs @ eff.conj().T).real, 1e-12, None), 1.0)
    # G = d(nll)/dJ = -sum_ik (n / p)[i, k] preps[i]^T kron effects[k]
    g = -(rho.T @ ((counts / p) @ eff)).reshape(d_in, d_in, d_out, d_out).transpose(1, 2, 0, 3).reshape(j.shape)
    k = b @ t @ g
    k_in = (k + k.conj().T).reshape(d_in, d_out, d_in, d_out).trace(axis1=1, axis2=3)
    gamma = -1 / (np.outer(r, r) * np.add.outer(r, r))  # divided differences of s^-1/2
    dk = u @ (gamma * (u.conj().T @ k_in @ u)) @ u.conj().T
    z = 2 * (t @ g @ t + _kron_eye(dk, d_out)) @ a
    return -float(np.sum(counts * np.log(p))), np.concatenate([z.real.ravel(), z.imag.ravel()])


def _fit_cptp(preps, effects, counts, j0):
    """The maximum-likelihood CP and TP Choi matrix for the design of
    :func:`_cptp_nll`: one L-BFGS run, started from ``j0`` (a linear
    estimate) with its eigenvalues clipped from below."""
    evals, evecs = np.linalg.eigh((j0 + j0.conj().T) / 2)
    a0 = (evecs * np.sqrt(np.clip(evals, 1e-6 * evals.max(), None))) @ evecs.conj().T
    import scipy.optimize

    res = scipy.optimize.minimize(
        _cptp_nll,
        np.concatenate([a0.real.ravel(), a0.imag.ravel()]),
        args=(preps, effects, counts),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 1000, "ftol": 1e-12, "gtol": 1e-8},
    )
    if not res.success:
        raise RuntimeError(f"MLE did not converge: {res.message}")
    return _cptp_choi(res.x, preps.shape[1], effects.shape[1])[0]


def _pinv(t, rank_needed: int):
    """Pseudo-inverse of the superbra rows ``t``; raises ValueError when
    their rank is below ``rank_needed`` (not informationally complete)."""
    u, s, vh = np.linalg.svd(t, full_matrices=False)
    rank = int(np.sum(s > 1e-8))
    if rank < rank_needed:
        raise ValueError(f"effect set is rank deficient ({rank} < {rank_needed}); not informationally complete")
    return (vh.T / s) @ u.T


@lru_cache(maxsize=64)
def _settings_pinv(n: int, rows: bytes):
    """:func:`_pinv` of the :func:`_effect_table` superbras that the boolean
    mask ``rows`` (as bytes) selects, read-only.  Cached per mask, so
    complete datasets check completeness once per width."""
    out = _pinv(_effect_table(n)[2][np.frombuffer(rows, dtype=bool)], 4**n)
    out.flags.writeable = False
    return out


def _tally(dataset, n: int):
    """One state's Pauli-setting counts read against :func:`_effect_table`:
    every effect's count (zero where the dataset lacks its setting), then the
    least-squares normalized-Pauli vector of the state and the norm of its
    frequency residual."""
    keys, _, bras = _effect_table(n)
    counts = np.array([dataset.get(s, {}).get(bits, 0) for s, bits in keys], dtype=float)
    totals = np.array([sum(dataset.get(s, {}).values()) for s, _ in keys], dtype=float)
    rows = totals > 0
    freqs = counts[rows] / totals[rows]
    sol = _settings_pinv(n, rows.tobytes()) @ freqs
    return counts, sol, float(np.linalg.norm(bras[rows] @ sol - freqs))


# -- quantum state tomography -----------------------------------------------------

def qst_dataset(model: GateSetModel, state_circuit: Circuit, shots: int, seed):
    """Measure a prepared state in all Pauli settings, sampled as one dense
    ensemble; returns {setting: counts dict}."""
    settings = _setting_circuits(model.n)
    circuits = [state_circuit.then(rot) for _, rot in settings]
    records = _sample_ensemble(model, circuits, shots, child_seeds(seed, len(settings)))
    return {setting: rec.counts for (setting, _), rec in zip(settings, records)}


def qst(dataset, n: int, method: str = "mle", effects=None, freqs=None):
    """Reconstruct a density matrix from Pauli-setting counts.

    ``dataset`` maps setting labels to counts dicts (see :func:`qst_dataset`);
    alternatively pass explicit ``effects``/``freqs``, which ``mle`` weighs
    as 1,000 shots per effect.
    ``linear`` (or its alias ``lstsq``) returns the least-squares inversion
    (exact when the design is square); ``mle`` maximizes the likelihood over
    density matrices, as the CPTP fit of a channel from a one-dimensional
    input.  Where the linear estimate is PSD and reproduces every frequency
    (saturated designs such as the 1q Pauli settings) it is the MLE, and
    ``mle`` returns it normalized.
    """
    _check_method(method)
    if effects is None:
        counts, sol, resid = _tally(dataset, n)
        effects = _effect_table(n)[1]
    else:
        effects, freqs = np.asarray(effects), np.asarray(freqs, dtype=float)
        t = np.array([vectorize(e, NORMALIZED_PAULI).coeffs.real for e in effects])
        sol = _pinv(t, 4**n) @ freqs
        resid = float(np.linalg.norm(t @ sol - freqs))
        counts = freqs * 1000
    rho_lin = unvectorize(Superket(2**n, sol, NORMALIZED_PAULI))
    rho_lin = (rho_lin + rho_lin.conj().T) / 2
    if method != "mle":
        return rho_lin
    if resid <= 1e-9 and np.linalg.eigvalsh(rho_lin).min() >= -1e-10:
        return rho_lin / np.trace(rho_lin).real
    # a state is a channel from a one-dimensional input
    return _fit_cptp(np.ones((1, 1, 1)), effects, counts[None], rho_lin)


def loglikelihood(effects, counts, rho) -> float:
    ps = np.clip(np.array([np.trace(e @ rho).real for e in effects]), 1e-15, None)
    return float(np.sum(np.asarray(counts) * np.log(ps)))


# -- quantum process tomography -----------------------------------------------------

def qpt_dataset(model: GateSetModel, gate_circuit: Circuit, shots: int, seed):
    """Run the gate on every prep fiducial, measuring all settings."""
    n = model.n
    out = {}
    preps = prep_fiducial_circuits(n)
    seeds = child_seeds(seed, len(preps))
    for i, (prep, s) in enumerate(zip(preps, seeds)):
        circ = Circuit(n, prep).then(gate_circuit)
        out[i] = qst_dataset(model, circ, shots, s)
    return out


def _prep_states(n):
    states = []
    zero = np.zeros((2**n, 2**n), dtype=complex)
    zero[0, 0] = 1.0
    for prep in prep_fiducial_circuits(n):
        u = np.eye(2**n, dtype=complex)
        for label, qubits in prep[0]:
            full = [np.eye(2, dtype=complex)] * n
            full[qubits[0]] = GATE_UNITARIES[label]
            u = kron_all(full) @ u
        states.append(u @ zero @ u.conj().T)
    return states


def qpt(dataset, n: int, method: str = "mle") -> Channel:
    """Reconstruct a channel from prep-fiducial x measurement-setting counts.

    ``linear`` (or ``lstsq``) fits each preparation's output state by least
    squares and solves for the PTM that maps the preparations onto them;
    the design is complete exactly when every preparation's settings are.
    ``mle`` maximizes the likelihood over Choi matrices that are CP and TP
    by construction.  Where the linear estimate is CPTP and reproduces every
    frequency (the 1q design) it is the MLE and is returned as is.
    """
    _check_method(method)
    if n > 3:
        raise ValueError("process tomography supported up to 3 qubits")
    if n == 3:
        import warnings

        warnings.warn("3-qubit process tomography: 1728+ settings; expect a slow fit")
    preps = _prep_states(n)
    if set(dataset) != set(range(len(preps))):
        raise ValueError("dataset must cover every preparation fiducial")
    counts, outs, resids = zip(*(_tally(dataset[i], n) for i in range(len(preps))))
    vins = np.array([vectorize(rho, NORMALIZED_PAULI).coeffs.real for rho in preps])
    # outs[i] = PTM @ vins[i]
    lin = Channel(np.linalg.solve(vins, np.array(outs)).T)
    if method != "mle" or (max(resids) <= 1e-9 and lin.is_cptp()):
        return lin
    return Channel.from_choi(_fit_cptp(np.array(preps), _effect_table(n)[1], np.array(counts), lin.to_choi()))


# -- measurement tomography ----------------------------------------------------------

def qmt_dataset(model: GateSetModel, shots: int, seed):
    """Apply the native measurement to every preparation fiducial, sampled
    as one dense ensemble; returns {preparation index: counts dict}."""
    circuits = [Circuit(model.n, prep) for prep in prep_fiducial_circuits(model.n)]
    records = _sample_ensemble(model, circuits, shots, child_seeds(seed, len(circuits)))
    return {i: rec.counts for i, rec in enumerate(records)}


def qmt(dataset, n: int, method: str = "lstsq"):
    """Reconstruct the POVM effects from known input states.

    ``lstsq`` (or ``linear``) inverts per effect.  ``mle`` maximizes the
    likelihood over POVMs, as the CPTP fit of a channel to the classical
    outcomes: effect o is the transposed o-th diagonal block of its Choi
    matrix, so the effects are PSD and sum to the identity.
    """
    _check_method(method)
    preps = _prep_states(n)
    d = 2**n
    outcomes = sorted({o for c in dataset.values() for o in c})
    if len(dataset) < 4**n:
        raise ValueError("need 4**n preparations for measurement tomography")
    t = np.array([vectorize(rho, NORMALIZED_PAULI).coeffs.real for rho in preps])
    counts = np.array([[dataset[i].get(o, 0) for o in outcomes] for i in range(len(preps))], dtype=float)
    sol, *_ = np.linalg.lstsq(t, counts / counts.sum(axis=1, keepdims=True), rcond=None)
    effects = {}
    for o, col in zip(outcomes, sol.T):
        e = unvectorize(Superket(d, col, NORMALIZED_PAULI))
        effects[o] = (e + e.conj().T) / 2
    if method != "mle":
        return effects
    k = len(outcomes)
    j0 = np.zeros((d, k, d, k), dtype=complex)
    for i, o in enumerate(outcomes):
        j0[:, i, :, i] = effects[o].T
    classical = np.eye(k)[:, :, None] * np.eye(k)[:, None, :]  # |o><o| for each outcome
    j = _fit_cptp(np.array(preps), classical, counts, j0.reshape(d * k, d * k))
    j = j.reshape(d, k, d, k)
    return {o: j[:, i, :, i].T for i, o in enumerate(outcomes)}


def response_matrix(dataset, n: int) -> np.ndarray:
    """Confusion matrix R[i, j] = p(read i | prepared computational j)."""
    d = 2**n
    r = np.zeros((d, d))
    comp_indices = _computational_prep_indices(n)
    for j, prep_idx in enumerate(comp_indices):
        counts = dataset[prep_idx]
        total = sum(counts.values())
        for bits, c in counts.items():
            r[int(bits, 2), j] = c / total
    return r


def _computational_prep_indices(n):
    # prep fiducial list is the product of (|0>, |1>, |+>, |i+>) per qubit;
    # computational states use only the first two per qubit
    idxs = []
    for b in range(2**n):
        idx = 0
        for q in range(n):
            idx = idx * 4 + ((b >> (n - 1 - q)) & 1)
        idxs.append(idx)
    return idxs


def truth_table(model: GateSetModel, gate_circuit: Circuit, shots: int, seed):
    """Stochastic matrix over computational states plus the truth-table fidelity.

    Returns (S_exp, F_tt) with S[y, x] = p(y | prepared x); the fidelity is
    Tr(S_exp^T S_ideal) / 2**n against the ideal stochastic matrix, read
    off the prepared circuits' statevectors.  The 2**n prepared circuits
    are sampled as one dense ensemble.
    """
    n = model.n
    d = 2**n
    circuits = [
        Circuit(n, (tuple(("X", (q,)) for q in range(n) if (x >> (n - 1 - q)) & 1),)).then(gate_circuit)
        for x in range(d)
    ]
    s_exp = np.zeros((d, d))
    for x, rec in enumerate(_sample_ensemble(model, circuits, shots, child_seeds(seed, d))):
        for bits, c in rec.counts.items():
            s_exp[int(bits, 2), x] = c / shots
    s_ideal = np.zeros((d, d))
    for x, amps in enumerate(_statevectors(model, circuits)):
        s_ideal[:, x] = np.abs(amps) ** 2
    f_tt = float(np.trace(s_exp.T @ s_ideal) / d)
    return s_exp, f_tt


# -- linear gate set tomography --------------------------------------------------------

@dataclass
class LinearGSTResult:
    gates: dict  # label -> PTM estimate (B = identity frame)
    rho: np.ndarray  # superket coefficients (normalized Pauli)
    effects: dict  # outcome -> superbra coefficients
    gram: np.ndarray
    gram_condition: float


def run_lgst(model: GateSetModel, gate_labels, shots=None, seed=0, exact=True) -> LinearGSTResult:
    """Linear-inversion gate set tomography in the B = identity gauge frame.

    With ``exact`` the dense backend's probabilities are used directly;
    otherwise multinomial counts with ``shots`` per circuit.  Fiducials are
    the default informationally complete sets.  In the returned frame the
    native preparation is ``1mm^+ gram[:, 0]``, effects are the Gram rows,
    and predicted circuit probabilities exactly reproduce the (noiseless)
    data regardless of SPAM error.

    The dataset's circuits are built first and evolve as dense stacks
    (:func:`qcvv.device._ensemble_states`); with shots, each circuit draws
    its counts from its own seed, in the order of one circuit at a time.
    """
    n = model.n
    preps = prep_fiducial_circuits(n)
    meas = meas_setting_circuits(n)
    effect_keys = _effect_table(n)[0]
    # the dataset, in this order: each prep fiducial alone (the Gram
    # matrix), then followed by each gate, each measured in every setting
    prefixes = [tuple(p) for p in preps]
    for label in gate_labels:
        prefixes += [tuple(p) + (((label, tuple(range(n))),),) for p in preps]
    circuits = [Circuit(n, prefix + tuple(rot)) for prefix in prefixes for _, rot in meas]
    if exact:
        data = [None] * len(circuits)
        for i, state in _ensemble_states(model, circuits):
            data[i] = circuit_probabilities(model, circuits[i], superket=state).as_dict()
    else:
        seeds = child_seeds(seed, (len(gate_labels) + 2) * len(preps) * len(meas) + 16)
        records = _sample_ensemble(model, circuits, shots, seeds[: len(circuits)])
        data = [{k: v / shots for k, v in rec.counts.items()} for rec in records]
    # per prefix, its probabilities stacked over every (setting, outcome) effect
    settings = [setting for setting, _ in meas]
    columns = []
    for start in range(0, len(data), len(meas)):
        by_setting = dict(zip(settings, data[start : start + len(meas)]))
        columns.append(np.array([by_setting[setting].get(bits, 0.0) for setting, bits in effect_keys]))

    # Gram matrix: all effects x all preps with nothing in between
    gram = np.column_stack(columns[: len(preps)])
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[4**n - 1] < 1e-10:
        raise ValueError("Gram matrix is singular; fiducials not informationally complete")
    cond = float(sv[0] / sv[4**n - 1])
    gram_pinv = np.linalg.pinv(gram, rcond=1e-10)

    gates = {}
    for g, label in enumerate(gate_labels, start=1):
        gates[label] = gram_pinv @ np.column_stack(columns[g * len(preps) : (g + 1) * len(preps)])
    rho_vec = gram_pinv @ gram[:, 0]  # prep fiducial 0 is the empty circuit
    effects = {}
    for row_idx, key in enumerate(effect_keys):
        effects[key] = gram[row_idx].copy()
    return LinearGSTResult(gates, rho_vec, effects, gram, cond)


def lgst_predict(result: LinearGSTResult, prep_index: int, gate_sequence, setting: str, bits: str) -> float:
    """Probability the recovered gate set assigns to one LGST-frame circuit."""
    vec = np.zeros(result.rho.size)
    vec[prep_index] = 1.0
    for label in gate_sequence:
        vec = result.gates[label] @ vec
    return float(result.effects[(setting, bits)] @ vec)


# -- gauge optimization ------------------------------------------------------------

def ideal_effect_superbras(n: int):
    """{(setting, outcome bits): normalized-Pauli superbra} of the ideal
    effects, as writable copies of :func:`_effect_table`'s rows."""
    keys, _, bras = _effect_table(n)
    return dict(zip(keys, bras.copy()))


def gauge_optimize(result: LinearGSTResult, targets: dict, n: int):
    """Gauge-fix an LGST frame onto target PTMs by weighted Frobenius distance.

    Optimizes over invertible M = expm(K) (K real, unconstrained) the cost

        sum_k ||M G_k M^-1 - Gbar_k||_F^2
        + w ( ||M rho - rho_bar||^2 + sum_e ||E_e M^-1 - Ebar_e||^2 ),

    with uniform weight over gates and w = 100 on every SPAM surface, by
    L-BFGS-B in at most 800 iterations.  This w weights the preparation and
    effects strongly: they are pinned very precisely by LGST data, and
    down-weighting them lets the optimizer smear single-gate coherent
    errors across the gate set (misattributing error generators).  Readout
    confusion cannot be mimicked by a similarity transform, so SPAM-only
    error still stays out of the gates at this weight.  Returns (gauge
    matrix M, transformed-gate dict, final cost); probabilities are
    unchanged by construction.
    """
    import scipy.linalg
    import scipy.optimize

    d2 = 4**n
    labels = sorted(result.gates)
    gbars = [np.asarray(targets[lbl], dtype=float) for lbl in labels]
    gs = [result.gates[lbl] for lbl in labels]
    rho_bar = vectorize(_zero_state(n), NORMALIZED_PAULI).coeffs.real
    ideal_effects = ideal_effect_superbras(n)
    eff_keys = sorted(result.effects)
    es = [result.effects[k] for k in eff_keys]
    ebars = [ideal_effects[k] for k in eff_keys]

    # The LGST frame's basis vectors are the fiducial preparations, so the
    # gauge that maps it onto the target frame is, to zeroth order, the
    # matrix of ideal fiducial superkets.  Optimize a correction around it.
    m0 = np.column_stack([vectorize(s, NORMALIZED_PAULI).coeffs.real for s in _prep_states(n)])

    def build(kvec):
        return scipy.linalg.expm(kvec.reshape(d2, d2)) @ m0

    def cost(kvec):
        m = build(kvec)
        minv = np.linalg.inv(m)
        c = 0.0
        for g, gbar in zip(gs, gbars):
            c += np.sum((m @ g @ minv - gbar) ** 2)
        c += 100.0 * np.sum((m @ result.rho - rho_bar) ** 2)
        for e, ebar in zip(es, ebars):
            c += 100.0 * np.sum((e @ minv - ebar) ** 2)
        return c

    res = scipy.optimize.minimize(cost, np.zeros(d2 * d2), method="L-BFGS-B", options={"maxiter": 800})
    m = build(res.x)
    minv = np.linalg.inv(m)
    fixed = {lbl: m @ result.gates[lbl] @ minv for lbl in labels}
    return m, fixed, float(res.fun)


def _zero_state(n):
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def lgst_nongauge_params(result: LinearGSTResult) -> int:
    """Non-gauge parameter count: total parameters minus the numerical rank
    of the gauge action's Jacobian at the estimate."""
    d2 = result.rho.size
    labels = sorted(result.gates)
    eff_keys = sorted(result.effects)
    n_params = len(labels) * d2 * d2 + d2 + len(eff_keys) * d2
    directions = []
    for a in range(d2):
        for b in range(d2):
            k = np.zeros((d2, d2))
            k[a, b] = 1.0
            pieces = []
            for lbl in labels:
                g = result.gates[lbl]
                pieces.append((k @ g - g @ k).ravel())
            pieces.append(k @ result.rho)
            for key in eff_keys:
                pieces.append(-result.effects[key] @ k)
            directions.append(np.concatenate(pieces))
    rank = int(np.linalg.matrix_rank(np.array(directions), tol=1e-8))
    return n_params - rank


# -- model violation ----------------------------------------------------------------

def model_violation(predictions, observations, k: int = None) -> float:
    """Wilks-style N_sigma from predicted probabilities and observed counts.

    ``predictions`` and ``observations`` are parallel lists of dicts mapping
    outcome labels to probabilities and counts.  ``k`` is the chi-square
    degree-of-freedom count (defaults to the saturated-model parameter count
    N_max = sum(outcomes - 1), appropriate when the prediction was not fit
    to this data; subtract fitted non-gauge parameters otherwise).

    Zero counts contribute nothing (0 log 0 = 0).
    """
    log_l = 0.0
    log_l_max = 0.0
    n_max = 0
    for probs, counts in zip(predictions, observations):
        total = sum(counts.values())
        outcomes = set(probs) | set(counts)
        n_max += len(outcomes) - 1
        for o in outcomes:
            c = counts.get(o, 0)
            if c == 0:
                continue  # 0 log 0 = 0
            p = probs.get(o, 0.0)
            if p <= 0:
                p = 1e-12
            log_l += c * np.log(p)
            log_l_max += c * np.log(c / total)
    if k is None:
        k = n_max
    if k <= 0:
        raise ValueError("degrees of freedom must be positive")
    return float((2 * (log_l_max - log_l) - k) / (2 * np.sqrt(k)))
