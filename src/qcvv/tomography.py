"""State, process, measurement, and linear gate-set tomography.

Estimators: ``linear`` (pseudo-)inversion, ``lstsq`` (same normal equations,
kept as an explicit alias), and ``mle`` (Cholesky-parameterized likelihood
maximization with analytic gradients and a small multi-start).  Probabilities
and operators live in the normalized-Pauli superket convention throughout,
so design matrices are real.

The default fiducials follow the minimal informationally complete choice:
preparations {|0>, |1>, |+>, |i+>} per qubit and the 3**n Pauli measurement
settings.  Their 6**n effect matrices and normalized-Pauli superbras are
built once per width (:func:`_effect_table`) and shared, read-only, by QST,
QPT, LGST and gauge optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.optimize

from .channels import Channel, transfer_to_choi
from .cliffords import GATE_UNITARIES, readout_layer
from .device import Circuit, GateSetModel, circuit_probabilities, sample_counts, statevector_run
from .linalg import (
    NORMALIZED_PAULI,
    Superket,
    child_seeds,
    kron_all,
    pauli_matrices,
    pauli_vec_basis,
    rng,
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


def gram_rank(effects, tol: float = 1e-8) -> int:
    """Rank of the stacked effect superbras (Fisher-information surrogate)."""
    rows = [vectorize(e, NORMALIZED_PAULI).coeffs.real for e in effects]
    return int(np.linalg.matrix_rank(np.array(rows), tol=tol))


# -- quantum state tomography -----------------------------------------------------

def qst_dataset(model: GateSetModel, state_circuit: Circuit, shots: int, seed):
    """Measure a prepared state in all Pauli settings; returns
    {setting: counts dict}."""
    n = model.n
    out = {}
    seeds = child_seeds(seed, 3**n)
    for (setting, rot), s in zip(meas_setting_circuits(n), seeds):
        circ = state_circuit.then(Circuit(n, rot))
        rec = sample_counts(model, circ, shots, s)
        out[setting] = rec.counts
    return out


def _effects_and_freqs(dataset, n):
    """The effect matrices and superbras of the settings in ``dataset``, in
    :func:`_effect_table` order, with each effect's frequency and count."""
    keys, mats, bras = _effect_table(n)
    rows, freqs, counts = [], [], []
    for r, (setting, bits) in enumerate(keys):
        if setting not in dataset:
            continue
        c = dataset[setting]
        total = sum(c.values())
        rows.append(r)
        counts.append(c.get(bits, 0))
        freqs.append(c.get(bits, 0) / total)
    return mats[rows], bras[rows], np.array(freqs, dtype=float), np.array(counts, dtype=float)


def qst(dataset, n: int, method: str = "mle", effects=None, freqs=None, counts=None, seed=0):
    """Reconstruct a density matrix from Pauli-setting counts.

    ``dataset`` maps setting labels to counts dicts (see :func:`qst_dataset`);
    alternatively pass explicit ``effects``/``freqs`` (+ optional counts).
    ``linear`` returns the pseudo-inverse solution (exact inverse when the
    design is square); ``mle`` maximizes the likelihood over rho = LL+/Tr.
    """
    if effects is None:
        effects, t, freqs, counts = _effects_and_freqs(dataset, n)
    else:
        t = np.array([vectorize(e, NORMALIZED_PAULI).coeffs.real for e in effects])
    rank = np.linalg.matrix_rank(t, tol=1e-8)
    if rank < 4**n:
        raise ValueError(f"effect set is rank deficient ({rank} < {4**n}); not informationally complete")
    sol, *_ = np.linalg.lstsq(t, freqs, rcond=None)
    rho_lin = unvectorize(Superket(2**n, sol, NORMALIZED_PAULI))
    rho_lin = (rho_lin + rho_lin.conj().T) / 2
    if method in ("linear", "lstsq"):
        return rho_lin
    if method != "mle":
        raise ValueError(f"unknown method {method!r}")
    if counts is None:
        counts = freqs * 1000
    evals = np.linalg.eigvalsh(rho_lin)
    if evals.min() >= -1e-10:
        # the physical linear estimate is already the MLE
        return rho_lin / np.trace(rho_lin).real
    return _mle_state(effects, counts, rho_lin, seed)


@lru_cache(maxsize=None)
def _chol_layout(d: int):
    """Where the d**2 real parameters of a lower-triangular d x d factor L
    sit: row by row, L[i, i], then the real and imaginary parts of L[i, j]
    for j < i.  Returns the positions of the diagonal, of the real parts and
    of the imaginary parts, and the rows and columns of the strictly lower
    entries, as read-only index arrays."""
    diag, re, rows, cols = [], [], [], []
    for i in range(d):
        diag.append(i * i)
        for j in range(i):
            re.append(i * i + 1 + 2 * j)
            rows.append(i)
            cols.append(j)
    out = tuple(np.array(a, dtype=np.intp) for a in (diag, re, np.add(re, 1), rows, cols))
    for a in out:
        a.flags.writeable = False
    return out


def _chol_params_to_l(params, d):
    diag, re, im, rows, cols = _chol_layout(d)
    l = np.zeros((d, d), dtype=complex)
    l[np.arange(d), np.arange(d)] = params[diag]
    l[rows, cols] = params[re] + 1j * params[im]
    return l


def _l_to_params(l, d):
    diag, re, im, rows, cols = _chol_layout(d)
    out = np.zeros(d * d)
    out[diag] = l.diagonal().real
    out[re] = l[rows, cols].real
    out[im] = l[rows, cols].imag
    return out


def _mle_state(effects, counts, rho0, seed, max_iter=500, grad_tol=1e-8):
    d = effects[0].shape[0]
    es = np.array(effects)
    ns = np.asarray(counts, dtype=float)

    def unpack(params):
        l = _chol_params_to_l(params, d)
        s = l @ l.conj().T
        tau = np.trace(s).real
        return l, s / tau, tau

    def neg_loglike_and_grad(params):
        l, rho, tau = unpack(params)
        ps = np.clip(np.einsum("kij,ji->k", es, rho).real, 1e-12, None)
        ll = float(np.sum(ns * np.log(ps)))
        aa = np.einsum("k,kij->ij", ns / ps, es)
        b = (aa - np.trace(aa @ rho).real * np.eye(d)) / tau
        grad_l = 2 * (b @ l)  # Wirtinger gradient wrt conj(L), mapped to re/im
        grad = _l_to_params(grad_l, d)
        return -ll, -grad

    # multi-start to hedge the non-convexity of the Cholesky parameterization
    evals, evecs = np.linalg.eigh((rho0 + rho0.conj().T) / 2)
    evals = np.clip(evals, 1e-6, None)
    best = None
    starts = [(evecs * np.sqrt(evals)) @ evecs.conj().T]
    gen = rng(seed + 1)
    for _ in range(2):
        z = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        starts.append(starts[0] + 0.05 * z)
    for start in starts:
        l0 = np.linalg.cholesky(start @ start.conj().T + 1e-9 * np.eye(d))
        res = scipy.optimize.minimize(
            neg_loglike_and_grad,
            _l_to_params(l0, d),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter, "gtol": grad_tol},
        )
        if best is None or res.fun < best.fun:
            best = res
    if not best.success and np.linalg.norm(best.jac) > 1e-4:
        raise RuntimeError(
            f"MLE did not converge; final gradient norm {np.linalg.norm(best.jac):.2e}"
        )
    _, rho, _ = unpack(best.x)
    return rho


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

    ``linear`` solves the real least-squares system over PTM entries; ``mle``
    refines it over a CP parameterization (chi = M M^dag) with trace
    preservation enforced by projection after the optimization.  That
    projection pins the PTM's first row, so the ``mle`` estimate can be
    slightly non-CP (Choi eigenvalues of order -1e-3 at 1,000 shots).
    """
    if n > 3:
        raise ValueError("process tomography supported up to 3 qubits")
    if n == 3:
        import warnings

        warnings.warn("3-qubit process tomography: 1728+ settings; expect a slow fit")
    preps = _prep_states(n)
    if set(dataset) != set(range(len(preps))):
        raise ValueError("dataset must cover every preparation fiducial")
    rows, ys, ns, owner, vins = [], [], [], [], []
    for i, rho_in in enumerate(preps):
        vin = vectorize(rho_in, NORMALIZED_PAULI).coeffs.real
        _, vouts, freqs, counts = _effects_and_freqs(dataset[i], n)
        # p = <<E| L |rho>> = (vin kron vout) . vec(L), one row per effect
        rows.append((vin[None, :, None] * vouts[:, None, :]).reshape(len(vouts), -1))
        ys.extend(freqs)
        ns.extend(counts)
        owner.extend([i] * len(vouts))
        vins.append(vin)
    a = np.concatenate(rows)
    if np.linalg.matrix_rank(a, tol=1e-8) < 16**n:
        raise ValueError("design not informationally complete for a process")
    sol, *_ = np.linalg.lstsq(a, np.array(ys), rcond=None)
    d2 = 4**n
    # rows are kron(vin, vout), so sol[j * d2 + i] = PTM[i, j]
    ptm = sol.reshape(d2, d2).T
    lin = Channel(ptm)
    if method in ("linear", "lstsq"):
        return lin
    if method != "mle":
        raise ValueError(f"unknown method {method!r}")
    if lin.is_cptp(cp_tol=1e-9):
        return lin
    return _mle_process(a, np.array(ns), np.array(owner), np.array(vins), lin)


def _chi_ptm(x: np.ndarray, d: int) -> np.ndarray:
    """The linear map chi -> PTM, ``d V^dag R(V x V^dag) V`` with V the
    normalized-Pauli basis and R the Choi/transfer reshuffle; the map is its
    own Hilbert-Schmidt adjoint, so it also pulls PTM gradients back to chi."""
    v = pauli_vec_basis(d)
    return d * (v.conj().T @ transfer_to_choi(v @ x @ v.conj().T) @ v)


def _process_nll(params, a, counts, owner, vins):
    """Objective of the process MLE and its gradient in ``params``.

    ``params`` holds the real and imaginary parts of M with chi = M M^dag.
    The objective is the negative log-likelihood of each preparation's
    counts, normalized by that preparation's output trace, plus a 1e4
    penalty on the PTM's first row leaving (1, 0, ..., 0).  ``a`` is the
    design matrix (p = a . vec(PTM), column stacking), ``owner[r]`` the
    preparation of row r and ``vins[i]`` preparation i's Pauli vector.
    """
    d2 = vins.shape[1]
    d = int(round(np.sqrt(d2)))
    half = d2 * d2
    m = params[:half].reshape(d2, d2) + 1j * params[half:].reshape(d2, d2)
    ptm = _chi_ptm(m @ m.conj().T, d).real
    p = a @ ptm.ravel(order="F")
    norm = np.sqrt(d) * (vins @ ptm[0])  # Tr of each preparation's output
    pc, nc = np.clip(p, 1e-12, None), np.clip(norm, 1e-9, None)
    row = ptm[0] - np.eye(1, d2).ravel()
    value = -float(np.sum(counts * np.log(pc / nc[owner]))) + 1e4 * float(row @ row)
    dp = np.where(p > 1e-12, -counts / pc, 0.0)
    dnorm = np.where(norm > 1e-9, np.bincount(owner, counts, len(vins)) / nc, 0.0)
    g = (a.T @ dp).reshape(d2, d2, order="F")
    g[0] += np.sqrt(d) * (dnorm @ vins) + 2e4 * row
    g_chi = _chi_ptm(g, d)
    grad = (g_chi + g_chi.conj().T) @ m
    return value, np.concatenate([grad.real.ravel(), grad.imag.ravel()])


def _mle_process(a, counts, owner, vins, lin: Channel) -> Channel:
    """CP-constrained MLE over chi = M M^dag with TP projection."""
    chi0 = lin.to_chi()
    evals, evecs = np.linalg.eigh((chi0 + chi0.conj().T) / 2)
    evals = np.clip(evals, 1e-8, None)
    m0 = (evecs * np.sqrt(evals)) @ evecs.conj().T
    x0 = np.concatenate([m0.real.ravel(), m0.imag.ravel()])
    res = scipy.optimize.minimize(
        _process_nll,
        x0,
        args=(a, counts, owner, vins),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 1000, "ftol": 1e-12, "gtol": 1e-8},
    )
    if not res.success:
        raise RuntimeError(f"process MLE did not converge: {res.message}")
    d2 = vins.shape[1]
    m = res.x[: d2 * d2].reshape(d2, d2) + 1j * res.x[d2 * d2 :].reshape(d2, d2)
    # exact TP projection: pin the PTM's first row
    ptm = _chi_ptm(m @ m.conj().T, int(round(np.sqrt(d2)))).real
    ptm[0] = 0.0
    ptm[0, 0] = 1.0
    return Channel(ptm)


# -- measurement tomography ----------------------------------------------------------

def qmt_dataset(model: GateSetModel, shots: int, seed):
    """Apply the native measurement to every preparation fiducial."""
    n = model.n
    out = {}
    preps = prep_fiducial_circuits(n)
    seeds = child_seeds(seed, len(preps))
    for i, (prep, s) in enumerate(zip(preps, seeds)):
        rec = sample_counts(model, Circuit(n, prep), shots, s)
        out[i] = rec.counts
    return out


def qmt(dataset, n: int, method: str = "lstsq"):
    """Reconstruct the POVM effects from known input states.

    ``lstsq`` inverts per effect; the constrained variant (default for
    ``method="mle"``) parameterizes E_i = S^-1/2 M_i M_i^dag S^-1/2 with
    S the sum, guaranteeing PSD effects resolving the identity.
    """
    preps = _prep_states(n)
    d = 2**n
    outcomes = sorted({o for c in dataset.values() for o in c})
    if len(dataset) < 4**n:
        raise ValueError("need 4**n preparations for measurement tomography")
    t = np.array([vectorize(rho, NORMALIZED_PAULI).coeffs.real for rho in preps])
    effects = {}
    for o in outcomes:
        y = np.array([dataset[i].get(o, 0) / sum(dataset[i].values()) for i in range(len(preps))])
        sol, *_ = np.linalg.lstsq(t, y, rcond=None)
        e = unvectorize(Superket(d, sol, NORMALIZED_PAULI))
        effects[o] = (e + e.conj().T) / 2
    if method == "lstsq":
        return effects
    return _qmt_constrained(dataset, preps, effects, n)


def _qmt_constrained(dataset, preps, effects0, n):
    d = 2**n
    outcomes = sorted(effects0)
    k = len(outcomes)

    def unpack(params):
        ms = []
        step = 2 * d * d
        for i in range(k):
            chunk = params[i * step : (i + 1) * step]
            m = chunk[: d * d].reshape(d, d) + 1j * chunk[d * d :].reshape(d, d)
            ms.append(m @ m.conj().T)
        s = sum(ms)
        evals, evecs = np.linalg.eigh(s)
        inv_sqrt = (evecs * (1 / np.sqrt(np.clip(evals, 1e-12, None)))) @ evecs.conj().T
        return [inv_sqrt @ m @ inv_sqrt for m in ms]

    counts = []
    for i in range(len(preps)):
        counts.append([dataset[i].get(o, 0) for o in outcomes])
    counts = np.array(counts, dtype=float)

    def objective(params):
        es = unpack(params)
        ll = 0.0
        for i, rho in enumerate(preps):
            ps = np.clip([np.trace(e @ rho).real for e in es], 1e-12, None)
            ll += float(np.dot(counts[i], np.log(ps)))
        return -ll

    x0 = []
    for o in outcomes:
        e = effects0[o]
        evals, evecs = np.linalg.eigh((e + e.conj().T) / 2)
        m = (evecs * np.sqrt(np.clip(evals, 1e-6, None))) @ evecs.conj().T
        x0.extend([m.real.ravel(), m.imag.ravel()])
    res = scipy.optimize.minimize(objective, np.concatenate(x0), method="L-BFGS-B", options={"maxiter": 200})
    es = unpack(res.x)
    return dict(zip(outcomes, es))


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


def truth_table(model: GateSetModel, gate_circuit: Circuit, shots: int, seed, ideal_unitary=None):
    """Stochastic matrix over computational states plus the truth-table fidelity.

    Returns (S_exp, F_tt) with S[y, x] = p(y | prepared x); the fidelity is
    Tr(S_exp^T S_ideal) / 2**n against the ideal unitary's stochastic matrix.
    """
    n = model.n
    d = 2**n
    s_exp = np.zeros((d, d))
    seeds = child_seeds(seed, d)
    for x in range(d):
        prep_layer = tuple(("X", (q,)) for q in range(n) if (x >> (n - 1 - q)) & 1)
        circ = Circuit(n, (prep_layer,)).then(gate_circuit)
        rec = sample_counts(model, circ, shots, seeds[x])
        for bits, c in rec.counts.items():
            s_exp[int(bits, 2), x] = c / shots
    if ideal_unitary is None:
        s_ideal = np.zeros((d, d))
        for x in range(d):
            prep_layer = tuple(("X", (q,)) for q in range(n) if (x >> (n - 1 - q)) & 1)
            amps = statevector_run(Circuit(n, (prep_layer,)).then(gate_circuit), model)
            s_ideal[:, x] = np.abs(amps) ** 2
    else:
        u = np.asarray(ideal_unitary)
        s_ideal = np.abs(u) ** 2
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
    """
    n = model.n
    preps = prep_fiducial_circuits(n)
    meas = meas_setting_circuits(n)
    seeds = iter(child_seeds(seed, (len(gate_labels) + 2) * len(preps) * len(meas) + 16))

    def measure(circ_layers):
        circ = Circuit(n, circ_layers)
        if exact:
            return circuit_probabilities(model, circ).as_dict()
        rec = sample_counts(model, circ, shots, next(seeds))
        return {k: v / shots for k, v in rec.counts.items()}

    effect_keys = _effect_table(n)[0]

    def freq_vector(prefix_layers):
        """Stacked probabilities over every (setting, outcome) effect."""
        vec = []
        by_setting = {}
        for setting, rot in meas:
            by_setting[setting] = measure(tuple(prefix_layers) + tuple(rot))
        for setting, bits in effect_keys:
            vec.append(by_setting[setting].get(bits, 0.0))
        return np.array(vec)

    # Gram matrix: all effects x all preps with nothing in between
    gram = np.column_stack([freq_vector(p) for p in preps])
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[4**n - 1] < 1e-10:
        raise ValueError("Gram matrix is singular; fiducials not informationally complete")
    cond = float(sv[0] / sv[4**n - 1])
    gram_pinv = np.linalg.pinv(gram, rcond=1e-10)

    gates = {}
    for label in gate_labels:
        gate_layer = (((label, tuple(range(n))),),)
        pk = np.column_stack([freq_vector(tuple(p) + gate_layer) for p in preps])
        gates[label] = gram_pinv @ pk
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


def gauge_optimize(result: LinearGSTResult, targets: dict, n: int, spam_weight: float = 100.0, maxiter: int = 800):
    """Gauge-fix an LGST frame onto target PTMs by weighted Frobenius distance.

    Optimizes over invertible M = expm(K) (K real, unconstrained) the cost

        sum_k ||M G_k M^-1 - Gbar_k||_F^2
        + w ( ||M rho - rho_bar||^2 + sum_e ||E_e M^-1 - Ebar_e||^2 ),

    with uniform weight over gates and ``spam_weight`` w on every SPAM
    surface.  The default w = 100 weights the preparation and effects
    strongly: they are pinned very precisely by LGST data, and down-weighting
    them lets the optimizer smear single-gate coherent errors across the
    gate set (misattributing error generators).  Readout confusion cannot be
    mimicked by a similarity transform, so SPAM-only error still stays out
    of the gates at this weight.  Configurable.  Returns
    (gauge matrix M, transformed-gate dict, final cost); probabilities are
    unchanged by construction.
    """
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
        c += spam_weight * np.sum((m @ result.rho - rho_bar) ** 2)
        for e, ebar in zip(es, ebars):
            c += spam_weight * np.sum((e @ minv - ebar) ** 2)
        return c

    res = scipy.optimize.minimize(cost, np.zeros(d2 * d2), method="L-BFGS-B", options={"maxiter": maxiter})
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

def model_violation(predictions, observations, k: int = None, pseudocount: float = 0.0) -> float:
    """Wilks-style N_sigma from predicted probabilities and observed counts.

    ``predictions`` and ``observations`` are parallel lists of dicts mapping
    outcome labels to probabilities and counts.  ``k`` is the chi-square
    degree-of-freedom count (defaults to the saturated-model parameter count
    N_max = sum(outcomes - 1), appropriate when the prediction was not fit
    to this data; subtract fitted non-gauge parameters otherwise).

    Zero counts contribute nothing (0 log 0 = 0).  ``pseudocount`` (off by
    default; 0.5 is the conventional choice) is added to the observed
    frequencies *inside the log terms only*, regularizing the saturated
    model when empty outcome cells are expected.
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
            if c == 0 and pseudocount == 0.0:
                continue  # 0 log 0 = 0
            p = probs.get(o, 0.0)
            if p <= 0:
                p = 1e-12
            c_log = c + pseudocount
            log_l += c * np.log(p)
            log_l_max += c * np.log(c_log / (total + pseudocount * len(outcomes)))
    if k is None:
        k = n_max
    if k <= 0:
        raise ValueError("degrees of freedom must be positive")
    return float((2 * (log_l_max - log_l) - k) / (2 * np.sqrt(k)))
