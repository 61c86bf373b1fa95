"""Synthetic time-domain signal generators and fitters, plus robust phase
estimation.

Generators produce excited-state populations with optional per-point
binomial shot noise; there is no hardware I/O.  Fitters use separable
least squares with the oscillation frequency initialized from the discrete
Fourier peak (grid fallback when the peak is degenerate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import child_seeds, rng


@dataclass
class SignalFit:
    params: dict
    stderrs: dict
    residual_rms: float


def _shot_noise(probs, shots, gen):
    if shots is None:
        return probs
    return gen.binomial(shots, np.clip(probs, 0, 1)) / shots


# -- generators -------------------------------------------------------------------

def synth_rabi(times, rabi_freq, detuning=0.0, t2=None, shots=None, seed=None):
    """Driven two-level population: P1(t) = (W/W')^2 sin^2(W' t / 2) with the
    effective frequency W' = sqrt(detuning^2 + W^2), optionally decaying."""
    times = np.asarray(times, dtype=float)
    w_eff = np.sqrt(detuning**2 + rabi_freq**2)
    contrast = (rabi_freq / w_eff) ** 2 if w_eff > 0 else 0.0
    p1 = contrast * np.sin(w_eff * times / 2) ** 2
    if t2 is not None:
        p1 = contrast / 2 + (p1 - contrast / 2) * np.exp(-times / t2)
    return _shot_noise(p1, shots, rng(seed) if shots else None)


def synth_rabi_chevron(times, detunings, rabi_freq, shots=None, seed=None):
    """Rabi oscillations across a detuning grid; rows are detunings."""
    gen = rng(seed) if shots else None
    rows = []
    for d in detunings:
        p1 = synth_rabi(times, rabi_freq, detuning=d)
        rows.append(_shot_noise(p1, shots, gen))
    return np.array(rows)


def synth_ramsey(times, detuning, t2, shots=None, seed=None):
    """Ramsey fringe P1(t) = 1/2 + exp(-t/T2) cos(detuning t) / 2."""
    times = np.asarray(times, dtype=float)
    p1 = 0.5 + 0.5 * np.exp(-times / t2) * np.cos(detuning * times)
    return _shot_noise(p1, shots, rng(seed) if shots else None)


def synth_t1(times, t1, shots=None, seed=None):
    times = np.asarray(times, dtype=float)
    p1 = np.exp(-times / t1)
    return _shot_noise(p1, shots, rng(seed) if shots else None)


def synth_echo(times, t2e, shots=None, seed=None):
    """Hahn-echo envelope: P1 = 1/2 + exp(-t/T2E)/2 after refocusing."""
    times = np.asarray(times, dtype=float)
    p1 = 0.5 + 0.5 * np.exp(-times / t2e)
    return _shot_noise(p1, shots, rng(seed) if shots else None)


def bloch_redfield_populations(times, t1, t2, alpha=1 / np.sqrt(2)):
    """Joint T1/T2 evolution of a superposition with amplitude ``alpha`` on
    |0>: returns (P1(t), coherence magnitude), which in the rotating frame
    do not depend on the detuning.  Enforces T2 <= 2 T1."""
    if t2 > 2 * t1 + 1e-12:
        raise ValueError("T2 cannot exceed 2 T1")
    times = np.asarray(times, dtype=float)
    beta2 = 1 - alpha**2
    p1 = beta2 * np.exp(-times / t1)
    coh = abs(alpha) * np.sqrt(beta2) * np.exp(-times / t2)
    return p1, coh


def synth(kind: str, params: dict, times, shots=None, seed=None):
    """Dispatch generator: kind in {rabi, chevron, ramsey, t1, echo}."""
    if kind == "rabi":
        return synth_rabi(times, shots=shots, seed=seed, **params)
    if kind == "chevron":
        return synth_rabi_chevron(times, shots=shots, seed=seed, **params)
    if kind == "ramsey":
        return synth_ramsey(times, shots=shots, seed=seed, **params)
    if kind == "t1":
        return synth_t1(times, shots=shots, seed=seed, **params)
    if kind == "echo":
        return synth_echo(times, shots=shots, seed=seed, **params)
    raise ValueError(f"unknown signal kind {kind!r}")


# -- fitters ----------------------------------------------------------------------

def _check_times(times):
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return times


def _dft_peak_frequency(times, signal):
    """Angular frequency of the strongest nonzero DFT component (uniform
    resampling first when the grid is non-uniform)."""
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    uniform = np.linspace(times[0], times[-1], max(len(times), 64))
    resampled = np.interp(uniform, times, signal)
    spec = np.fft.rfft(resampled - resampled.mean())
    freqs = np.fft.rfftfreq(len(uniform), d=uniform[1] - uniform[0])
    k = int(np.argmax(np.abs(spec[1:]))) + 1
    if abs(spec[k]) < 1e-12:  # flat signal: fall back to a coarse grid scan
        return 2 * np.pi / (times[-1] - times[0])
    return 2 * np.pi * freqs[k]


def _curve_fit(fun, times, signal, p0, bounds):
    import scipy.optimize

    try:
        popt, pcov = scipy.optimize.curve_fit(
            fun, times, signal, p0=p0, bounds=bounds, maxfev=20000
        )
    except RuntimeError as exc:
        resid = signal - fun(times, *p0)
        raise RuntimeError(f"fit did not converge; residuals at start: {resid}") from exc
    resid = signal - fun(times, *popt)
    return popt, pcov, float(np.sqrt(np.mean(resid**2)))


def _best_fit(fun, times, signal, starts, bounds, name):
    """The least-residual :func:`_curve_fit` of ``fun`` over the initial
    guesses ``starts``, taken in order, the first of equal residuals kept;
    a start that does not converge is skipped, and a RuntimeError naming
    the fit is raised when none converges."""
    best = None
    for p0 in starts:
        try:
            popt, pcov, rms = _curve_fit(fun, times, signal, p0, bounds)
        except RuntimeError:
            continue
        if best is None or rms < best[2]:
            best = (popt, pcov, rms)
    if best is None:
        raise RuntimeError(f"{name} fit failed at every frequency initialization")
    return best


def fit_t1(times, signal) -> SignalFit:
    times = _check_times(times)
    fun = lambda t, a, t1: a * np.exp(-t / t1)
    span = times[-1] - times[0]
    popt, pcov, rms = _curve_fit(fun, times, signal, [signal[0], span / 2], ([0, span * 1e-3], [1.5, span * 100]))
    err = np.sqrt(np.clip(np.diag(pcov), 0, None))
    return SignalFit({"amplitude": popt[0], "t1": popt[1]}, {"amplitude": err[0], "t1": err[1]}, rms)


def fit_echo(times, signal) -> SignalFit:
    times = _check_times(times)
    fun = lambda t, a, t2: 0.5 + a * np.exp(-t / t2)
    span = times[-1] - times[0]
    popt, pcov, rms = _curve_fit(fun, times, signal, [0.5, span / 2], ([0, span * 1e-3], [0.6, span * 100]))
    err = np.sqrt(np.clip(np.diag(pcov), 0, None))
    return SignalFit({"amplitude": popt[0], "t2e": popt[1]}, {"amplitude": err[0], "t2e": err[1]}, rms)


def fit_ramsey(times, signal) -> SignalFit:
    """Decaying-cosine fit with DFT frequency initialization."""
    times = _check_times(times)
    w0 = _dft_peak_frequency(times, signal)
    span = times[-1] - times[0]
    fun = lambda t, a, g, w, phi: 0.5 + a * np.exp(-g * t) * np.cos(w * t + phi)
    starts = [[0.5, 1 / span, w, 0.0] for w in (w0, 0.5 * w0, 2 * w0)]  # grid fallback around the DFT peak
    bounds = ([0, 0, 0, -np.pi], [0.6, 50 / span, 20 * max(w0, 1 / span), np.pi])
    popt, pcov, rms = _best_fit(fun, times, signal, starts, bounds, "Ramsey")
    err = np.sqrt(np.clip(np.diag(pcov), 0, None))
    return SignalFit(
        {"amplitude": popt[0], "gamma2": popt[1], "t2": 1 / popt[1], "frequency": popt[2], "phase": popt[3]},
        {"amplitude": err[0], "gamma2": err[1], "t2": err[1] / popt[1] ** 2, "frequency": err[2], "phase": err[3]},
        rms,
    )


def fit_rabi(times, signal) -> SignalFit:
    """On- or off-resonant Rabi fit: contrast and effective frequency."""
    times = _check_times(times)
    w0 = _dft_peak_frequency(times, signal)
    fun = lambda t, c, w: c * np.sin(w * t / 2) ** 2
    starts = [[max(signal.max(), 0.1), w] for w in (w0, 0.5 * w0, 2 * w0)]
    popt, pcov, rms = _best_fit(fun, times, signal, starts, ([0, 0], [1.2, np.inf]), "Rabi")
    err = np.sqrt(np.clip(np.diag(pcov), 0, None))
    return SignalFit(
        {"contrast": popt[0], "effective_frequency": popt[1]},
        {"contrast": err[0], "effective_frequency": err[1]},
        rms,
    )


def fit_chevron(times, detunings, grid) -> SignalFit:
    """Chevron analysis: per-detuning Rabi fits; the qubit detuning is where
    the oscillation period peaks (equivalently the effective frequency is
    minimal), located by a quadratic fit around the grid minimum."""
    detunings = np.asarray(detunings, dtype=float)
    w_effs = []
    for row in grid:
        w_effs.append(fit_rabi(times, np.asarray(row)).params["effective_frequency"])
    w_effs = np.array(w_effs)
    k = int(np.argmin(w_effs))
    lo, hi = max(k - 2, 0), min(k + 3, len(detunings))
    coeffs = np.polyfit(detunings[lo:hi], w_effs[lo:hi] ** 2, 2)
    vertex = -coeffs[1] / (2 * coeffs[0])
    rabi = np.sqrt(max(np.polyval(coeffs, vertex), 0.0))
    return SignalFit(
        {"detuning": float(vertex), "rabi_frequency": float(rabi)},
        {"detuning": float(np.diff(detunings).mean()), "rabi_frequency": float("nan")},
        0.0,
    )


def fit_ramsey_detuning(artificial_detunings, measured_freqs) -> SignalFit:
    """Absolute-value vertex fit of measured frequency vs artificial detuning.

    The measured oscillation frequency is |delta + Delta|; the vertex of the
    V locates the true detuning delta = -Delta* at the minimum.
    """
    xs = np.asarray(artificial_detunings, dtype=float)
    ys = np.asarray(measured_freqs, dtype=float)
    fun = lambda x, delta: np.abs(delta + x)
    popt, pcov, rms = _curve_fit(fun, xs, ys, [-xs[np.argmin(ys)]], ([-np.inf], [np.inf]))
    return SignalFit({"detuning": popt[0]}, {"detuning": float(np.sqrt(max(pcov[0, 0], 0)))}, rms)


def fit(kind: str, times, signal, **kwargs) -> SignalFit:
    if kind == "t1":
        return fit_t1(times, signal)
    if kind == "echo":
        return fit_echo(times, signal)
    if kind == "ramsey":
        return fit_ramsey(times, signal)
    if kind == "rabi":
        return fit_rabi(times, signal)
    if kind == "chevron":
        return fit_chevron(times, kwargs["detunings"], signal)
    raise ValueError(f"unknown signal kind {kind!r}")


# -- robust phase estimation --------------------------------------------------------

RPE_DELTA_THRESHOLD = np.sqrt(3 / 32)


@dataclass
class RPEResult:
    theta_hat: float
    generations: list  # per-generation estimates
    k_max: int
    total_samples: int

    @property
    def rms_bound(self) -> float:
        return np.pi / (2 * self.k_max)


def rpe_probabilities(theta: float, k: int, delta_c: float = 0.0, delta_s: float = 0.0):
    """The cosine/sine generation probabilities with additive perturbations."""
    pc = (1 + np.cos(k * theta)) / 2 + delta_c
    ps = (1 + np.sin(k * theta)) / 2 + delta_s
    return float(np.clip(pc, 0, 1)), float(np.clip(ps, 0, 1))


def rpe(theta_true: float, k_max: int, shots_per_generation, seed, delta_fn=None) -> RPEResult:
    """Robust phase estimation of a rotation angle from simulated samples.

    ``delta_fn(k, which)`` supplies the additive perturbation for each
    generation's cosine ("c") or sine ("s") probability; guarantees hold
    when all |delta| < sqrt(3/32).  ``shots_per_generation`` is an int
    (equal allocation, the documented default) or a list per generation.
    ``shots_per_generation=None`` uses exact probabilities.
    """
    ks = []
    k = 1
    while k <= k_max:
        ks.append(k)
        k *= 2
    if ks[-1] != k_max:
        raise ValueError("k_max must be a power of 2")
    if isinstance(shots_per_generation, (int, type(None))):
        shots = [shots_per_generation] * len(ks)
    else:
        shots = list(shots_per_generation)
    gen = rng(seed)
    theta_hat = None
    estimates = []
    total = 0
    for k, n_shots in zip(ks, shots):
        dc = delta_fn(k, "c") if delta_fn else 0.0
        ds = delta_fn(k, "s") if delta_fn else 0.0
        pc, ps = rpe_probabilities(theta_true, k, dc, ds)
        if n_shots is None:
            pc_hat, ps_hat = pc, ps
        else:
            pc_hat = gen.binomial(n_shots, pc) / n_shots
            ps_hat = gen.binomial(n_shots, ps) / n_shots
            total += 2 * n_shots
        raw = np.arctan2(2 * ps_hat - 1, 2 * pc_hat - 1) / k
        if theta_hat is None:
            theta_hat = raw
        else:
            step = 2 * np.pi / k
            candidate = raw
            while candidate < theta_hat - np.pi / k:
                candidate += step
            while candidate > theta_hat + np.pi / k:
                candidate -= step
            theta_hat = candidate
        estimates.append(float(theta_hat))
    return RPEResult(float(theta_hat), estimates, k_max, total)


def write_signal_csv(path, times, values, stderrs=None):
    """Signal CSV interface: columns time, value, stderr."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    stderrs = np.zeros_like(values) if stderrs is None else np.asarray(stderrs, dtype=float)
    with open(path, "w") as f:
        f.write("time,value,stderr\n")
        for t, v, s in zip(times, values, stderrs):
            f.write(f"{float(t)!r},{float(v)!r},{float(s)!r}\n")


def read_signal_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0], rows[:, 1], rows[:, 2]


def rpe_trials(theta_true, k_max, shots_per_generation, n_trials, seed, delta_fn=None):
    """RMS error of RPE over repeated trials (wrap-around aware)."""
    errs = []
    for s in child_seeds(seed, n_trials):
        res = rpe(theta_true, k_max, shots_per_generation, s, delta_fn)
        diff = (res.theta_hat - theta_true + np.pi) % (2 * np.pi) - np.pi
        errs.append(diff)
    errs = np.asarray(errs)
    return float(np.sqrt(np.mean(errs**2))), errs
