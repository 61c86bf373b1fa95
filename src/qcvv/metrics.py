"""Distances and fidelities over distributions, states, and processes.

Entropic quantities use the natural logarithm.  The heavy-output set of a
distribution is its ``floor(d/2)`` most probable outcomes; outcomes tied at
the median boundary are admitted in sorted label order until the set is
full, so the heavy set is always exactly half the sample space (the uniform
distribution therefore has heavy-output probability 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import pauli_matrices

NORM_TOL = 1e-9


@dataclass
class ProbDist:
    """A distribution over hashable outcome labels."""

    outcomes: list
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if len(self.outcomes) != self.probs.size:
            raise ValueError("labels and probabilities differ in length")
        if np.any(~np.isfinite(self.probs)) or np.any(self.probs < -NORM_TOL):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(self.probs.sum() - 1.0) > NORM_TOL:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")

    @classmethod
    def _checked(cls, outcomes: list, probs: np.ndarray) -> "ProbDist":
        """The distribution of a caller that has checked what the
        constructor checks: a flat float array of finite, nonnegative
        probabilities summing to 1, one per outcome label."""
        dist = object.__new__(cls)
        dist.outcomes, dist.probs = outcomes, probs
        return dist

    @classmethod
    def from_dict(cls, d) -> "ProbDist":
        items = sorted(d.items())
        return cls([k for k, _ in items], np.array([v for _, v in items]))

    def as_dict(self):
        return dict(zip(self.outcomes, self.probs))

    def aligned(self, other: "ProbDist"):
        """Probability arrays of self and other over the union of outcomes."""
        labels = sorted(set(self.outcomes) | set(other.outcomes))
        a = self.as_dict()
        b = other.as_dict()
        return (
            np.array([a.get(k, 0.0) for k in labels]),
            np.array([b.get(k, 0.0) for k in labels]),
            labels,
        )


def _pair(p, q):
    if isinstance(p, (ProbDist, dict)) or isinstance(q, (ProbDist, dict)):
        if not isinstance(p, ProbDist):
            p = ProbDist.from_dict(p) if isinstance(p, dict) else ProbDist(list(range(len(p))), p)
        if not isinstance(q, ProbDist):
            q = ProbDist.from_dict(q) if isinstance(q, dict) else ProbDist(list(range(len(q))), q)
        a, b, _ = p.aligned(q)
        return a, b
    return np.asarray(p, dtype=float), np.asarray(q, dtype=float)


def tvd(p, q) -> float:
    """Total variation distance, half the l1 difference."""
    a, b = _pair(p, q)
    return 0.5 * float(np.abs(a - b).sum())


def hellinger_fidelity(p, q) -> float:
    """Classical (Hellinger) fidelity, the squared Bhattacharya coefficient."""
    a, b = _pair(p, q)
    return float(np.sqrt(a * b).sum() ** 2)


def cross_entropy(p, q) -> float:
    """H(p, q) = -sum p log q in nats; q must be positive wherever p > 0."""
    a, b = _pair(p, q)
    mask = a > 0
    if np.any(b[mask] <= 0):
        raise ValueError("cross-entropy undefined: q has zero mass where p > 0")
    return float(-(a[mask] * np.log(b[mask])).sum())


def linear_xe(p, q) -> float:
    """Linear cross-entropy d * sum(p q) - 1 over a d-outcome space."""
    a, b = _pair(p, q)
    return float(a.size * (a * b).sum() - 1.0)


def heavy_outcomes(p_ideal: ProbDist):
    """The floor(d/2) heaviest outcomes; median ties fill in label order."""
    if not isinstance(p_ideal, ProbDist):
        p_ideal = ProbDist(list(range(len(p_ideal))), p_ideal)
    k = len(p_ideal.outcomes) // 2
    order = sorted(
        range(len(p_ideal.outcomes)),
        key=lambda i: (-p_ideal.probs[i], p_ideal.outcomes[i]),
    )
    return {p_ideal.outcomes[i] for i in order[:k]}


def heavy_output_prob(p_ideal, samples) -> float:
    """Fraction of samples landing in the ideal distribution's heavy set."""
    heavy = heavy_outcomes(p_ideal)
    samples = list(samples)
    if not samples:
        raise ValueError("no samples")
    return sum(1 for s in samples if s in heavy) / len(samples)


# -- quantum states -----------------------------------------------------------

def _check_density(rho):
    rho = np.asarray(rho, dtype=complex)
    if not np.allclose(rho, rho.conj().T, atol=1e-8):
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-6:
        raise ValueError("state trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -1e-6:
        raise ValueError("state has a significantly negative eigenvalue")
    return (rho + rho.conj().T) / 2


def trace_distance(rho, sigma) -> float:
    rho = _check_density(rho)
    sigma = _check_density(sigma)
    evals = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.abs(evals).sum())


def _psd_sqrt(m):
    """Square root of a Hermitian PSD matrix.

    Eigenvalues at or below ``d * eps * max|eigenvalue|`` are rounding noise
    of a zero eigenvalue and are set to zero, so rank-deficient inputs give
    an exactly rank-deficient root.
    """
    evals, evecs = np.linalg.eigh(m)
    cutoff = m.shape[0] * np.finfo(float).eps * np.abs(evals).max()
    evals = np.where(evals > cutoff, evals, 0.0)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def state_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ||sqrt(rho) sqrt(sigma)||_1**2.

    Equal to (Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2; the nuclear-norm form,
    the squared sum of the singular values of sqrt(rho) sqrt(sigma), is
    symmetric in its arguments by construction.
    """
    rho = _check_density(rho)
    sigma = _check_density(sigma)
    svals = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(sigma), compute_uv=False)
    return float(min(svals.sum() ** 2, 1.0 + 1e-9))


def purity(rho) -> float:
    rho = _check_density(rho)
    return float(np.trace(rho @ rho).real)


# -- quantum processes ----------------------------------------------------------

def entanglement_fidelity(g: Channel, target: Channel = None) -> float:
    """Process (entanglement) fidelity Tr[L_G L_U^-1] / d**2 to a unitary target."""
    d2 = g.ptm.shape[0]
    if target is None:
        err = g.ptm
    else:
        if target.unitary is None and not _ptm_is_unitary(target):
            raise ValueError("target must be unitary for the PTM trace formula")
        err = g.ptm @ np.linalg.inv(target.ptm)
    return float(np.trace(err) / d2)


def _ptm_is_unitary(ch: Channel) -> bool:
    m = ch.ptm
    return np.allclose(m @ m.T, np.eye(m.shape[0]), atol=1e-9)


def avg_gate_fidelity(g: Channel, target: Channel = None) -> float:
    d = g.dim
    return convert_metric(entanglement_fidelity(g, target), "F_e", "F_avg", d)


def polarization(g: Channel, target: Channel = None) -> float:
    d = g.dim
    return convert_metric(entanglement_fidelity(g, target), "F_e", "f", d)


_METRICS = ("F_avg", "r", "F_e", "e_F", "f")


def convert_metric(value: float, source: str, dest: str, d: int) -> float:
    """Convert among F_avg, r, F_e, e_F and f (all linear in each other)."""
    if source not in _METRICS or dest not in _METRICS:
        raise ValueError(f"metrics must be among {_METRICS}")
    # route through F_e
    if source == "F_e":
        fe = value
    elif source == "e_F":
        fe = 1.0 - value
    elif source == "F_avg":
        fe = ((d + 1) * value - 1) / d
    elif source == "r":
        fe = ((d + 1) * (1 - value) - 1) / d
    else:  # f
        fe = ((d**2 - 1) * value + 1) / d**2
    if dest == "F_e":
        return fe
    if dest == "e_F":
        return 1.0 - fe
    if dest == "F_avg":
        return (d * fe + 1) / (d + 1)
    if dest == "r":
        return 1.0 - (d * fe + 1) / (d + 1)
    return (d**2 * fe - 1) / (d**2 - 1)


def jamiolkowski_trace_distance(g: Channel, gbar: Channel) -> float:
    """Half the nuclear norm of the chi-matrix difference."""
    if g.dim != gbar.dim:
        raise ValueError("dimension mismatch")
    diff = g.to_chi() - gbar.to_chi()
    diff = (diff + diff.conj().T) / 2
    evals = np.linalg.eigvalsh(diff)
    return 0.5 * float(np.abs(evals).sum())


def diamond_bounds(e_f: float, d: int):
    """(lower, upper) bounds on the diamond-norm error from process infidelity."""
    if not 0 <= e_f <= 1:
        raise ValueError("process infidelity outside [0, 1]")
    return (e_f, d * np.sqrt(e_f))


def unitarity(e: Channel) -> float:
    """u = Tr[L_u^T L_u] / (d**2 - 1) over the unital block of the PTM.

    Equals the state-averaged squared Bloch-vector length (with the
    non-unital shift subtracted), and is 1 exactly for unitary channels.
    """
    if not e.is_tp(1e-6):
        raise ValueError("unitarity defined here for trace-preserving channels")
    block = e.ptm[1:, 1:]
    return float(np.sum(block * block) / (e.ptm.shape[0] - 1))


def readout_fidelity(response: np.ndarray) -> float:
    """Mean of the response-matrix diagonal, Tr(R)/d."""
    r = np.asarray(response, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("response matrix must be square")
    if np.any(np.abs(r.sum(axis=0) - 1.0) > 1e-6):
        raise ValueError("response matrix columns must be distributions")
    return float(np.trace(r) / r.shape[0])


def bloch_vector(rho) -> np.ndarray:
    """Single-qubit Bloch vector (Tr X rho, Tr Y rho, Tr Z rho)."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(p @ rho).real for p in pauli_matrices(1)[1:]])
