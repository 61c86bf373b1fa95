"""Quantum channels in five interconvertible representations.

The canonical internal form is the Pauli transfer matrix (PTM): real,
``d**2 x d**2``, with entries ``L[i, j] = Tr[P_i E(P_j)] / d``.  Kraus sets,
matrix-unit transfer matrices, chi matrices and Choi matrices are computed
lazily from it and cached.

Conventions (see also :mod:`qcvv.linalg`):

* transfer matrix in matrix units = ``sum_i conj(K_i) kron K_i`` (column
  stacking);
* chi matrix over the Pauli basis, ``E(rho) = sum_jk chi[j,k] P_j rho P_k``;
* Choi matrix unnormalized, ``C = sum_ij |i><j| otimes E(|i><j|)
  = sum_k vec(K_k) vec(K_k)^dag``, so ``Tr C = d`` for TP maps.

With these choices the Choi and chi matrices of a map satisfy, elementwise,

    ``chi[i, j] = (1/d) <phi_i| C |phi_j>``,  ``|phi_P> = (I kron P)|Phi0>/sqrt(d)``,

where ``|Phi0> = sum_i |i>|i>`` is the unnormalized maximally entangled state.
This is the channel-state duality in the form consistent with the column
stacking convention above; it is exercised verbatim in the test suite.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import linalg
from .cliffords import group_unitaries
from .linalg import (
    MATRIX_UNITS,
    NORMALIZED_PAULI,
    matrix_exp,
    matrix_log_principal,
    pauli_matrices,
    pauli_vec_basis,
    rng,
    unvec,
)
from .paulis import PauliString, all_paulis

CP_TOL = 1e-9
TP_TOL = 1e-9


# -- representation conversions (free functions) ------------------------------

def kraus_to_transfer(kraus) -> np.ndarray:
    """Matrix-unit transfer matrix of a Kraus set."""
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    d = ks[0].shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in ks:
        if k.shape != (d, d):
            raise ValueError("Kraus operators must share one square shape")
        out += (k.conj()[:, None, :, None] * k[None, :, None, :]).reshape(d * d, d * d)
    return out


def unitary_ptms(us) -> np.ndarray:
    """The real PTMs, shaped (m, d**2, d**2), of an (m, d, d) stack of
    unitaries: slice for slice ``Channel.from_kraus([u]).ptm``, to the bit.

    The transfer matrices are one broadcast outer product added into zeros,
    as :func:`kraus_to_transfer` builds them, so the signs of zeros agree,
    and ``v^dag T v`` runs on every slice.  A slice keeps its real part, as
    :class:`Channel` keeps it; an imaginary part above its tolerance raises.
    """
    us = np.asarray(us, dtype=complex)
    m, d = us.shape[:2]
    transfer = np.zeros((m, d * d, d * d), dtype=complex)
    transfer += (us.conj()[:, :, None, :, None] * us[:, None, :, None, :]).reshape(m, d * d, d * d)
    v = pauli_vec_basis(d)
    ptms = v.conj().T @ transfer @ v
    if not np.all(np.abs(ptms.imag) <= 1e-10):
        raise ValueError("PTM entries must be real")
    return np.ascontiguousarray(ptms.real)


def transfer_to_ptm(transfer: np.ndarray) -> np.ndarray:
    d2 = transfer.shape[0]
    d = int(round(np.sqrt(d2)))
    v = pauli_vec_basis(d)
    ptm = v.conj().T @ transfer @ v
    return ptm.real if np.all(np.abs(ptm.imag) <= 1e-12) else ptm


def ptm_to_transfer(ptm: np.ndarray) -> np.ndarray:
    d2 = ptm.shape[0]
    d = int(round(np.sqrt(d2)))
    v = pauli_vec_basis(d)
    return v @ np.asarray(ptm, dtype=complex) @ v.conj().T


def transfer_to_choi(transfer: np.ndarray) -> np.ndarray:
    """Reshuffle between the matrix-unit transfer matrix and the Choi matrix.

    With column stacking, ``C[(j,m),(j',m')] = L[(m',m),(j',j)]``; the
    operation is an involution.
    """
    d2 = transfer.shape[0]
    d = int(round(np.sqrt(d2)))
    return np.reshape(transfer, [d] * 4).swapaxes(0, 3).reshape(d2, d2)


choi_to_transfer = transfer_to_choi  # self-inverse reshuffle


def chi_to_choi(chi: np.ndarray) -> np.ndarray:
    d2 = chi.shape[0]
    d = int(round(np.sqrt(d2)))
    w = pauli_vec_basis(d) * np.sqrt(d)  # columns vec(P_i)
    return w @ np.asarray(chi, dtype=complex) @ w.conj().T


def choi_to_chi(choi: np.ndarray) -> np.ndarray:
    d2 = choi.shape[0]
    d = int(round(np.sqrt(d2)))
    w = pauli_vec_basis(d) * np.sqrt(d)
    return w.conj().T @ np.asarray(choi, dtype=complex) @ w / d**2


def choi_to_kraus(choi: np.ndarray):
    """Orthogonal (eigen-)Kraus set from a Choi matrix.

    Eigenvalues are sorted descending and those at or below 1e-9 dropped;
    each retained eigenvector's phase is fixed so its first nonzero
    component is real positive.  Raises on negative eigenvalues beyond
    ``CP_TOL`` (non-CP map).
    """
    choi = np.asarray(choi, dtype=complex)
    evals, evecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    if evals.min() < -CP_TOL * max(1.0, evals.max()):
        raise ValueError(f"Choi matrix has negative eigenvalue {evals.min():.3e}; not CP")
    order = np.argsort(evals)[::-1]
    kraus = []
    for idx in order:
        lam = evals[idx]
        if lam <= 1e-9:
            continue
        v = evecs[:, idx]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size:
            v = v * np.exp(-1j * np.angle(v[nz[0]]))
        kraus.append(np.sqrt(lam) * unvec(v))
    return kraus


def choi_chi_overlap(choi: np.ndarray) -> np.ndarray:
    """Evaluate ``(1/d) <phi_i|C|phi_j>`` over the entangled Pauli basis.

    Returns the matrix that the chi matrix must equal elementwise (the
    channel-state duality stated in the module docstring).
    """
    d2 = choi.shape[0]
    d = int(round(np.sqrt(d2)))
    phi0 = np.eye(d, dtype=complex).reshape(-1, order="F")  # sum_i |i>|i>
    paulis = pauli_matrices(d.bit_length() - 1)
    basis = np.column_stack(
        [np.kron(np.eye(d), p) @ phi0 / np.sqrt(d) for p in paulis]
    )
    return basis.conj().T @ choi @ basis / d


class Channel:
    """One quantum operation; construct via the ``from_*`` classmethods."""

    def __init__(self, ptm: np.ndarray, unitary=None):
        ptm = np.asarray(ptm)
        if ptm.ndim != 2 or ptm.shape[0] != ptm.shape[1]:
            raise ValueError("PTM must be square")
        d = math.isqrt(ptm.shape[0])
        if d * d != ptm.shape[0]:
            raise ValueError("PTM side must be a perfect square")
        if np.iscomplexobj(ptm):
            if not np.allclose(ptm.imag, 0, atol=1e-10):
                raise ValueError("PTM entries must be real")
            ptm = ptm.real
        self.dim = d
        self.n = d.bit_length() - 1
        self.ptm = ptm.astype(float)
        self.unitary = None if unitary is None else np.asarray(unitary, dtype=complex)
        self._cache = {}

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_ptm(cls, ptm) -> "Channel":
        return cls(ptm)

    @classmethod
    def from_transfer(cls, transfer, basis: str = MATRIX_UNITS) -> "Channel":
        if basis == MATRIX_UNITS:
            return cls(transfer_to_ptm(np.asarray(transfer, dtype=complex)))
        if basis == NORMALIZED_PAULI:
            return cls(transfer)
        raise ValueError(f"unknown basis {basis!r}")

    @classmethod
    def from_kraus(cls, kraus) -> "Channel":
        ks = [np.asarray(k, dtype=complex) for k in kraus]
        ch = cls(transfer_to_ptm(kraus_to_transfer(ks)))
        ch._cache["kraus"] = ks
        return ch

    @classmethod
    def from_unitary(cls, u) -> "Channel":
        u = np.asarray(u, dtype=complex)
        ch = cls(unitary_ptms(u[None])[0], u)
        ch._cache["kraus"] = [u]
        return ch

    @classmethod
    def from_chi(cls, chi) -> "Channel":
        ch = cls(transfer_to_ptm(choi_to_transfer(chi_to_choi(chi))))
        ch._cache["chi"] = np.asarray(chi, dtype=complex)
        return ch

    @classmethod
    def from_choi(cls, choi) -> "Channel":
        ch = cls(transfer_to_ptm(choi_to_transfer(choi)))
        ch._cache["choi"] = np.asarray(choi, dtype=complex)
        return ch

    # -- representations -----------------------------------------------------
    def to_ptm(self) -> np.ndarray:
        return self.ptm.copy()

    def to_transfer(self) -> np.ndarray:
        """Transfer matrix in matrix units; :meth:`to_ptm` gives it in the
        normalized Pauli basis."""
        if "transfer" not in self._cache:
            self._cache["transfer"] = ptm_to_transfer(self.ptm)
        return self._cache["transfer"].copy()

    def to_choi(self) -> np.ndarray:
        if "choi" not in self._cache:
            self._cache["choi"] = transfer_to_choi(self.to_transfer())
        return self._cache["choi"].copy()

    def to_chi(self) -> np.ndarray:
        if "chi" not in self._cache:
            self._cache["chi"] = choi_to_chi(self.to_choi())
        return self._cache["chi"].copy()

    def to_kraus(self):
        if "kraus" not in self._cache:
            self._cache["kraus"] = choi_to_kraus(self.to_choi())
        return [k.copy() for k in self._cache["kraus"]]

    # -- action and predicates -------------------------------------------------
    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Act on a density matrix."""
        sk = linalg.vectorize(rho, NORMALIZED_PAULI)
        out = self.ptm @ sk.coeffs
        return linalg.unvectorize(linalg.Superket(self.dim, out, NORMALIZED_PAULI))

    def is_tp(self, tol: float = TP_TOL) -> bool:
        row = np.zeros(self.dim**2)
        row[0] = 1.0
        return bool(np.allclose(self.ptm[0], row, atol=tol))

    def is_unital(self) -> bool:
        col = np.zeros(self.dim**2)
        col[0] = 1.0
        return bool(np.allclose(self.ptm[:, 0], col, atol=TP_TOL))

    def is_cp(self) -> bool:
        evals = np.linalg.eigvalsh(self.to_choi())
        return bool(evals.min() >= -CP_TOL)

    def is_cptp(self) -> bool:
        """Completely positive to ``CP_TOL`` and trace preserving to ``TP_TOL``."""
        return self.is_cp() and self.is_tp()

    def compose(self, other: "Channel") -> "Channel":
        """Channel applying ``other`` first, then ``self``."""
        out = Channel(self.ptm @ other.ptm)
        if self.unitary is not None and other.unitary is not None:
            out.unitary = self.unitary @ other.unitary
        return out

    def tensor(self, other: "Channel") -> "Channel":
        """Parallel composition on disjoint registers (self on the left)."""
        out = Channel(np.kron(self.ptm, other.ptm))
        if self.unitary is not None and other.unitary is not None:
            out.unitary = np.kron(self.unitary, other.unitary)
        return out

    # -- serialization ---------------------------------------------------------
    def to_json(self, representation: str = "ptm") -> str:
        if representation == "ptm":
            entries = self.ptm.astype(complex)
            basis = NORMALIZED_PAULI
        elif representation == "transfer":
            entries = self.to_transfer()
            basis = MATRIX_UNITS
        elif representation == "chi":
            entries = self.to_chi()
            basis = NORMALIZED_PAULI
        elif representation == "choi":
            entries = self.to_choi()
            basis = MATRIX_UNITS
        else:
            raise ValueError(f"unknown representation {representation!r}")
        payload = {
            "dim": self.dim,
            "representation": representation,
            "basis": basis,
            "entries": [[[z.real, z.imag] for z in row] for row in entries],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Channel":
        payload = json.loads(text)
        entries = np.array(
            [[complex(re, im) for re, im in row] for row in payload["entries"]]
        )
        rep = payload["representation"]
        if rep == "ptm":
            return cls.from_ptm(entries.real)
        if rep == "transfer":
            return cls.from_transfer(entries, basis=payload["basis"])
        if rep == "chi":
            return cls.from_chi(entries)
        if rep == "choi":
            return cls.from_choi(entries)
        raise ValueError(f"unknown representation {rep!r}")


# -- canonical error channels --------------------------------------------------

_AXIS = {"x": np.array([1.0, 0, 0]), "y": np.array([0, 1.0, 0]), "z": np.array([0, 0, 1.0])}


def identity_channel(n: int = 1) -> Channel:
    ch = Channel(np.eye(4**n))
    ch.unitary = np.eye(2**n, dtype=complex)
    return ch


def coherent(axis, theta: float) -> Channel:
    """Single-qubit rotation error ``exp(-i theta/2 n.sigma)``."""
    if isinstance(axis, str):
        axis = _AXIS[axis.lower()]
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    sx, sy, sz = (pauli_matrices(1)[i] for i in (1, 2, 3))
    h = axis[0] * sx + axis[1] * sy + axis[2] * sz
    u = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * h
    return Channel.from_unitary(u)


def dephasing(p: float) -> Channel:
    """Phase flip with probability p/2 (PTM diag(1, 1-p, 1-p, 1))."""
    _check_prob(p)
    i2, _, _, z = pauli_matrices(1)
    return Channel.from_kraus([np.sqrt(1 - p / 2) * i2, np.sqrt(p / 2) * z])


def amplitude_damping(p: float) -> Channel:
    _check_prob(p)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
    return Channel.from_kraus([k0, k1])


def depolarizing(p: float, n: int = 1) -> Channel:
    """Bloch-vector contraction by p: PTM diag(1, 1-p, ..., 1-p)."""
    _check_prob(p)
    d2 = 4**n
    diag = np.full(d2, 1 - p)
    diag[0] = 1.0
    return Channel(np.diag(diag))


def stochastic_pauli(probs) -> Channel:
    """Stochastic Pauli channel.

    ``probs`` is either a (p_X, p_Y, p_Z) triple for one qubit or a mapping
    of Pauli labels to probabilities for any n; the identity probability is
    the remainder.
    """
    if not isinstance(probs, dict):
        px, py, pz = probs
        probs = {"X": px, "Y": py, "Z": pz}
    labels = list(probs)
    n = len(labels[0])
    total = 0.0
    for lab, p in probs.items():
        if len(lab) != n:
            raise ValueError("inconsistent Pauli label lengths")
        if p < -1e-12:
            raise ValueError("negative probability")
        total += p
    if total > 1 + 1e-9:
        raise ValueError("probabilities exceed 1")
    diag = np.ones(4**n)
    paulis = all_paulis(n)
    for lab, p in probs.items():
        q = PauliString.from_label(lab)
        for i, pp in enumerate(paulis):
            if not pp.commutes(q):
                diag[i] -= 2 * p
    return Channel(np.diag(diag))


# rows P in I, X, Y, Z order; columns Q; entry (-1)^{P, Q anticommute}
_WH_KERNEL = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
)


def walsh_hadamard(values, direction: str) -> np.ndarray:
    """Transform between Pauli error rates and Pauli eigenvalues.

    The transform is the symplectic one over Pauli indices: ``lambda_P =
    sum_Q (-1)^{<P,Q>} p_Q`` with ``<P,Q> = 0`` when P and Q commute and 1
    otherwise.  It factorizes per qubit into a 4x4 kernel applied along each
    base-4 index axis and squares to ``4**n`` times the identity.
    ``direction`` is ``"rates-to-eigenvalues"`` (forward) or
    ``"eigenvalues-to-rates"`` (inverse, with the 4**-n factor).
    """
    v = np.asarray(values, dtype=float)
    size = v.size
    n = 0
    while 4**n < size:
        n += 1
    if 4**n != size:
        raise ValueError("length must be a power of 4")
    t = v.reshape((4,) * n) if n else v.copy()
    for axis in range(n):
        t = np.tensordot(_WH_KERNEL, t, axes=(1, axis))
        t = np.moveaxis(t, 0, axis)
    out = t.reshape(-1)
    if direction == "rates-to-eigenvalues":
        return out
    if direction == "eigenvalues-to-rates":
        return out / size
    raise ValueError(f"unknown direction {direction!r}")


def pauli_channel_from_dist(probs: np.ndarray) -> Channel:
    """Pauli channel from a full length-4**n probability vector (index order)."""
    probs = np.asarray(probs, dtype=float)
    return Channel(np.diag(walsh_hadamard(probs, "rates-to-eigenvalues")))


def _check_prob(p):
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")


# -- error generators ------------------------------------------------------------

def _superop_ptm_of(map_fn, n: int) -> np.ndarray:
    """PTM of an arbitrary linear map given as rho -> map_fn(rho)."""
    d = 2**n
    paulis = pauli_matrices(n)
    cols = []
    for p in paulis:
        out = map_fn(p)
        cols.append(np.einsum("kij,ji->k", paulis, out) / d)
    m = np.column_stack(cols)
    return m.real if np.allclose(m.imag, 0, atol=1e-12) else m


def elementary_generators(n: int):
    """The elementary H/S/C/A generator PTMs, keyed by ("H", i), ("S", i),
    ("C", i, j), ("A", i, j) with i < j over non-identity Pauli indices."""
    paulis = pauli_matrices(n)
    nontrivial = range(1, 4**n)
    gens = {}
    for i in nontrivial:
        p = paulis[i]
        gens[("H", i)] = _superop_ptm_of(lambda r, p=p: -1j * (p @ r - r @ p), n)
        gens[("S", i)] = _superop_ptm_of(lambda r, p=p: p @ r @ p - r, n)
    for i in nontrivial:
        for j in nontrivial:
            if j <= i:
                continue
            p, q = paulis[i], paulis[j]
            anti = p @ q + q @ p
            gens[("C", i, j)] = _superop_ptm_of(
                lambda r, p=p, q=q, anti=anti: p @ r @ q + q @ r @ p - (anti @ r + r @ anti) / 2, n
            )
            comm = p @ q - q @ p
            gens[("A", i, j)] = _superop_ptm_of(
                lambda r, p=p, q=q, comm=comm: 1j * (p @ r @ q - q @ r @ p + (comm @ r + r @ comm) / 2),
                n,
            )
    return gens


class ErrorGeneratorCoeffs(dict):
    """Mapping from elementary-generator keys to rates; see
    :func:`elementary_generators` for the key scheme."""

    def rate(self, kind: str, *pauli_indices) -> float:
        return self.get((kind, *pauli_indices), 0.0)


def error_generator(channel: Channel) -> ErrorGeneratorCoeffs:
    """Project log(PTM) onto the elementary H/S/C/A generators."""
    ptm = channel.ptm
    if np.linalg.norm(ptm - np.eye(ptm.shape[0]), ord=2) >= 1.0:
        raise ValueError("PTM too far from identity for a generator expansion")
    log = matrix_log_principal(ptm)
    if not np.allclose(log.imag, 0, atol=1e-9):
        raise ValueError("log of PTM is not real; not a valid error generator")
    log = log.real
    gens = elementary_generators(channel.n)
    keys = list(gens)
    basis = np.column_stack([gens[k].reshape(-1) for k in keys])
    coeffs, *_ = np.linalg.lstsq(basis, log.reshape(-1), rcond=None)
    return ErrorGeneratorCoeffs(zip(keys, coeffs))


def from_generator(coeffs: ErrorGeneratorCoeffs, n: int = 1) -> Channel:
    gens = elementary_generators(n)
    log = np.zeros((4**n, 4**n))
    for key, rate in coeffs.items():
        log += rate * gens[key]
    return Channel(matrix_exp(log).real)


# -- twirling ----------------------------------------------------------------------

def twirl_exact(channel: Channel, group: str) -> Channel:
    """Exact group twirl.

    ``"pauli"`` zeroes every PTM off-diagonal (the 4**n one-dimensional
    irreps); ``"clifford-1q"``/``"clifford-2q"`` produce the depolarizing
    channel with polarization ``f = (Tr L - 1)/(d**2 - 1)`` (trivial plus one
    large irrep).
    """
    ptm = channel.ptm
    d2 = ptm.shape[0]
    if group == "pauli":
        return Channel(np.diag(np.diag(ptm)))
    if group in ("clifford-1q", "clifford-2q"):
        want = 4 if group == "clifford-1q" else 16
        if d2 != want:
            raise ValueError("group dimension does not match the channel")
        f = (np.trace(ptm) - 1) / (d2 - 1)
        diag = np.full(d2, f)
        diag[0] = 1.0
        return Channel(np.diag(diag))
    raise ValueError(f"unknown twirling group {group!r}")


def twirl_sampled(channel: Channel, group: str, nsamples: int, seed) -> Channel:
    """Monte-Carlo twirl by ``nsamples`` uniformly sampled group elements."""
    gen = rng(seed)
    n = channel.n
    if group == "pauli":
        frames = [Channel.from_unitary(p.to_matrix()) for p in all_paulis(n)]
    elif group in ("clifford-1q", "clifford-2q"):
        want = 1 if group == "clifford-1q" else 2
        if n != want:
            raise ValueError("group dimension does not match the channel")
        frames = None
        elems = group_unitaries(n)
    else:
        raise ValueError(f"unknown twirling group {group!r}")
    acc = np.zeros_like(channel.ptm)
    for _ in range(nsamples):
        if frames is not None:
            u = frames[int(gen.integers(len(frames)))]
        else:
            u = Channel.from_unitary(elems[int(gen.integers(len(elems)))])
        acc += u.ptm.T @ channel.ptm @ u.ptm  # u.ptm orthogonal: inverse = transpose
    return Channel(acc / nsamples)


def random_cptp(d: int, seed) -> Channel:
    """Random CPTP channel from a Haar-random Stinespring isometry.

    The environment has dimension d**2.  The measure is this construction's
    own; it is a test fixture, not a claim about any canonical ensemble.
    """
    if d not in (2, 4):
        raise ValueError("random channels supported at d in {2, 4}")
    u = linalg.haar_random_unitary(d * d * d, rng(seed))
    return Channel.from_kraus([u[i * d:(i + 1) * d, :d] for i in range(d * d)])
