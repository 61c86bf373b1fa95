"""Dense complex linear algebra and Hilbert-Schmidt bookkeeping.

Conventions used throughout the package:

* Operators are dense, row-major ``numpy`` arrays of ``complex``.
* Vectorization ("matrix-units" basis) is **column stacking**:
  ``vec([[a, b], [c, d]]) = (a, c, b, d)``.  With this choice
  ``vec(A B C) = (C^T kron A) vec(B)``, so a Kraus map has transfer matrix
  ``sum_i conj(K_i) kron K_i`` in the matrix-unit basis.
* The "normalized-pauli" basis expands an operator over ``P_i / sqrt(d)``
  where ``P_i`` runs over the n-qubit Pauli strings in lexicographic order
  (``I, X, Y, Z`` per qubit, leftmost qubit most significant).

Mixing the two bases silently is the classic bug in this domain, so
:class:`Superket` carries its basis tag and refuses cross-basis arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MATRIX_UNITS = "matrix-units"
NORMALIZED_PAULI = "normalized-pauli"

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI_AXES = "IXYZ"


def pauli_matrix_1q(label):
    """Single-qubit Pauli matrix for a label in {I, X, Y, Z}."""
    return _PAULI_1Q[label].copy()


def pauli_label(index: int, n: int) -> str:
    """Label of the ``index``-th n-qubit Pauli (base-4 digits, qubit 0 first)."""
    digits = []
    for _ in range(n):
        digits.append(_PAULI_AXES[index % 4])
        index //= 4
    return "".join(reversed(digits))


def pauli_index(label: str) -> int:
    """Inverse of :func:`pauli_label`."""
    idx = 0
    for ch in label:
        idx = 4 * idx + _PAULI_AXES.index(ch)
    return idx


@lru_cache(maxsize=None)
def _pauli_matrices_cached(n: int):
    mats = [np.eye(1, dtype=complex)]
    for _ in range(n):
        mats = [np.kron(m, _PAULI_1Q[a]) for m in mats for a in _PAULI_AXES]
    out = np.array(mats)
    out.setflags(write=False)
    return out

def pauli_matrices(n: int) -> np.ndarray:
    """All 4**n n-qubit Pauli matrices, stacked along axis 0 in index order."""
    return _pauli_matrices_cached(n)


@lru_cache(maxsize=None)
def pauli_vec_basis(d: int) -> np.ndarray:
    """Matrix whose columns are ``vec(P_i)/sqrt(d)`` (a unitary, d ** 2 square)."""
    n = d.bit_length() - 1
    if 2**n != d:
        raise ValueError(f"dimension {d} is not a power of 2")
    cols = [vec(P) / np.sqrt(d) for P in pauli_matrices(n)]
    out = np.column_stack(cols)
    out.setflags(write=False)
    return out


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError("vector length is not a perfect square")
    return v.reshape((d, d), order="F")


@dataclass(frozen=True)
class Superket:
    """A vectorized operator: ``dim`` is the Hilbert dimension d, ``coeffs``
    the length d**2 coefficient vector in the tagged basis."""

    dim: int
    coeffs: np.ndarray
    basis: str = MATRIX_UNITS

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if coeffs.size != self.dim**2:
            raise ValueError("coefficient length must equal dim**2")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        if self.basis not in (MATRIX_UNITS, NORMALIZED_PAULI):
            raise ValueError(f"unknown basis {self.basis!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def _check_compatible(self, other: "Superket"):
        if self.basis != other.basis:
            raise ValueError(
                f"basis mismatch: {self.basis!r} vs {other.basis!r}; convert explicitly"
            )
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "Superket") -> "Superket":
        self._check_compatible(other)
        return Superket(self.dim, self.coeffs + other.coeffs, self.basis)

    def __sub__(self, other: "Superket") -> "Superket":
        self._check_compatible(other)
        return Superket(self.dim, self.coeffs - other.coeffs, self.basis)

    def __mul__(self, scalar) -> "Superket":
        return Superket(self.dim, self.coeffs * scalar, self.basis)

    __rmul__ = __mul__

    def overlap(self, other: "Superket") -> complex:
        """Hilbert-Schmidt inner product ``<<self|other>>``."""
        self._check_compatible(other)
        return complex(np.vdot(self.coeffs, other.coeffs))


def vectorize(m: np.ndarray, basis: str = MATRIX_UNITS) -> Superket:
    """Vectorize a square matrix into a :class:`Superket` in the given basis."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("only square matrices can be vectorized")
    d = m.shape[0]
    if basis == MATRIX_UNITS:
        return Superket(d, vec(m), MATRIX_UNITS)
    if basis == NORMALIZED_PAULI:
        coeffs = pauli_vec_basis(d).conj().T @ vec(m)
        return Superket(d, coeffs, NORMALIZED_PAULI)
    raise ValueError(f"unknown basis {basis!r}")


def unvectorize(sk: Superket) -> np.ndarray:
    """Recover the matrix a :class:`Superket` represents."""
    if sk.basis == MATRIX_UNITS:
        return unvec(sk.coeffs)
    return unvec(pauli_vec_basis(sk.dim) @ sk.coeffs)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``Tr[a^dag b]``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("operands must have equal shape")
    return complex(np.sum(a.conj() * b))


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists subsystem dimensions in tensor order, ``keep`` the indices
    of the subsystems to retain (order preserved as given).
    """
    m = np.asarray(m, dtype=complex)
    dims = list(dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError("matrix shape inconsistent with subsystem dims")
    keep = list(keep)
    n = len(dims)
    tensor = m.reshape(dims + dims)
    traced = sorted(set(range(n)) - set(keep))
    for offset, ax in enumerate(traced):
        k = n - offset  # remaining subsystem count on each side
        tensor = np.trace(tensor, axis1=ax - offset, axis2=ax - offset + k)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = tensor.reshape(d_keep, d_keep)
    # keep may be given out of tensor order; permute if needed
    order = sorted(range(len(keep)), key=lambda i: keep[i])
    if order != list(range(len(keep))):
        kdims = [dims[i] for i in sorted(keep)]
        perm = [order.index(i) for i in range(len(keep))]
        t = out.reshape(kdims + kdims)
        t = np.transpose(t, perm + [p + len(keep) for p in perm])
        out = t.reshape(d_keep, d_keep)
    return out


def haar_random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Gaussian with phase fix)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    gen = rng(seed)
    z = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def haar_random_state(d: int, seed) -> np.ndarray:
    """Haar-random pure state vector of dimension d."""
    gen = rng(seed)
    z = gen.normal(size=d) + 1j * gen.normal(size=d)
    return z / np.linalg.norm(z)


def matrix_exp(m: np.ndarray) -> np.ndarray:
    import scipy.linalg

    return scipy.linalg.expm(np.asarray(m, dtype=complex))


def matrix_log_principal(m: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm.

    Raises ``ValueError`` when an eigenvalue sits on the branch cut (the
    closed negative real axis) or at zero, where the principal log is not
    defined or not continuous; both are judged to a relative 1e-12.
    """
    m = np.asarray(m, dtype=complex)
    evals = np.linalg.eigvals(m)
    if np.any(np.abs(evals) < 1e-12):
        raise ValueError("matrix is singular; principal log undefined")
    on_cut = (evals.real < 0) & (np.abs(evals.imag) < 1e-12 * np.maximum(1.0, -evals.real))
    if np.any(on_cut):
        raise ValueError("eigenvalue on the negative real axis; principal log branch cut")
    import scipy.linalg

    out = scipy.linalg.logm(m)
    return np.asarray(out, dtype=complex)


def _philox_key(seed) -> int:
    """The 64-bit Philox key of an integer seed, two's complement for a
    negative one."""
    if seed is None:
        raise ValueError("an explicit seed is required")
    return int(seed) & (2**64 - 1)


def rng(seed) -> np.random.Generator:
    """The package-wide counter-based generator (Philox), keyed by ``seed``.

    Every stochastic operation in the package takes an explicit seed and
    builds its generator here; ``seed`` may also already be a Generator,
    which is passed through (used internally to chain draws).  A caller
    that draws many seeds' streams can re-key one generator instead
    (:func:`_rekeyed`), parking a stream's state where its draws pause:
    the same streams, without a new bit generator per seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(key=np.uint64(_philox_key(seed))))


_ZEROS = (0, 0, 0, 0)


def _rekeyed(gen: np.random.Generator, seed) -> np.random.Generator:
    """``rng(seed)``'s generator, as ``gen`` re-keyed in place: its Philox
    state becomes that of a new ``Philox(key=...)`` (counter zero, buffer
    spent), so the draws that follow are ``rng(seed)``'s whatever ``gen``
    drew before.  A Generator ``seed`` is returned as it is.  Re-keying
    abandons the stream ``gen`` was on; a caller that draws several seeds'
    streams in turn keeps one where it left off by reading
    ``gen.bit_generator.state`` first (parking it) and resumes it, bit for
    bit, by writing that state back after other seeds have drawn.  It skips
    the OS entropy that building a ``Philox`` gathers and the key then
    discards.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (_philox_key(seed), 0)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def child_seeds(seed, count: int):
    """Derive ``count`` independent child seeds from ``seed`` deterministically."""
    gen = rng(seed)
    return [int(s) for s in gen.integers(0, 2**63 - 1, size=count)]


def kron_all(mats) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def ket(bits: str) -> np.ndarray:
    """Computational basis state vector for a bit string."""
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def projector(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex).reshape(-1)
    return np.outer(state, state.conj())
