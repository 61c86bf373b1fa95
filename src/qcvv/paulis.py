"""Pauli strings with exact phase tracking.

A Pauli string on n qubits is stored as x/z bit masks plus a phase exponent
``k`` with the operator equal to ``i**k * prod_q X_q**x_q Z_q**z_q`` (X
before Z on each qubit).  Phases live in the exact group {+1, -1, +i, -i};
no floating point is involved in the group algebra.

Bit 0 of each mask is qubit 0 (the leftmost letter of the string label).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import kron_all, pauli_index, pauli_label, pauli_matrix_1q

# (x, z) pair per qubit: I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).  Y = i * X Z.
_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LETTER = {v: k for k, v in _LETTER_TO_XZ.items()}
_PHASE_REPR = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def _popcount(v: int) -> int:
    return bin(v).count("1")


@dataclass(frozen=True)
class PauliString:
    """An element of the n-qubit Pauli group."""

    n: int
    xbits: int
    zbits: int
    phase: int = 0  # exponent k of i**k

    def __post_init__(self):
        object.__setattr__(self, "phase", self.phase % 4)
        mask = (1 << self.n) - 1
        if (self.xbits | self.zbits) & ~mask:
            raise ValueError("bit mask exceeds qubit count")

    # -- construction ------------------------------------------------------
    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a string like ``"XIZ"``; qubit 0 is the leftmost letter.

        A ``Y`` letter denotes the Hermitian Pauli Y, so it contributes a
        bookkeeping factor of ``i`` to the stored phase exponent.
        """
        x = z = k = 0
        for q, ch in enumerate(label):
            xq, zq = _LETTER_TO_XZ[ch]
            x |= xq << q
            z |= zq << q
            if xq and zq:
                k += 1  # Y = i * X Z
        return cls(len(label), x, z, k)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_index(cls, index: int, n: int) -> "PauliString":
        """Pauli from its base-4 index (consistent with linalg.pauli_label)."""
        return cls.from_label(pauli_label(index, n))

    # -- views -------------------------------------------------------------
    def letter(self, q: int) -> str:
        return _XZ_TO_LETTER[((self.xbits >> q) & 1, (self.zbits >> q) & 1)]

    @property
    def label(self) -> str:
        return "".join(self.letter(q) for q in range(self.n))

    @property
    def index(self) -> int:
        return pauli_index(self.label)

    @property
    def sign(self) -> complex:
        """Overall scalar relative to the Hermitian Pauli with the same label."""
        y_count = _popcount(self.xbits & self.zbits)
        return 1j ** ((self.phase - y_count) % 4)

    @property
    def weight(self) -> int:
        return _popcount(self.xbits | self.zbits)

    @property
    def pattern(self) -> int:
        """Support pattern as an n-bit mask (1 where the letter is not I)."""
        return self.xbits | self.zbits

    def __repr__(self):
        return f"{_PHASE_REPR[(self.phase - _popcount(self.xbits & self.zbits)) % 4]}{self.label}"

    def to_matrix(self) -> np.ndarray:
        mats = [pauli_matrix_1q(self.letter(q)) for q in range(self.n)]
        return self.sign * kron_all(mats)

    # -- group algebra -----------------------------------------------------
    def multiply(self, other: "PauliString") -> "PauliString":
        """Group product ``self * other`` with exact phase."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        # (X^x1 Z^z1)(X^x2 Z^z2) = (-1)^(z1.x2) X^(x1^x2) Z^(z1^z2)
        k = self.phase + other.phase + 2 * _popcount(self.zbits & other.xbits)
        return PauliString(self.n, self.xbits ^ other.xbits, self.zbits ^ other.zbits, k)

    def __mul__(self, other):
        return self.multiply(other)

    def commutes(self, other: "PauliString") -> bool:
        """True when the symplectic form vanishes."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        form = _popcount(self.xbits & other.zbits) + _popcount(self.zbits & other.xbits)
        return form % 2 == 0

    def hermitian(self) -> "PauliString":
        """Same letters with the scalar reset to +1."""
        return PauliString(self.n, self.xbits, self.zbits, _popcount(self.xbits & self.zbits))

    def restrict(self, qubits) -> "PauliString":
        """Letters on the given qubits as a new string (phase dropped)."""
        x = z = 0
        for i, q in enumerate(qubits):
            x |= ((self.xbits >> q) & 1) << i
            z |= ((self.zbits >> q) & 1) << i
        k = _popcount(x & z)
        return PauliString(len(list(qubits)), x, z, k)

    def embed(self, n: int, qubits) -> "PauliString":
        """Place this string's letters on ``qubits`` of an n-qubit register."""
        x = z = 0
        for i, q in enumerate(qubits):
            x |= ((self.xbits >> i) & 1) << q
            z |= ((self.zbits >> i) & 1) << q
        return PauliString(n, x, z, self.phase)


def all_paulis(n: int):
    """All 4**n Hermitian Pauli strings in index order."""
    return [PauliString.from_index(i, n) for i in range(4**n)]
