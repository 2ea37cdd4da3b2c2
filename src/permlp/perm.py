"""Permutation matrices and the elementary operations shared by the package.

A permutation matrix is stored column-to-row: ``perm[j-1] == i`` means the
matrix has a 1 at entry (i, j).  Row-major vectorization maps entry (i, j)
to the 1-based position ``(i-1)*n + j``; that indexing convention is used by
every constraint row in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Refuse full enumeration of the symmetric group above this degree unless the
# caller raises the cap explicitly (10! = 3.6M is the practical desk limit).
BRUTE_FORCE_LIMIT = 10


class BruteForceLimitError(ValueError):
    """Work over the symmetric group was refused: degree above a cap."""


@dataclass(frozen=True)
class PermutationMatrix:
    """Binary n-by-n matrix with exactly one 1 per row and per column."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if n == 0 or sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.perm!r}")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "PermutationMatrix":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_dense(cls, arr) -> "PermutationMatrix":
        a = np.asarray(arr)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        if a.size == 0:
            raise ValueError("matrix is not a permutation matrix")
        rows = (a != 0).argmax(axis=0)
        # Every column must hold exactly one nonzero entry, and it must be 1.
        if (np.count_nonzero(a, axis=0) != 1).any() or (a[rows, np.arange(a.shape[1])] != 1).any():
            raise ValueError("matrix is not a permutation matrix")
        return cls(tuple((rows + 1).tolist()))

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=np.int8)
        for j, i in enumerate(self.perm):
            out[i - 1, j] = 1
        return out

    def vec(self) -> np.ndarray:
        """Row-major vectorization as a length n^2 binary vector."""
        n = self.n
        out = np.zeros(n * n, dtype=np.int8)
        for j, i in enumerate(self.perm):
            out[(i - 1) * n + j] = 1
        return out

    def entry(self, i: int, j: int) -> int:
        """Entry (i, j), 1-based."""
        return 1 if self.perm[j - 1] == i else 0

    def transpose(self) -> "PermutationMatrix":
        """Transpose, which is also the inverse."""
        inv = [0] * self.n
        for j, i in enumerate(self.perm):
            inv[i - 1] = j + 1
        return PermutationMatrix(tuple(inv))

    def apply(self, s: Sequence[float]) -> np.ndarray:
        """Matrix-vector product X s."""
        s = np.asarray(s, dtype=float)
        if s.shape != (self.n,):
            raise ValueError(f"vector length {s.shape} does not match degree {self.n}")
        out = np.empty(self.n, dtype=float)
        out[np.asarray(self.perm) - 1] = s
        return out

    def __matmul__(self, other: "PermutationMatrix") -> "PermutationMatrix":
        if not isinstance(other, PermutationMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("degree mismatch")
        # (XY) has its column-j 1 in row X.perm[Y.perm[j]-1].
        return PermutationMatrix(tuple(self.perm[k - 1] for k in other.perm))


def var_index(i: int, j: int, n: int) -> int:
    """1-based row-major position of entry (i, j) within vec(X)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"entry ({i},{j}) outside a {n}x{n} matrix")
    return (i - 1) * n + j


def var_entry(p: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`var_index`."""
    if not (1 <= p <= n * n):
        raise ValueError(f"position {p} outside [1, {n * n}]")
    return (p - 1) // n + 1, (p - 1) % n + 1


_TABLE_CACHE: dict[int, np.ndarray] = {}


def permutation_table(n: int, limit: int = BRUTE_FORCE_LIMIT) -> np.ndarray:
    """All n! column-to-row maps as an (n!, n) int8 array, lexicographic order.

    Used by the vectorized codebook filter; cached per degree, and only for
    the degree asked for, because the degree-10 table holds 36 MB.
    """
    if n > limit:
        raise BruteForceLimitError(f"refusing to enumerate {n}! permutations (cap {limit})")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    tab = _TABLE_CACHE.get(n)
    if tab is None:
        # Built in place, one degree at a time.  Degree d's table fills the
        # first d! rows and the last d columns.  Its block k is k followed by
        # degree d - 1's table with every entry >= k shifted up by one, which
        # maps that table in order onto the permutations of {1..d} minus k.
        # Degree d - 1's table is block 1 before its shift, so blocks d..2
        # are written from it first: each block takes the comparison with k,
        # then adds the previous table, both over whole contiguous rows (the
        # leading columns hold nothing yet and are written at later degrees).
        # Then block 1 shifts in place and one strided fill writes column
        # n - d.
        tab = np.empty((math.factorial(n), n), dtype=np.int8)
        for d in range(1, n + 1):
            rows = math.factorial(d - 1)
            prev = tab[:rows]
            for k in range(d, 1, -1):
                block = tab[(k - 1) * rows : k * rows]
                np.greater_equal(prev, k, out=block)
                block += prev
            prev += 1
            lead = tab[: d * rows, n - d].reshape(d, rows)
            lead[...] = np.arange(1, d + 1, dtype=np.int8)[:, None]
        tab.setflags(write=False)
        _TABLE_CACHE[n] = tab
    return tab


def hamming_distance(x: Sequence[float], y: Sequence[float]) -> int:
    """Number of positions where the two vectors differ (exact equality)."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    return int(np.sum(x != y))


def sq_euclidean_distance(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    d = x - y
    return float(np.dot(d, d))
