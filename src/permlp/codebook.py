"""Codebooks obtained by applying constrained permutation matrices to a vector.

A code is the image set { X s : X permutation matrix satisfying the
constraint system }.  Enumeration is exhaustive over the symmetric group with
a vectorized filter, so it is only meant for desk-scale degrees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .constraints import ConstraintSystem, satisfies_mask
from .perm import (
    BRUTE_FORCE_LIMIT,
    PermutationMatrix,
    permutation_table,
    sq_euclidean_distance,
)

# Entries compared per min_hamming_distance chunk (one byte each).
_HAMMING_CHUNK = 1 << 21


@dataclass(frozen=True)
class CodeSpec:
    """Degree, constraint system, and initial vector defining one code."""

    n: int
    cs: ConstraintSystem
    s: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.cs.n != self.n:
            raise ValueError("constraint system degree does not match n")
        if len(self.s) != self.n:
            raise ValueError("initial vector length does not match n")


@dataclass(frozen=True, eq=False)
class Code:
    """Enumerated code: permutations in lexicographic order and their images.

    ``perms`` is a read-only (k, n) int8 array whose rows are column-to-row
    maps (rows of :func:`permutation_table`); everything else is derived
    from it on first use.
    """

    spec: CodeSpec
    perms: np.ndarray

    def __post_init__(self) -> None:
        perms = np.asarray(self.perms, dtype=np.int8)
        if perms.ndim != 2 or perms.shape[1] != self.spec.n:
            raise ValueError("perms must be a (k, n) array of permutations of 1..n")
        if perms.flags.writeable:
            perms = perms.copy()
            perms.setflags(write=False)
        object.__setattr__(self, "perms", perms)

    @property
    def n(self) -> int:
        return self.spec.n

    @cached_property
    def codewords(self) -> np.ndarray:
        """(k, n) float array, row k the image of perms[k]: word[perm[j]-1] = s[j]."""
        out = np.empty(self.perms.shape, dtype=float)
        np.put_along_axis(out, self.perms - 1, np.asarray(self.spec.s, dtype=float), axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def matrices(self) -> tuple[PermutationMatrix, ...]:
        """The rows of ``perms`` as matrix objects, built on first use."""
        return tuple(PermutationMatrix(tuple(p)) for p in self.perms.tolist())

    @cached_property
    def singular(self) -> bool:
        """Whether two matrices of the code share an image."""
        if len(set(self.spec.s)) == self.n:
            return False
        return len(np.unique(self.codewords, axis=0)) < len(self)

    def find(self, x: PermutationMatrix) -> Optional[int]:
        """0-based row of ``x`` in ``perms``, or None when x is not in the code."""
        if x.n != self.n:
            return None
        hits = np.flatnonzero((self.perms == np.asarray(x.perm, dtype=np.int8)).all(axis=1))
        return int(hits[0]) if hits.size else None

    def index(self, word) -> Optional[int]:
        """0-based row of the first codeword equal to ``word``, or None, also for a wrong shape."""
        word = np.asarray(word, dtype=float)
        match = word.shape == (self.n,) and (self.codewords == word).all(axis=1)
        return int(np.argmax(match)) if np.any(match) else None

    def matrix(self, k: int) -> PermutationMatrix:
        """Matrix of row k (0-based)."""
        return PermutationMatrix(tuple(self.perms[k].tolist()))

    def __len__(self) -> int:
        return self.perms.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.perms, other.perms)

    def __hash__(self) -> int:
        return hash(self.spec)

    def __reduce__(self):
        # Pickle the spec and the permutations only; derived arrays are rebuilt.
        return (Code, (self.spec, self.perms))


@lru_cache(maxsize=16)
def _satisfying(cs: ConstraintSystem, limit: int) -> np.ndarray:
    """The rows of the n! table that satisfy cs, read-only; cached per system.

    Only the int8 permutations are cached: every ``Code`` builds its own
    float codewords, so no cache entry pins a float codebook.
    """
    table = permutation_table(cs.n, limit)
    # On the 10! table, compress picks the rows ten times faster than table[mask].
    perms = table.compress(satisfies_mask(cs, table), axis=0)
    perms.setflags(write=False)
    return perms


def build_code(spec: CodeSpec, limit: int = BRUTE_FORCE_LIMIT) -> Code:
    """Filter the full symmetric group through the constraint system.

    The filter runs once per (system, limit); later builds share its rows.
    """
    return Code(spec=spec, perms=_satisfying(spec.cs, limit))


def min_hamming_distance(code: Code) -> int:
    """Smallest pairwise Hamming distance between distinct codewords."""
    if code.singular:
        raise ValueError("minimum distance of a singular code is undefined here")
    if len(code) < 2:
        raise ValueError("need at least two codewords")
    words = code.codewords
    k, n = words.shape
    rows = max(1, _HAMMING_CHUNK // (k * n))
    best = n
    for lo in range(0, k - 1, rows):
        # dist[r, c] compares word lo + r with word lo + 1 + c, a later word when c >= r.
        dist = np.count_nonzero(words[lo : lo + rows, None, :] != words[None, lo + 1 :, :], axis=2)
        dist[np.tri(*dist.shape, -1, dtype=bool)] = n
        best = min(best, int(dist.min()))
        if best == 2:  # distinct rearrangements of one vector differ in two places at least
            break
    return best


@dataclass(frozen=True)
class DistanceEnumerator:
    """Multiset of Euclidean distances from one codeword to every codeword."""

    entries: tuple[tuple[float, int], ...]  # (distance, multiplicity), ascending

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def same_as(self, other: "DistanceEnumerator", tol: float = 1e-9) -> bool:
        if len(self.entries) != len(other.entries):
            return False
        return all(
            abs(d1 - d2) <= tol and m1 == m2
            for (d1, m1), (d2, m2) in zip(self.entries, other.entries)
        )


# Distances closer than this are treated as the same enumerator bin.
DISTANCE_BIN_TOL = 1e-9


def distance_enumerator(code: Code, x: PermutationMatrix) -> DistanceEnumerator:
    """Distances from the image of ``x`` to all codewords (self included)."""
    if code.singular:
        raise ValueError("distance profile of a singular code is undefined here")
    k = code.find(x)
    if k is None:
        raise ValueError("center matrix is not in the code")
    center = code.codewords[k]
    dists = np.sort(np.sqrt(np.sum((code.codewords - center) ** 2, axis=1)))
    entries: list[tuple[float, int]] = []
    for d in dists:
        if entries and abs(d - entries[-1][0]) <= DISTANCE_BIN_TOL:
            entries[-1] = (entries[-1][0], entries[-1][1] + 1)
        else:
            entries.append((float(d), 1))
    return DistanceEnumerator(tuple(entries))


def weight_distribution(code: Code, origin: Sequence[float]) -> tuple[int, ...]:
    """Counts L_w of codewords at Hamming distance w from ``origin``, w = 0..n.

    The origin must be a permutation of the initial vector; it need not be a
    codeword.
    """
    o = np.asarray(origin, dtype=float)
    s = np.asarray(code.spec.s, dtype=float)
    if o.shape != s.shape or sorted(o.tolist()) != sorted(s.tolist()):
        raise ValueError("origin is not a permutation of the initial vector")
    return tuple(np.bincount((code.codewords != o).sum(axis=1), minlength=code.n + 1).tolist())


def block_min_sq_distance(
    n: int, nu: int, s: Sequence[float]
) -> tuple[float, float, float]:
    """Squared-distance parameters of the block permutation code.

    Returns (within-block delta1^2, cross-block delta2^2, overall minimum
    squared distance min(delta1^2, 2*delta2^2)) for the code built from
    nu-by-nu blocks over the initial vector split into n/nu segments.
    """
    if nu < 1 or n % nu != 0:
        raise ValueError(f"nu={nu} must divide the degree n={n}")
    s = np.asarray(s, dtype=float)
    if s.shape != (n,):
        raise ValueError("initial vector length does not match n")
    segments = [s[k * nu : (k + 1) * nu] for k in range(n // nu)]
    d1 = math.inf
    for seg in segments:
        for p in itertools.permutations(range(nu)):
            if p == tuple(range(nu)):
                continue
            d1 = min(d1, sq_euclidean_distance(seg, seg[list(p)]))
    d2 = math.inf
    for a, b in itertools.permutations(range(len(segments)), 2):
        for p in itertools.permutations(range(nu)):
            d2 = min(d2, sq_euclidean_distance(segments[a], segments[b][list(p)]))
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degenerate initial vector: identical segment images")
    return float(d1), float(d2), float(min(d1, 2 * d2))
