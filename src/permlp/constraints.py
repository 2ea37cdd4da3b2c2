"""Linear constraint systems over vectorized permutation matrices.

A constraint row is a sparse integer functional on vec(X) (1-based row-major
positions) compared against an integer right-hand side with either ``=`` or
``<=``.  The module provides the named constraint families — derangement,
involution, pure involution, transposition, cyclic, repetition, and block
permutation matrices — plus the random sparse two-ones-per-row ensemble.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .perm import PermutationMatrix, permutation_table, var_entry, var_index


class Relation(enum.Enum):
    EQ = "eq"
    LE = "le"


@dataclass(frozen=True)
class ConstraintRow:
    """One sparse row: sum of coeff * vec(X)[pos] compared against rhs."""

    coeffs: tuple[tuple[int, int], ...]  # sorted (position, coefficient) pairs
    relation: Relation
    rhs: int

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("constraint row has no coefficients")
        positions = [p for p, _ in self.coeffs]
        if len(set(positions)) != len(positions):
            raise ValueError("duplicate variable position in constraint row")
        if any(p < 1 for p in positions):
            raise ValueError("variable positions are 1-based")
        if any(c == 0 for _, c in self.coeffs):
            raise ValueError("zero coefficient in constraint row")
        if list(self.coeffs) != sorted(self.coeffs):
            raise ValueError("coefficients must be sorted by position")

    @classmethod
    def make(cls, coeffs: Mapping[int, int], relation: Relation, rhs: int) -> "ConstraintRow":
        return cls(tuple(sorted((int(p), int(c)) for p, c in coeffs.items())), relation, int(rhs))

    def coeff_dict(self) -> dict[int, int]:
        return dict(self.coeffs)


@dataclass(frozen=True)
class ConstraintSystem:
    """A conjunction of constraint rows over n-by-n permutation matrices."""

    n: int
    rows: tuple[ConstraintRow, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("degree must be positive")
        top = self.n * self.n
        for row in self.rows:
            for p, _ in row.coeffs:
                if p > top:
                    raise ValueError(f"position {p} outside [1, {top}] for degree {self.n}")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def __hash__(self) -> int:
        # Same value as the dataclass hash, computed once: lp_decode looks its
        # system up in a cache on every call, and rehashing every row costs
        # a sizeable share of a decode.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.n, self.rows))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # Enum members hash by name, which varies between processes, so the
        # cached hash is never pickled.
        return (ConstraintSystem, (self.n, self.rows))


def satisfies(cs: ConstraintSystem, x: PermutationMatrix) -> bool:
    """Exact integer check of every row against the permutation matrix."""
    if x.n != cs.n:
        raise ValueError("degree mismatch between constraint system and matrix")
    n = cs.n
    for row in cs.rows:
        total = 0
        for p, c in row.coeffs:
            i, j = var_entry(p, n)
            if x.perm[j - 1] == i:
                total += c
        if row.relation is Relation.EQ:
            if total != row.rhs:
                return False
        else:
            if total > row.rhs:
                return False
    return True


# satisfies_mask evaluates the table in blocks of this many rows.  Each block
# is copied column-major once, and the entry tests of every constraint row run
# on it while it is in cache, so temporaries are block-sized, not n!-sized.
_BLOCK_ROWS = 1 << 15


def satisfies_mask(cs: ConstraintSystem, table: np.ndarray) -> np.ndarray:
    """Vectorized :func:`satisfies` over a permutation table (see perm module)."""
    n = cs.n
    if table.ndim != 2 or table.shape[1] != n:
        raise ValueError("degree mismatch between constraint system and table")
    # Entry-equality rows compare two binary entries directly; every other
    # row sums its coefficients over the entries that are one, in an
    # accumulator wide enough for the row's largest possible |sum|.
    ties, sums = [], []
    for row in cs.rows:
        entries = [(j - 1, i) for i, j in (var_entry(p, n) for p, _ in row.coeffs)]
        if (
            row.relation is Relation.EQ
            and row.rhs == 0
            and len(row.coeffs) == 2
            and row.coeffs[0][1] == -row.coeffs[1][1]
        ):
            ties.append(entries)
        else:
            coeffs = [c for _, c in row.coeffs]
            dtype = np.int8 if sum(abs(c) for c in coeffs) <= 127 else np.int64
            sums.append((list(zip(entries, coeffs)), dtype, row.relation is Relation.EQ, row.rhs))
    used = {e for entries in ties for e in entries} | {e for terms, *_ in sums for e, _ in terms}
    count = table.shape[0]
    mask = np.ones(count, dtype=bool)
    for start in range(0, count, _BLOCK_ROWS):
        cols = np.ascontiguousarray(table[start : start + _BLOCK_ROWS].T)
        hit = {(j, i): cols[j] == i for j, i in used}
        ok = mask[start : start + _BLOCK_ROWS]
        for e1, e2 in ties:
            ok &= hit[e1] == hit[e2]
        for terms, dtype, is_eq, rhs in sums:
            acc = np.zeros(cols.shape[1], dtype=dtype)
            for e, c in terms:
                if c == 1:
                    acc += hit[e]
                else:
                    acc += c * hit[e]
            ok &= (acc == rhs) if is_eq else (acc <= rhs)
    return mask


def _canon(rows: Iterable[ConstraintRow]) -> tuple[ConstraintRow, ...]:
    """Drop exact duplicate rows, keeping first-seen order."""
    seen: set[ConstraintRow] = set()
    out = []
    for r in rows:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return tuple(out)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def derangement(n: int) -> ConstraintSystem:
    """Fixed-point-free permutations: trace(X) = 0."""
    row = ConstraintRow.make({var_index(i, i, n): 1 for i in range(1, n + 1)}, Relation.EQ, 0)
    return ConstraintSystem(n, (row,))


def involution(n: int) -> ConstraintSystem:
    """Self-inverse permutations: X = X^T, one row per entry pair below the diagonal."""
    rows = []
    for i in range(2, n + 1):
        for j in range(1, i):
            rows.append(
                ConstraintRow.make(
                    {var_index(i, j, n): 1, var_index(j, i, n): -1}, Relation.EQ, 0
                )
            )
    return ConstraintSystem(n, tuple(rows))


def pure_involution(n: int) -> ConstraintSystem:
    """Fixed-point-free involutions: symmetry rows plus the zero-trace row."""
    rows = derangement(n).rows + involution(n).rows
    return ConstraintSystem(n, rows)


def transposition(n: int, with_symmetry: bool = False) -> ConstraintSystem:
    """Permutations exchanging exactly one pair: trace(X) = n - 2.

    The trace row alone admits fractional vertices; ``with_symmetry`` adds the
    (redundant on permutations) symmetry rows that cut them off.
    """
    rows = [
        ConstraintRow.make(
            {var_index(i, i, n): 1 for i in range(1, n + 1)}, Relation.EQ, n - 2
        )
    ]
    if with_symmetry:
        rows.extend(involution(n).rows)
    return ConstraintSystem(n, tuple(rows))


def cyclic(n: int) -> ConstraintSystem:
    """Powers of the long cycle: every entry equals its diagonal-shifted successor.

    For each start entry (a, 1) the successor map (i, j) -> (i mod n + 1,
    j mod n + 1) walks one shifted diagonal; chaining consecutive entries gives
    n - 1 rows per diagonal.  The cycle-closing row is implied and omitted.
    """
    rows = []
    for a in range(1, n + 1):
        i, j = a, 1
        for _ in range(n - 1):
            ni, nj = i % n + 1, j % n + 1
            rows.append(
                ConstraintRow.make(
                    {var_index(i, j, n): 1, var_index(ni, nj, n): -1}, Relation.EQ, 0
                )
            )
            i, j = ni, nj
    return ConstraintSystem(n, tuple(rows))


def repetition(n: int, eta: int) -> ConstraintSystem:
    """Block-diagonal repetitions diag(Y, ..., Y) of a permutation Y of degree n/eta.

    Every entry of every off-diagonal block is forced to zero, and each
    diagonal block (t, t), t >= 2, is tied entrywise to block (1, 1).
    """
    if eta < 1 or n % eta != 0:
        raise ValueError(f"eta={eta} must divide the degree n={n}")
    beta = n // eta
    rows = []
    for bi in range(eta):
        for bj in range(eta):
            if bi == bj:
                continue
            for u in range(1, beta + 1):
                for v in range(1, beta + 1):
                    rows.append(
                        ConstraintRow.make(
                            {var_index(bi * beta + u, bj * beta + v, n): 1},
                            Relation.EQ,
                            0,
                        )
                    )
    for t in range(2, eta + 1):
        off = (t - 1) * beta
        for u in range(1, beta + 1):
            for v in range(1, beta + 1):
                rows.append(
                    ConstraintRow.make(
                        {
                            var_index(off + u, off + v, n): 1,
                            var_index(u, v, n): -1,
                        },
                        Relation.EQ,
                        0,
                    )
                )
    return ConstraintSystem(n, tuple(rows))


def _block_column_strip(k: int, b: int, l: int, nu: int, n: int) -> list[tuple[int, int]]:
    """Entries of the l-th column inside block (k, b) of a nu-partitioned matrix."""
    col = (b - 1) * nu + l
    return [((k - 1) * nu + u, col) for u in range(1, nu + 1)]


def block(n: int, nu: int, redundant: bool = False) -> ConstraintSystem:
    """Block permutation matrices with nu-by-nu blocks.

    For every block position (k, b) and every in-block column l, the skewed
    set made of that column strip together with the cyclically-next column
    strip of all other block rows in block column b must sum to one.  With
    ``redundant`` the transposed family (same construction on rows) is added;
    it does not change the satisfying permutations but removes fractional
    vertices.
    """
    if nu < 1 or n % nu != 0:
        raise ValueError(f"nu={nu} must divide the degree n={n}")
    gamma = n // nu
    base_rows = []
    for b in range(1, gamma + 1):
        for k in range(1, gamma + 1):
            for l in range(1, nu + 1):
                entries = list(_block_column_strip(k, b, l, nu, n))
                nxt = l % nu + 1
                for kk in range(1, gamma + 1):
                    if kk != k:
                        entries.extend(_block_column_strip(kk, b, nxt, nu, n))
                base_rows.append(
                    ConstraintRow.make(
                        {var_index(i, j, n): 1 for i, j in entries}, Relation.EQ, 1
                    )
                )
    rows = list(base_rows)
    if redundant:
        for r in base_rows:
            flipped = {}
            for p, c in r.coeffs:
                i, j = var_entry(p, n)
                flipped[var_index(j, i, n)] = c
            rows.append(ConstraintRow.make(flipped, r.relation, r.rhs))
    return ConstraintSystem(n, _canon(rows))


def is_block_permutation(x: PermutationMatrix, nu: int) -> bool:
    """Direct structural test: every block column hits exactly one block row."""
    n = x.n
    if nu < 1 or n % nu != 0:
        raise ValueError(f"nu={nu} must divide the degree n={n}")
    for b0 in range(0, n, nu):
        rows = {(x.perm[j] - 1) // nu for j in range(b0, b0 + nu)}
        if len(rows) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Random sparse ensemble
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseBinaryMatrix:
    """m rows over n^2 columns, each row holding exactly two ones."""

    width: int
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for p1, p2 in self.rows:
            if not (1 <= p1 < p2 <= self.width):
                raise ValueError(f"row positions ({p1}, {p2}) invalid for width {self.width}")

    @property
    def m(self) -> int:
        return len(self.rows)


def sample_ensemble(n: int, m: int, rng: np.random.Generator) -> SparseBinaryMatrix:
    """Draw each row as a uniform 2-subset of the n^2 positions, independently."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    width = n * n
    if width < 2:
        raise ValueError("need at least two positions to draw a pair")
    draws = rng.integers(1, width + 1, size=(m, 2))
    bad = draws[:, 0] == draws[:, 1]
    while bad.any():
        draws[bad, 1] = rng.integers(1, width + 1, size=int(bad.sum()))
        bad = draws[:, 0] == draws[:, 1]
    draws.sort(axis=1)
    return SparseBinaryMatrix(width, tuple(map(tuple, draws.tolist())))


def theta(a: SparseBinaryMatrix, n: int) -> ConstraintSystem:
    """Homogeneous system A' vec(X) = 0 where each row negates its first one.

    The smaller-indexed position of each row gets coefficient -1, the larger
    +1, so every row asserts equality of two matrix entries.
    """
    if a.width != n * n:
        raise ValueError(f"matrix width {a.width} does not match degree {n}")
    rows = tuple(
        ConstraintRow.make({p1: -1, p2: 1}, Relation.EQ, 0) for p1, p2 in a.rows
    )
    return ConstraintSystem(n, rows)


@functools.lru_cache(maxsize=16)
def _entry_choices(n: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Field width of n! and, per 0-based entry i*n + j, the (state bits,
    entries set, weight shift) of setting that one entry, as
    :func:`_pair_weight_histogram` encodes them."""
    width = math.factorial(n).bit_length()
    return width, tuple(
        ((1 << (e // n)) | (1 << (n + e % n)), 1, width * (e // n != e % n))
        for e in range(n * n)
    )


def _pair_weight_histogram(pairs: Iterable[tuple[int, int]], n: int) -> list[int]:
    """Weight histogram of the permutations that satisfy every pair tie.

    ``pairs`` holds 1-based position pairs (the rows of a
    :class:`SparseBinaryMatrix`), each asserting vec(X)[p1] == vec(X)[p2].
    Entry w counts the satisfying permutations that displace w positions:
    the bincount of ``satisfies_mask(theta(a, n), permutation_table(n))`` by
    weight, without the table.

    Tied entries form union-find groups, and a permutation matrix holds each
    group all ones or all zeros.  A group with two entries in one row or one
    column can only be zero, so none of its entries is ever chosen; every
    other group is chosen whole.  A dynamic program over states (rows used,
    columns assigned) fills the lowest unassigned column with a free entry
    or a whole group.  Each state carries its partial permutations counted by
    weight, packed into one integer with one field of n!'s bit length per
    weight, so a shift adds weight and a sum adds counts.
    """
    parent = list(range(n * n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    touched = set()
    for p1, p2 in pairs:
        touched.update((p1 - 1, p2 - 1))
        parent[find(p1 - 1)] = find(p2 - 1)
    groups: dict[int, list[int]] = {}
    for e in touched:
        groups.setdefault(find(e), []).append(e)

    # A state is one integer: bit i for row i used, bit n + j for column j
    # assigned.  options[bit of column j] lists the (state bits, entries set,
    # weight shift) of every way to fill column j: an untied entry, or a
    # whole group whose first column is j (once that column is filled, the
    # group can no longer be placed).
    width, free = _entry_choices(n)
    top = 1 << n
    options = {
        top << j: [free[e] for e in range(j, n * n, n) if e not in touched] for j in range(n)
    }
    for members in groups.values():
        bits = shift = 0
        for e in members:
            bits |= free[e][0]
            shift += free[e][2]
        # Distinct rows and columns leave two state bits per entry.
        if bits.bit_count() == 2 * len(members):
            cols = bits >> n
            options[(cols & -cols) << n].append((bits, len(members), shift))

    levels: list[dict[int, int]] = [{} for _ in range(n + 1)]
    levels[0][0] = 1
    for k in range(n):
        for key, val in levels[k].items():
            # (key + top) & ~key is the bit of the lowest unassigned column.
            for bits, placed, shift in options[(key + top) & ~key]:
                if not key & bits:
                    nxt = levels[k + placed]
                    new = key | bits
                    nxt[new] = nxt.get(new, 0) + (val << shift)
    packed = levels[n].get((top << n) - 1, 0)
    field = (1 << width) - 1
    return [(packed >> (w * width)) & field for w in range(n + 1)]
