"""Exact vertex enumeration of code polytopes.

The code polytope is the set of doubly stochastic matrices satisfying the
constraint rows.  The enumerator reads the compiled system that LP decoding
reads too (``permlp.lp._code_polytope``): its standard form (the presolved
rows plus one slack per <= row) and its method.  Vertices are exact rationals
sorted by their row-major entries, and every method returns the same list.

* Face, row and cuts: nothing is merged, and no row (face), one row (row)
  or more (cuts) is left beside the Birkhoff rows.  Without a row the
  polytope is the face of the Birkhoff polytope whose fixed entries are
  zero, so its vertices are its permutation matrices (Birkhoff-von Neumann).
  Each row left then cuts the polytope in turn, by the double description
  method: the vertices on the row (for a <= row, also those inside it)
  stay, and the row adds the point where it crosses each edge [u, v] whose
  ends lie strictly on opposite sides.  The face's permutations P and Q
  span an edge iff P^-1 Q is a single cycle (Brualdi & Gibson, "Convex
  polyhedra of doubly stochastic matrices I", J. Combin. Theory A, 1977);
  after the first cut, two vertices span an edge iff no third vertex is
  zero wherever both are (Fukuda & Prodon, "Double description method
  revisited", 1996).  Vertices are exact integer numerators over one
  denominator throughout, so no float decides anything.
* Symmetric: only the Birkhoff rows are left, and the presolve merged each
  off-diagonal entry with its transpose only, with the diagonal all free or
  all fixed at zero (involution, pure involution).  The polytope is the
  symmetric doubly stochastic matrices, whose vertices are (P + P^T) / 2
  over the permutations P whose cycles have length 2 or odd length, one
  matrix per pair of orientations of a cycle, with fixed points only where
  the diagonal is free (Katz, "On the extreme points of a certain convex
  polytope", J. Combin. Theory, 1970; Balinski, 1965, for the zero diagonal).
* Screen: every other system, that is, one with merged entries that is
  not symmetric, or one the presolve finds inconsistent (no vertex).  Its
  independent rows are kept and every column basis is walked; the basic
  feasible solutions are the vertices.

The screen is a batched floating-point prefilter over candidate bases.  The
selected rows stay integral, so a basis determinant is an integer: the float
determinant cleanly separates singular bases, and generously-tolerant
feasibility screening only discards bases whose exact solution would be
clearly negative.  Both assume small row entries: with entries of 2^40 and
more the prefilter can discard a vertex's basis or merge two vertices' float
solutions.  Every surviving candidate is re-solved exactly by
``_gauss_jordan``, a fraction-free (Bareiss) elimination on Python ints that
also picks the independent rows; a vertex's Fractions are built once, from
its integer numerators over their common denominator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .constraints import ConstraintSystem
from .lp import _check_scale, _code_polytope
from .perm import PermutationMatrix

# Prefilter tolerances.  Basis determinants are integers, so |det| >= 0.5
# separates singular from nonsingular exactly; solution screening keeps any
# basis whose float solution is above -1e-7 (exact negatives at these sizes
# are far larger), and candidates group by their solution rounded to 1e-9.
_DET_TOL = 0.5
_FEAS_TOL = -1e-7
_GROUP_DECIMALS = 9

# Bases screened per vectorized batch; each batch holds this many rank-by-rank
# float matrices, so the batch size bounds the screen's working memory.
_SCREEN_CHUNK = 4096

# Permutation pairs tested for adjacency per vectorized batch.
_EDGE_CHUNK = 1 << 16

# Vertex pairs times vertices per batch of _adjacent's containment test: an
# 8 MB array of words, one zero-set word at a time.
_ADJACENCY_CHUNK = 1 << 20

# _adjacent's containment tests (one vertex pair against one zero-set word of
# one vertex) that cost as much as the screen's test of one basis: 1.3-1.7
# ns per test against 1.6 us per basis of the fixpair5 screen (3,268,760
# bases), on one core of a shared 2-core Xeon.
_TESTS_PER_UNIT = 1000

# Start rows times images per pairwise_terms chunk.  The kernel holds a chunk
# in (rows, images) float arrays of 128 KB each at any n: d, one column of
# differences and, for LP spectra, b; the sorts that follow add a few more.
# Spectrum times on a shared 2-core Xeon, best of seven, at 4,096 / 16,384 /
# 32,768 / 65,536: 5.8 / 4.4 / 4.5 / 4.6 ms for the 384-word block(8, 2,
# redundant) ML spectrum, 101 / 87 / 86 / 88 ms for the LP spectrum of the
# 6,456 vertices of X11 + X66 = 1 at n = 6.
_PAIR_CHUNK = 16_384

# Pairs whose spectra one code or vertex set keeps: an index of one byte each
# while a chunk has under 256 distinct keys, as the acceptance codes do, plus
# the keys.  A request past it streams through the kernel on every call.
_MEMO_PAIRS = 1 << 22

DEFAULT_BASIS_BUDGET = 6_000_000


def _as_floats(entries: list[Fraction]) -> np.ndarray:
    """Entries in [0, 1] as a float array, each equal to float(entry).

    float(Fraction) rounds numerator / denominator once, as numpy's division
    does while both convert to floats exactly, that is, up to 2^53; an entry
    in [0, 1] has its numerator at most its denominator.  Past that, the
    entries convert one by one.
    """
    den = [e.denominator for e in entries]
    if max(den, default=1) > 1 << 53:
        return np.array([float(e) for e in entries], dtype=float)
    return np.array([e.numerator for e in entries], dtype=float) / np.array(den, dtype=float)


@dataclass(frozen=True)
class RationalMatrix:
    """Exact doubly stochastic matrix with Fraction entries."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise ValueError("entries must form a square matrix")
        # Sums in integers over one common denominator: Fraction sums are slow.
        scale = math.lcm(*(e.denominator for row in self.entries for e in row))
        scaled = [[e.numerator * (scale // e.denominator) for e in row] for row in self.entries]
        if any(v < 0 for row in scaled for v in row):
            raise ValueError("entries must be nonnegative")
        if any(sum(row) != scale for row in scaled):
            raise ValueError("row sums must equal one exactly")
        if any(sum(col) != scale for col in zip(*scaled)):
            raise ValueError("column sums must equal one exactly")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_permutation(cls, x: PermutationMatrix) -> "RationalMatrix":
        n = x.n
        return cls(
            tuple(
                tuple(Fraction(1 if x.perm[j] == i + 1 else 0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self.entries for e in row)

    def to_permutation(self) -> PermutationMatrix:
        if not self.is_integral:
            raise ValueError("matrix is fractional")
        return PermutationMatrix.from_dense(self.to_float().astype(np.int8))

    def to_float(self) -> np.ndarray:
        return _as_floats([e for row in self.entries for e in row]).reshape(self.n, self.n)

    def image(self, s: Sequence[float]) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.shape != (self.n,):
            raise ValueError("vector length does not match degree")
        return self.to_float() @ s


@dataclass(frozen=True)
class VertexSet:
    """All vertices of one code polytope, deterministically ordered.

    ``stats`` records the work of :func:`enumerate_vertices`: the ``method``
    that ran ("face", "row", "cuts", "symmetric" or "screen") and the
    entries its presolve fixed at zero and merged into another.  The screen
    adds column bases in total, nonsingular and feasible in floats, and
    solved exactly.  The face, row and cuts methods add the ``candidates``
    (the face's permutations plus every crossing of a row with an edge),
    the vertex ``pairs`` across each row, summed over the rows, and the
    vertices left after the last row (``feasible``).  The symmetric method
    adds the vertices its generating function ``counted``.
    It is None for a set built by hand.
    """

    n: int
    vertices: tuple[RationalMatrix, ...]
    stats: Optional[dict[str, int | str]] = field(default=None, compare=False)

    @cached_property
    def integral_mask(self) -> np.ndarray:
        """Whether each vertex is integral, in vertex order."""
        return np.array([v.is_integral for v in self.vertices], dtype=bool)

    @cached_property
    def float_stack(self) -> np.ndarray:
        """(len, n, n) float array of the vertices, built on first use."""
        entries = [e for v in self.vertices for row in v.entries for e in row]
        return _as_floats(entries).reshape(-1, self.n, self.n)

    @property
    def integral(self) -> tuple[RationalMatrix, ...]:
        return tuple(v for v, i in zip(self.vertices, self.integral_mask) if i)

    @property
    def fractional(self) -> tuple[RationalMatrix, ...]:
        return tuple(v for v, i in zip(self.vertices, self.integral_mask) if not i)

    def images(self, s: Sequence[float]) -> np.ndarray:
        """(len, n) array whose row k is the image of vertex k."""
        if np.shape(s) != (self.n,):
            raise ValueError("vector length does not match degree")
        return self.float_stack @ np.asarray(s, dtype=float)

    def __len__(self) -> int:
        return len(self.vertices)

    def __reduce__(self):
        # Pickle the fields only; cached arrays and pair spectra are rebuilt.
        return (VertexSet, (self.n, self.vertices, self.stats))


class BasisBudgetError(ValueError):
    """Vertex enumeration would exceed its work budget (``max_bases``)."""


class SharedImageError(ValueError):
    """Two matrices share an image under s: their pseudo distance is undefined."""


def _gauss_jordan(mat: list[list[int]], rhs: list[int]):
    """Fraction-free Gauss-Jordan elimination of mat @ x = rhs, column by column.

    Each column pivots on the first row at or below the pivots so far that
    is nonzero there, if any, swapped up into place.  Every other row then
    becomes (p * row - row[col] * pivot row) / q, with p the new pivot and q
    the one before it (1 at first): Bareiss's integer-preserving step (Math.
    Comp., 1968), whose divisions are exact, so the rows stay Python ints.
    Returns ``(pivots, rows, den)``: the (row of ``mat``, column) pivot pairs
    in column order, the reduced integer rows with the rhs last, row k
    holding pivot k, and their common denominator, the last pivot (1 with
    no pivot).  Row k over ``den`` is the Gauss-Jordan row of pivot k, so
    x at pivot k's column is rows[k][-1] / den.  Returns None when a row
    left without a pivot has a nonzero rhs.
    """
    a = [[*row, b] for row, b in zip(mat, rhs)]
    origin = list(range(len(a)))
    pivots = []
    den = 1
    for col in range(len(mat[0])):
        k = len(pivots)
        piv = next((i for i in range(k, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[k], a[piv] = a[piv], a[k]
        origin[k], origin[piv] = origin[piv], origin[k]
        top = a[k]
        p = top[col]
        for i, row in enumerate(a):
            if i == k:
                continue
            f = row[col]
            if f:
                a[i] = [(p * x - f * y) // den for x, y in zip(row, top)]
            elif p != den:
                a[i] = [p * x // den for x in row]
        pivots.append((origin[k], col))
        den = p
    # Every row without a pivot is now zero but for its rhs.
    if any(row[-1] for row in a[len(pivots):]):
        return None
    return pivots, a, den


def enumerate_vertices(
    cs: ConstraintSystem, n: int, max_bases: int = DEFAULT_BASIS_BUDGET
) -> VertexSet:
    """Enumerate every vertex of the code polytope of (cs, n) exactly.

    ``max_bases`` bounds the work; past it BasisBudgetError is raised before
    the work starts.  The screen charges one unit per column basis.  The
    face, row and cuts methods charge n^2 per permutation of the face and
    per crossing, one per permutation pair across the first row, and, for
    each later row, its pairs times the vertices times their zero-set words
    over ``_TESTS_PER_UNIT``; the symmetric method charges n^2 per vertex it
    counts.  Each checks before it builds any Fraction.
    """
    if cs.n != n:
        raise ValueError("constraint system degree does not match n")
    polytope = _code_polytope(cs)
    method = polytope.method
    walk = {"screen": _screen, "symmetric": _symmetric}.get(method, _structured)
    vertices, stats = walk(n, polytope, max_bases)
    return VertexSet(n, vertices, {"method": method, **stats})


def _flat(vertex: RationalMatrix) -> tuple[Fraction, ...]:
    """A vertex's entries in row-major order, the key vertex lists are sorted by."""
    return tuple(itertools.chain.from_iterable(vertex.entries))


def _combinations(width: int, rank: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the lexicographic table of rank-subsets of range(width).

    Row r is the r-th tuple of itertools.combinations(range(width), rank),
    read off the combinatorial number system: with M = C(width, rank) - 1 - r
    = C(d_1, rank) + C(d_2, rank - 1) + ... + C(d_rank, 1), d_1 > ... > d_rank
    >= 0 taken greedily, the subset is width - 1 - d_1 < ... < width - 1 -
    d_rank.  The binomials are capped at C(width, rank), above every M.
    """
    total = math.comb(width, rank)
    m = np.arange(total - 1 - lo, total - 1 - hi, -1, dtype=np.int64)
    out = np.empty((len(m), rank), dtype=np.intp)
    for i in range(rank):
        table = np.array([min(math.comb(d, rank - i), total) for d in range(width)], dtype=np.int64)
        d = table.searchsorted(m, side="right") - 1
        m -= table[d]
        out[:, i] = width - 1 - d
    return out


def _solve_batch(mats: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sols, refused)``: mats[k] @ sols[k] = b in floats, and where LAPACK refused.

    The batch is solved in one call.  Should LAPACK call one of its matrices
    singular, which it can do to a matrix whose float determinant passed
    ``_DET_TOL`` when the row entries are large, the batch is solved one
    matrix at a time instead, and each refused matrix's row reads NaN.
    """
    refused = np.zeros(len(mats), dtype=bool)
    try:
        sols = np.linalg.solve(mats, np.broadcast_to(b[:, None], (*mats.shape[:2], 1)).copy())
        return sols[:, :, 0], refused
    except np.linalg.LinAlgError:
        pass
    sols = np.full(mats.shape[:2], np.nan)
    for k, mat in enumerate(mats):
        try:
            sols[k] = np.linalg.solve(mat, b)
        except np.linalg.LinAlgError:
            refused[k] = True
    return sols, refused


def _screen(n: int, polytope, max_bases: int):
    """Vertices of any code polytope by a basis walk of its standard form: ``(vertices, stats)``.

    Every C(width, rank) column basis is screened in floats, and each
    distinct candidate solution is re-solved exactly in integers, as is each
    basis that LAPACK refuses to solve in floats.
    """
    stats = dict.fromkeys(("bases", "nonsingular", "feasible", "solved"), 0)
    stats.update(fixed=polytope.fixed, merged=polytope.merged)
    if polytope.std is None:
        return (), stats
    # The Birkhoff rows always survive the presolve, so the system keeps at
    # least one row and one column.  Its entries are integers.
    columns, rows, rhs, _ = polytope.std
    reduced = _gauss_jordan(rows.astype(np.int64).tolist(), rhs.astype(np.int64).tolist())
    if reduced is None:
        return (), stats
    kept = sorted(r for r, _ in reduced[0])
    rank, width = len(kept), rows.shape[1]
    total = stats["bases"] = math.comb(width, rank)
    if total > max_bases:
        raise BasisBudgetError(
            f"{total} bases exceed the budget of {max_bases}; raise max_bases"
        )

    a_exact = rows[kept].astype(np.int64)
    b_exact = rhs[kept].astype(np.int64).tolist()
    at_float = np.ascontiguousarray(rows[kept].T)  # (width, rank)
    b_float = rhs[kept]

    candidates: dict[bytes | tuple, list[int]] = {}
    for lo in range(0, total, _SCREEN_CHUNK):
        combos = _combinations(width, rank, lo, min(lo + _SCREEN_CHUNK, total))
        mats = at_float[combos]  # (B, rank, rank); row k is column combos[:, k]
        dets = np.linalg.det(mats)
        nonsing = np.abs(dets) >= _DET_TOL
        nb = int(nonsing.sum())
        stats["nonsingular"] += nb
        if not nb:
            continue
        sols, refused = _solve_batch(mats[nonsing].transpose(0, 2, 1), b_float)
        if refused.any():  # solved exactly, unscreened
            for cols in combos[nonsing][refused].tolist():
                candidates.setdefault(tuple(cols), cols)
        feas = sols.min(axis=1) >= _FEAS_TOL  # False on refused rows, which read NaN
        stats["feasible"] += int(feas.sum())
        if not np.any(feas):
            continue
        good_combos = combos[nonsing][feas]
        full = np.zeros((good_combos.shape[0], width), dtype=float)
        np.put_along_axis(full, good_combos, sols[feas], axis=1)
        keys = np.round(full, _GROUP_DECIMALS)
        keys[keys == 0.0] = 0.0  # normalize -0.0
        # The block's distinct keys, each with its first basis, in block order.
        # Rows compare as bytes: np.unique(axis=0) sorts them field by field,
        # about 9x slower on these blocks.
        keys = keys.view(np.dtype((np.void, keys.itemsize * width)))[:, 0]
        first = np.sort(np.unique(keys, return_index=True)[1])
        for key, cols in zip(keys[first].tolist(), good_combos[first].tolist()):
            candidates.setdefault(key, cols)

    stats["solved"] = len(candidates)
    verts: dict[tuple, RationalMatrix] = {}
    for cols in candidates.values():
        solved = _gauss_jordan(a_exact[:, cols].tolist(), b_exact)
        if solved is None or len(solved[0]) < rank:  # singular
            continue
        pivots, reduced, den = solved
        if any(row[-1] * den < 0 for row in reduced):  # some x = row[-1] / den < 0
            continue
        values = [Fraction(0)] * (width + 1)  # the last slot reads 0 for fixed entries
        for (_, k), row in zip(pivots, reduced):
            values[cols[k]] = Fraction(row[-1], den)
        vertex = RationalMatrix(
            tuple(tuple(values[columns[i * n + j]] for j in range(n)) for i in range(n))
        )
        verts.setdefault(_flat(vertex), vertex)
    return tuple(verts[k] for k in sorted(verts.keys())), stats


def _permutations(allowed: np.ndarray, cap: int) -> Optional[np.ndarray]:
    """Every permutation supported on ``allowed``, or None when there are more than cap.

    Row k of the result holds the column of each matrix row's one.  Rows
    fill in order, and the completions of each set of used columns are
    counted once; the count refuses past cap before anything is listed, and
    the listing never enters a branch without a completion.
    """
    n = len(allowed)
    options = [np.flatnonzero(r).tolist() for r in allowed]
    completions = {(1 << n) - 1: 1}

    def count(used: int, i: int) -> int:
        if used not in completions:
            total = 0
            for j in options[i]:
                if not used >> j & 1:
                    total += count(used | 1 << j, i + 1)
                    if total > cap:
                        break
            completions[used] = total
        return completions[used]

    if count(0, 0) > cap:
        return None
    out = np.empty((completions[0], n), dtype=np.intp)
    prefix: list[int] = []

    def fill(used: int, k: int) -> int:
        if len(prefix) == n:
            out[k] = prefix
            return k + 1
        for j in options[len(prefix)]:
            if not used >> j & 1 and completions.get(used | 1 << j):
                prefix.append(j)
                k = fill(used | 1 << j, k)
                prefix.pop()
        return k

    fill(0, 0)
    return out


def _edges(above: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b) where above[a] and below[b] span an edge of the Birkhoff polytope.

    Two permutation matrices P and Q span an edge iff P^-1 Q is a single
    cycle (Brualdi & Gibson, 1977).  For rows of columns p and q,
    sigma = inverse(p)[q] maps each row to the row that p puts in q's
    column; the pair is an edge iff the cycle through sigma's first moved
    row is as long as sigma moves rows.
    """
    m, n = below.shape
    inverse = np.argsort(above, axis=1)
    ups, downs = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    step = max(1, _EDGE_CHUNK // max(m, 1))
    for lo in range(0, len(above), step):
        sigma = inverse[lo : lo + step][:, below].reshape(-1, n)  # pair (a, b) at a * m + b
        moved = sigma != np.arange(n)
        start = moved.argmax(axis=1)
        pick = np.arange(len(sigma))
        row, length = start, np.zeros(len(sigma), dtype=np.intp)
        back = np.zeros(len(sigma), dtype=bool)
        for _ in range(n):
            row = sigma[pick, row]
            length += ~back
            back |= row == start
        a, b = np.divmod(np.flatnonzero(length == moved.sum(axis=1)), m)
        ups.append(a + lo)
        downs.append(b)
    return np.concatenate(ups), np.concatenate(downs)


def _charge(work: int, max_bases: int) -> None:
    if work > max_bases:
        raise BasisBudgetError(
            f"{work} units of work exceed the budget of {max_bases}; raise max_bases"
        )


def _adjacent(zero: np.ndarray, above: np.ndarray, below: np.ndarray):
    """Index pairs (a, b) where vertices above[a] and below[b] span an edge of the polytope.

    ``zero[k]`` marks the inequalities tight at vertex k: its zero entries
    and the slacks of the ``le`` rows it lies on.  Two vertices span an edge
    iff no third vertex is tight wherever both are (the combinatorial test
    of Fukuda & Prodon, "Double description method revisited", 1996): the
    vertices tight there are those of the least face holding both.  The
    zero sets are packed 64 to a word, and a pair is an edge iff exactly
    two vertices, its own ends, contain its common zeros.
    """
    words = np.packbits(np.pad(zero, ((0, 0), (0, -zero.shape[1] % 64))), axis=1).view(np.uint64)
    free = np.ascontiguousarray(~words.T)  # (W, vertices)
    width = len(below)
    ups, downs = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    step = max(1, _ADJACENCY_CHUNK // len(words))
    for lo in range(0, len(above) * width, step):
        a, b = np.divmod(np.arange(lo, min(lo + step, len(above) * width)), width)
        common = words[above[a]] & words[below[b]]  # (pairs, W)
        holders = np.ones((len(a), len(words)), dtype=bool)
        for word, outside in zip(common.T, free):
            holders &= (word[:, None] & outside) == 0
        edge = np.count_nonzero(holders, axis=1) == 2
        ups.append(a[edge])
        downs.append(b[edge])
    return np.concatenate(ups), np.concatenate(downs)


def _structured(n: int, polytope, max_bases: int):
    """Vertices of a Birkhoff face cut by every row the presolve left: ``(vertices, stats)``.

    The face's vertices are its permutation matrices (Birkhoff-von Neumann),
    and each row cuts the polytope so far in turn (the double description
    method).  A row keeps the vertices on it (an ``le`` row also those
    inside it) and adds the point where it crosses each edge [u, v] whose
    ends lie strictly on opposite sides.  The first row finds the face's
    edges by ``_edges``, later rows by ``_adjacent``'s zero-set test.
    Vertices are integer numerators over one reduced denominator each, so
    no step rounds; their Fractions are built once, at the end.
    ``candidates`` counts the face's permutations and every crossing,
    ``pairs`` the vertex pairs across each row, and ``feasible`` the
    vertices of the cut polytope.
    """
    columns, rows, rhs, is_eq = polytope.std
    stats = dict(candidates=0, pairs=0, feasible=0, fixed=polytope.fixed, merged=polytope.merged)
    unit = n * n
    perms = _permutations((columns >= 0).reshape(n, n), max_bases // unit)
    if perms is None:
        raise BasisBudgetError(
            f"over {max_bases // unit} permutations at {unit} units each exceed the "
            f"budget of {max_bases}; raise max_bases"
        )
    # Vertex k is num[k] / den[k], row-major; Python ints, so nothing overflows.
    ones = perms + np.arange(0, unit, n)
    num = np.zeros((len(perms), unit), dtype=object)
    np.put_along_axis(num, ones, 1, axis=1)
    den = np.ones(len(perms), dtype=object)
    live = columns >= 0
    cuts = range(2 * n, len(rows))
    zero = None  # the zero sets _adjacent reads, kept from the second cut on
    if len(cuts) > 1:
        zero = np.ones((len(perms), unit), dtype=bool)
        np.put_along_axis(zero, ones, False, axis=1)
    work = unit * len(perms)
    stats["candidates"] = len(perms)
    for k, r in enumerate(cuts):
        if not len(num):  # the rows so far leave nothing
            break
        coeffs = np.zeros(unit, dtype=object)
        coeffs[live] = rows[r, columns[live]].astype(np.int64).tolist()
        h = num.dot(coeffs) - int(rhs[r]) * den  # the row's excess, times den
        above, below, on = h > 0, h < 0, h == 0
        keep = on if is_eq[r] else ~above
        pairs = int(above.sum()) * int(below.sum())
        stats["pairs"] += pairs
        above, below = np.flatnonzero(above), np.flatnonzero(below)
        if k == 0:
            work += pairs
            _charge(work, max_bases)
            ups, downs = _edges(perms[above], perms[below])
        else:
            words = -(-zero.shape[1] // 64)  # per vertex, as _adjacent packs them
            work += -(-pairs * len(num) * words // _TESTS_PER_UNIT)
            _charge(work, max_bases)
            ups, downs = _adjacent(zero, above, below)
        work += unit * len(ups)
        _charge(work, max_bases)
        u, v = above[ups], below[downs]
        hu, hv = h[u], h[v]
        cross = hu[:, None] * num[v] - hv[:, None] * num[u]
        cross_den = hu * den[v] - hv * den[u]
        g = np.gcd.reduce(np.column_stack([cross, cross_den]), axis=1)
        if zero is not None:
            zero = np.vstack([zero[keep], zero[u] & zero[v]])
            if not is_eq[r]:  # the row's slack: zero on it, hence at every crossing
                zero = np.column_stack([zero, np.append(on[keep], np.ones(len(u), dtype=bool))])
        num = np.vstack([num[keep], cross // g[:, None]])
        den = np.concatenate([den[keep], cross_den // g])
        stats["candidates"] += len(u)
    stats["feasible"] = len(num)
    # Each distinct row of Fractions is built once and shared.
    built: dict[tuple, tuple[Fraction, ...]] = {}
    matrices = []
    for entries, d in zip(num.tolist(), den.tolist()):
        matrix = []
        for i in range(0, unit, n):
            key = (d, *entries[i : i + n])
            if key not in built:
                built[key] = tuple(Fraction(p, d) for p in entries[i : i + n])
            matrix.append(built[key])
        matrices.append(RationalMatrix(tuple(matrix)))
    # Distinct by construction: a row keeps distinct vertices, and the
    # relative interiors of distinct edges are disjoint.
    return tuple(sorted(matrices, key=_flat)), stats


def _symmetric_count(n: int, diagonal: bool) -> int:
    """Vertices of the symmetric doubly stochastic n x n matrices, zero diagonal unless ``diagonal``.

    n! [x^n] exp(x + x^2/2 + sum over odd k >= 3 of x^k / (2k)), without the
    x term for a zero diagonal: the exponent's k-th coefficient times k!
    counts the cycles on k labels up to orientation, (k - 1)! / 2 for odd
    k >= 3.  The count of degree m sums over the cycle through the lowest
    label.
    """
    cycles = [0, int(diagonal), 1] + [k % 2 * math.factorial(k - 1) // 2 for k in range(3, n + 1)]
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(math.comb(m - 1, k - 1) * cycles[k] * counts[m - k]
                          for k in range(1, m + 1)))
    return counts[n]


def _symmetric_permutations(n: int, diagonal: bool) -> np.ndarray:
    """One permutation P per symmetric vertex (P + P^T) / 2, one per row.

    Row k holds the column of each matrix row's one.  The cycle through the
    lowest unused label is a fixed point (only with ``diagonal``), a 2-cycle
    or an odd cycle, entered in the one orientation whose second label is
    below its last.
    """
    out = []
    p = list(range(n))

    def walk(free: tuple[int, ...]) -> None:
        if not free:
            out.append(p.copy())
            return
        first, rest = free[0], free[1:]
        if diagonal:
            p[first] = first
            walk(rest)
        for size in (2, *range(3, len(free) + 1, 2)):
            for others in itertools.permutations(rest, size - 1):
                if others[0] > others[-1]:
                    continue
                cycle = (first, *others)
                for a, b in zip(cycle, (*others, first)):
                    p[a] = b
                walk(tuple(v for v in rest if v not in others))

    walk(tuple(range(n)))
    return np.array(out, dtype=np.intp).reshape(-1, n)


def _symmetric(n: int, polytope, max_bases: int):
    """Vertices of the symmetric doubly stochastic matrices: ``(vertices, stats)``.

    The vertices are (P + P^T) / 2 over the permutations P whose cycles have
    length 2 or odd length, fixed points only where the diagonal is free
    (Katz, 1970; Balinski, 1965).  Their count is charged n^2 units each
    before any is listed.
    """
    diagonal = bool(polytope.std[0][0] >= 0)  # entry (1, 1) has a column: the diagonal is free
    count = _symmetric_count(n, diagonal)
    _charge(n * n * count, max_bases)
    perms = _symmetric_permutations(n, diagonal)
    ones = np.zeros((len(perms), n, n), dtype=np.int8)
    ones[np.arange(len(perms))[:, None], np.arange(n), perms] = 1
    doubled = (ones + ones.transpose(0, 2, 1)).reshape(len(perms), n * n)
    # Entries are 0, 1/2 and 1, so their doubles order the vertices as _flat does.
    doubled = doubled[np.lexsort(doubled.T[::-1])]
    # Each distinct row of Fractions is built once and shared; a row's digits
    # base 3 name it.
    values = (Fraction(0), Fraction(1, 2), Fraction(1))
    flat_rows = doubled.reshape(-1, n)
    _, first, index = np.unique(flat_rows @ 3 ** np.arange(n), return_index=True,
                                return_inverse=True)
    rows = [tuple(values[v] for v in row) for row in flat_rows[first].tolist()]
    vertices = tuple(
        RationalMatrix(tuple(rows[r] for r in matrix))
        for matrix in index.reshape(-1, n).tolist()
    )
    return vertices, dict(counted=count, fixed=polytope.fixed, merged=polytope.merged)


# ---------------------------------------------------------------------------
# Pseudo distance
# ---------------------------------------------------------------------------


def _as_rational(x) -> RationalMatrix:
    if isinstance(x, RationalMatrix):
        return x
    if isinstance(x, PermutationMatrix):
        return RationalMatrix.from_permutation(x)
    raise TypeError("expected a rational or permutation matrix")


def pseudo_distance(x, x_other, s: Sequence[float]) -> float:
    """Directional distance governing LP pairwise error, from x towards x_other.

    For two permutation matrices this halves the Euclidean distance between
    their images.
    """
    xm = _as_rational(x)
    om = _as_rational(x_other)
    if xm.n != om.n:
        raise ValueError("degree mismatch")
    _check_scale(s)
    xs = xm.image(s)
    os_ = om.image(s)
    denom = float(np.linalg.norm(os_ - xs))
    if denom < 1e-12:
        raise SharedImageError("matrices have identical images; pseudo distance undefined")
    return float((xs @ xs - os_ @ xs) / denom)


def pairwise_terms(images: np.ndarray, starts: np.ndarray,
                   with_b: bool) -> Iterator[tuple[Optional[np.ndarray], np.ndarray]]:
    """Pseudo distance parts from images[starts] to every image, in chunks of starts.

    Yields (b, d) per chunk; row r is one start x = images[starts[k]], and with
    v = images[t], d[r, t] = |v - x| and, with_b, b[r, t] = |x|^2 - v.x (else b
    is None).  Own pairs (t == starts[k]) read +inf in both, which no other pair
    reads once lp._check_scale(s) has passed.  The squared differences add up
    one column at a time in d, with no (rows, len(images), n) temporary.  The
    arrays are allocated once per call and overwritten by the next chunk.
    """
    m = len(images)
    columns = np.ascontiguousarray(images.T)
    step = max(1, _PAIR_CHUNK // m)
    d_buf = np.empty((min(step, len(starts)), m))
    diff_buf = np.empty_like(d_buf)
    b_buf = np.empty_like(d_buf) if with_b else None
    for lo in range(0, len(starts), step):
        idx = starts[lo : lo + step]
        x = images[idx]
        own = (np.arange(len(idx)), idx)
        d, diff = d_buf[: len(idx)], diff_buf[: len(idx)]
        np.square(np.subtract(columns[0], x[:, :1], out=d), out=d)
        for column, xj in zip(columns[1:], x.T[1:, :, None]):
            np.subtract(column, xj, out=diff)
            d += np.square(diff, out=diff)
        np.sqrt(d, out=d)
        d[own] = np.inf
        b = None
        if with_b:
            b = np.matmul(x, images.T, out=b_buf[: len(idx)])
            np.subtract(np.einsum("rj,rj->r", x, x)[:, None], b, out=b)
            b[own] = np.inf
        yield b, d


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, ranks)``: values' distinct entries in order, and each entry's index among them.

    As np.unique(values, return_inverse=True), by one argsort, with ranks
    shaped as values in the smallest unsigned type that fits.
    """
    flat = values.reshape(-1)
    order = flat.argsort()
    ordered = flat[order]
    step = np.empty(flat.shape, dtype=bool)
    step[0] = False
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    ranks = np.empty(values.shape, dtype=np.min_scalar_type(np.count_nonzero(step)))
    ranks.reshape(-1)[order] = np.cumsum(step, dtype=ranks.dtype)
    step[0] = True
    return ordered[step], ranks


def _chunk_spectrum(b: Optional[np.ndarray], d: np.ndarray):
    """The sigma-free part of one pairwise_terms chunk: ``(keys, inverse)``.

    ``keys`` holds the distinct d (or, with b, the distinct (b, d) pairs in
    lexicographic order) over the pairs that are not own, as a tuple of arrays;
    ``inverse`` has the chunk's shape and indexes a pair's key, or the slot
    past the last key on own pairs, in the smallest unsigned type that fits.
    Own pairs read +inf, so their key sorts last and is dropped.
    """
    if b is None:
        d_keys, inverse = _ranks(d)
        return (d_keys[:-1],), inverse
    # Ranks of b, of d, then of one int64 code per pair, which orders the
    # pairs as (b, d) does.  A float or int64 sort of a 12,912-pair chunk
    # takes 250-400 us against 1.7-2.0 ms for one sort of complex (b, d).
    b_keys, b_rank = _ranks(b)
    d_keys, d_rank = _ranks(d)
    codes, inverse = _ranks(b_rank.astype(np.int64) * len(d_keys) + d_rank)
    b_index, d_index = np.divmod(codes[:-1], len(d_keys))
    return (b_keys[b_index], d_keys[d_index]), inverse


def _pair_spectra(owner, key, images: np.ndarray, starts: np.ndarray, with_b: bool):
    """Chunk spectra of pairwise_terms(images, starts, with_b), memoized on owner.

    The memo sits in owner's ``__dict__`` beside its cached properties, so it
    is never pickled.  It is keyed by (key, chunk size, starts), where key
    names what the images depend on besides owner, and holds at most
    _MEMO_PAIRS pairs; a request that would pass that streams uncached.
    """
    memo = vars(owner).setdefault("_pair_spectra", {})
    key = (key, _PAIR_CHUNK, starts.tobytes())
    if key not in memo:
        spectra = (_chunk_spectrum(*terms) for terms in pairwise_terms(images, starts, with_b))
        held = sum(inverse.size for chunks in memo.values() for _, inverse in chunks)
        if held + len(starts) * len(images) > _MEMO_PAIRS:
            yield from spectra
            return
        memo[key] = tuple(spectra)
    yield from memo[key]


def _lp_spectra(vs: VertexSet, s: Sequence[float], starts: np.ndarray, message: str):
    """(b, d) pair spectra of vs's images under s; SharedImageError(message) on a shared one."""
    _check_scale(s)
    key = np.asarray(s, dtype=float).tobytes()
    for (b, d), inverse in _pair_spectra(vs, key, vs.images(s), starts, with_b=True):
        if (d < 1e-12).any():
            raise SharedImageError(message)
        yield (b, d), inverse


def min_pseudo_distance(vs: VertexSet, cs: ConstraintSystem, s: Sequence[float]) -> float:
    """Minimum pseudo distance from any code matrix to any other vertex."""
    if not vs.integral_mask.any():
        raise ValueError("polytope has no integral vertices")
    if len(vs) < 2:
        raise ValueError("need at least two vertices")
    if cs.n != vs.n:
        raise ValueError("degree mismatch between constraint system and vertex set")
    # Column j of an integral vertex holds its one in row rows[j].
    rows = vs.float_stack[vs.integral_mask].argmax(axis=1)
    if not _code_polytope(cs).admits(rows, np.arange(vs.n)).all():
        raise ValueError("integral vertex violates the constraint system")
    message = "two vertices share an image; pseudo distance undefined"
    starts = np.flatnonzero(vs.integral_mask)
    return min(float((b / d).min()) for (b, d), _ in _lp_spectra(vs, s, starts, message))
