"""Exact vertex enumeration of code polytopes.

The code polytope is the set of doubly stochastic matrices satisfying the
constraint rows.  In standard form (one slack per <= row) its vertices are
the basic feasible solutions, so the enumerator walks every column basis of
the row-reduced system.  All reported vertices are solved, feasibility-checked
and deduplicated in exact rational arithmetic.

Two devices keep the walk tractable at desk scale:

* an integer presolve that fixes variables forced to zero by same-sign
  homogeneous rows and merges variable pairs tied by (x_a - x_b = 0) rows,
  shrinking e.g. the degree-6 fixed-point-free involution system from 36
  variables to 15;
* a batched floating-point prefilter over candidate bases.  The selected
  rows stay integral, so a basis determinant is an integer: the float
  determinant cleanly separates singular bases, and generously-tolerant
  feasibility screening only discards bases whose exact solution would be
  clearly negative.  Every surviving candidate is re-solved exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .constraints import ConstraintSystem, Relation, satisfies
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

# Start rows times images per pairwise_terms chunk: about 2 MB of float arrays at n = 8.
_PAIR_CHUNK = 16_384

DEFAULT_BASIS_BUDGET = 6_000_000


@dataclass(frozen=True)
class RationalMatrix:
    """Exact doubly stochastic matrix with Fraction entries."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise ValueError("entries must form a square matrix")
        one = Fraction(1)
        for row in self.entries:
            if any(e < 0 for e in row):
                raise ValueError("entries must be nonnegative")
            if sum(row) != one:
                raise ValueError("row sums must equal one exactly")
        for j in range(n):
            if sum(row[j] for row in self.entries) != one:
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
        return np.array([[float(e) for e in row] for row in self.entries], dtype=float)

    def image(self, s: Sequence[float]) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if s.shape != (self.n,):
            raise ValueError("vector length does not match degree")
        return self.to_float() @ s


@dataclass(frozen=True)
class VertexSet:
    """All vertices of one code polytope, deterministically ordered."""

    n: int
    vertices: tuple[RationalMatrix, ...]

    @cached_property
    def integral_mask(self) -> np.ndarray:
        """Whether each vertex is integral, in vertex order."""
        return np.array([v.is_integral for v in self.vertices], dtype=bool)

    @cached_property
    def float_stack(self) -> np.ndarray:
        """(len, n, n) float array of the vertices, built on first use."""
        return np.array([v.to_float() for v in self.vertices]).reshape(-1, self.n, self.n)

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


class BasisBudgetError(ValueError):
    """The basis walk would exceed the configured budget."""


def _presolve(
    columns: list[list[tuple[int, int]]],
    rows_rhs: list[int],
    num_rows: int,
) -> Optional[tuple[list[int], list[dict[int, int]], list[int]]]:
    """Zero-force and merge until fixpoint.

    ``columns`` maps each variable to its sparse column as (row, coeff) pairs.
    Returns (var_state, reduced_rows, reduced_rhs) where var_state[v] is -1
    for variables fixed at zero, otherwise the representative variable id, or
    None when a row became inconsistent (empty polytope).
    """
    nv = len(columns)
    # Dense row-major copy for the small systems at hand.
    rows: list[dict[int, int]] = [dict() for _ in range(num_rows)]
    for v, col in enumerate(columns):
        for r, c in col:
            rows[r][v] = c
    rhs = list(rows_rhs)
    alive_rows = [True] * num_rows
    state = list(range(nv))  # representative id, or -1 when fixed to zero

    def rep(v: int) -> int:
        while state[v] != v and state[v] != -1:
            v = state[v]
        return v if state[v] != -1 else -1

    changed = True
    while changed:
        changed = False
        for r in range(num_rows):
            if not alive_rows[r]:
                continue
            row = rows[r]
            if not row:
                if rhs[r] != 0:
                    return None
                alive_rows[r] = False
                continue
            coeffs = list(row.values())
            if rhs[r] == 0 and (all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs)):
                for v in list(row.keys()):
                    state[v] = -1
                    for rr in range(num_rows):
                        rows[rr].pop(v, None)
                alive_rows[r] = False
                changed = True
                continue
            if rhs[r] == 0 and len(row) == 2:
                (va, ca), (vb, cb) = sorted(row.items())
                if ca == -cb:
                    # x_va == x_vb: fold vb's column into va's.
                    state[vb] = va
                    for rr in range(num_rows):
                        c = rows[rr].pop(vb, None)
                        if c is not None:
                            merged = rows[rr].get(va, 0) + c
                            if merged:
                                rows[rr][va] = merged
                            else:
                                rows[rr].pop(va, None)
                    alive_rows[r] = False
                    changed = True
                    continue

    reduced_rows = [rows[r] for r in range(num_rows) if alive_rows[r]]
    reduced_rhs = [rhs[r] for r in range(num_rows) if alive_rows[r]]
    final = [rep(v) if state[v] != -1 else -1 for v in range(nv)]
    return final, reduced_rows, reduced_rhs


def _independent_rows(
    rows: list[dict[int, int]], rhs: list[int], var_ids: list[int]
) -> Optional[tuple[list[int], bool]]:
    """Select a maximal independent subset of rows by exact elimination.

    Returns (kept row indices, True) or None when some dependent row is
    inconsistent with the rest (empty polytope).
    """
    col_of = {v: k for k, v in enumerate(var_ids)}
    width = len(var_ids)
    echelon: list[tuple[list[Fraction], Fraction]] = []
    kept: list[int] = []
    for idx, row in enumerate(rows):
        vec = [Fraction(0)] * width
        for v, c in row.items():
            vec[col_of[v]] = Fraction(c)
        b = Fraction(rhs[idx])
        for evec, eb in echelon:
            pivot = next((k for k, x in enumerate(evec) if x != 0), None)
            if pivot is not None and vec[pivot] != 0:
                f = vec[pivot] / evec[pivot]
                vec = [x - f * y for x, y in zip(vec, evec)]
                b -= f * eb
        if any(x != 0 for x in vec):
            echelon.append((vec, b))
            kept.append(idx)
        elif b != 0:
            return None
    return kept, True


def _exact_solve(mat: list[list[int]], rhs: list[int]) -> Optional[list[Fraction]]:
    """Solve an integer square system exactly; None when singular."""
    r = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(r)] + [Fraction(rhs[i])] for i in range(r)]
    for col in range(r):
        piv = next((i for i in range(col, r) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for i in range(r):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][r] for i in range(r)]


def enumerate_vertices(
    cs: ConstraintSystem, n: int, max_bases: int = DEFAULT_BASIS_BUDGET
) -> VertexSet:
    """Enumerate every vertex of the code polytope of (cs, n) exactly."""
    if cs.n != n:
        raise ValueError("constraint system degree does not match n")
    nsq = n * n
    le_rows = [r for r in cs.rows if r.relation is Relation.LE]
    num_rows = 2 * n + len(cs.rows)
    nv = nsq + len(le_rows)

    # Standard form: Birkhoff equalities, then constraint rows with slacks.
    columns: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    rhs = [0] * num_rows
    for i in range(n):
        for j in range(n):
            columns[i * n + j].append((i, 1))
            columns[i * n + j].append((n + j, 1))
        rhs[i] = 1
        rhs[n + i] = 1
    slack = nsq
    for k, row in enumerate(cs.rows):
        r = 2 * n + k
        for p, c in row.coeffs:
            columns[p - 1].append((r, c))
        if row.relation is Relation.LE:
            columns[slack].append((r, 1))
            slack += 1
        rhs[r] = row.rhs

    pre = _presolve(columns, rhs, num_rows)
    if pre is None:
        return VertexSet(n, ())
    state, red_rows, red_rhs = pre

    var_ids = sorted({v for row in red_rows for v in row.keys()})
    if not var_ids:
        # Everything was forced; the polytope is empty or a single point of zeros,
        # which cannot be doubly stochastic, so the remaining rows decide.
        return VertexSet(n, ())
    sel = _independent_rows(red_rows, red_rhs, var_ids)
    if sel is None:
        return VertexSet(n, ())
    kept, _ = sel
    rank = len(kept)
    width = len(var_ids)
    if rank == 0 or rank > width:
        return VertexSet(n, ())
    total = math.comb(width, rank)
    if total > max_bases:
        raise BasisBudgetError(
            f"{total} bases exceed the budget of {max_bases}; raise max_bases"
        )

    a_exact = [[red_rows[r].get(v, 0) for v in var_ids] for r in kept]
    b_exact = [red_rhs[r] for r in kept]
    a_float = np.array(a_exact, dtype=float)
    b_float = np.array(b_exact, dtype=float)
    at_float = np.ascontiguousarray(a_float.T)  # (width, rank)

    candidates: dict[bytes, tuple[int, ...]] = {}
    comb_iter = itertools.combinations(range(width), rank)
    while True:
        block = list(itertools.islice(comb_iter, _SCREEN_CHUNK))
        if not block:
            break
        combos = np.array(block, dtype=np.int32)
        mats = at_float[combos]  # (B, rank, rank); row k is column combos[:, k]
        dets = np.linalg.det(mats)
        nonsing = np.abs(dets) >= _DET_TOL
        if not np.any(nonsing):
            continue
        nb = int(nonsing.sum())
        sols = np.linalg.solve(
            mats[nonsing].transpose(0, 2, 1),
            np.broadcast_to(b_float[:, None], (nb, rank, 1)).copy(),
        )[:, :, 0]
        feas = sols.min(axis=1) >= _FEAS_TOL
        if not np.any(feas):
            continue
        good_combos = combos[nonsing][feas]
        good_sols = sols[feas]
        full = np.zeros((good_sols.shape[0], width), dtype=float)
        np.put_along_axis(full, good_combos, good_sols, axis=1)
        keys = np.round(full, _GROUP_DECIMALS)
        keys[keys == 0.0] = 0.0  # normalize -0.0
        for k in range(good_combos.shape[0]):
            key = keys[k].tobytes()
            if key not in candidates:
                candidates[key] = tuple(int(c) for c in good_combos[k])

    verts: dict[tuple, RationalMatrix] = {}
    for cols in candidates.values():
        mat = [[a_exact[i][c] for c in cols] for i in range(rank)]
        sol = _exact_solve(mat, b_exact)
        if sol is None or any(v < 0 for v in sol):
            continue
        reduced_vals = {var_ids[c]: sol[k] for k, c in enumerate(cols)}
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                r = state[i * n + j]
                row.append(Fraction(0) if r == -1 else reduced_vals.get(r, Fraction(0)))
            entries.append(tuple(row))
        vertex = RationalMatrix(tuple(entries))
        verts.setdefault(tuple(itertools.chain.from_iterable(vertex.entries)), vertex)

    ordered = tuple(verts[k] for k in sorted(verts.keys()))
    return VertexSet(n, ordered)


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
    xs = xm.image(s)
    os_ = om.image(s)
    denom = float(np.linalg.norm(os_ - xs))
    if denom < 1e-12:
        raise ValueError("matrices have identical images; pseudo distance undefined")
    return float((xs @ xs - os_ @ xs) / denom)


def pairwise_terms(images: np.ndarray, starts: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Pseudo distance parts from images[starts] to every image, in chunks of starts.

    Yields (b, d, own) per chunk; row r is one start x = images[starts[k]], and with v =
    images[t], b[r, t] = |x|^2 - v.x, d[r, t] = |v - x| and own[r, t] = (t == starts[k]).
    """
    m = len(images)
    step = max(1, _PAIR_CHUNK // m)
    for lo in range(0, len(starts), step):
        idx = starts[lo : lo + step]
        x = images[idx]
        diff = images[None, :, :] - x[:, None, :]
        b = np.einsum("rj,rj->r", x, x)[:, None] - x @ images.T
        yield b, np.sqrt(np.einsum("rtj,rtj->rt", diff, diff)), np.arange(m) == idx[:, None]


def min_pseudo_distance(vs: VertexSet, cs: ConstraintSystem, s: Sequence[float]) -> float:
    """Minimum pseudo distance from any code matrix to any other vertex."""
    if not vs.integral_mask.any():
        raise ValueError("polytope has no integral vertices")
    if len(vs) < 2:
        raise ValueError("need at least two vertices")
    # Column j of an integral vertex holds its one in row perm[j].
    perms = vs.float_stack[vs.integral_mask].argmax(axis=1) + 1
    if not all(satisfies(cs, PermutationMatrix(tuple(p))) for p in perms.tolist()):
        raise ValueError("integral vertex violates the constraint system")
    best = math.inf
    for b, d, own in pairwise_terms(vs.images(s), np.flatnonzero(vs.integral_mask)):
        if (d[~own] < 1e-12).any():
            raise ValueError("two vertices share an image; pseudo distance undefined")
        best = min(best, float((b[~own] / d[~own]).min()))
    return best
