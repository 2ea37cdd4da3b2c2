"""Self-contained dense-tableau linear programming and LP decoding.

The solver maximizes a linear objective over { x >= 0 : rows }, rows being
sparse equality or <= constraints.  It runs the textbook two-phase simplex on
a dense numpy tableau: phase one drives artificial variables out, phase two
optimizes the real objective.  Entering columns follow the largest-reduced-
cost rule until the iteration stalls on degenerate pivots, after which the
solver switches permanently to Bland's rule, which guarantees termination.

LP decoding maximizes trace(C^T X) with C = y s^T over the code polytope
(Birkhoff rows plus the constraint system).  An integral optimum is the
maximum-likelihood codeword; a fractional optimum is a decoding failure.

A decode first tries a certificate.  When s and y have well-separated
distinct entries, the rearrangement inequality makes the sort-matching
permutation X* (the i-th smallest entry of s goes to the row of the i-th
smallest entry of y) the unique maximizer over the whole Birkhoff polytope
(Slepian, "Permutation modulation", 1965).  If X* satisfies the code's rows,
it is the unique LP optimum and the ML codeword, so no simplex runs.
Otherwise the decode falls through to the simplex.  The polytope depends on
the constraint system alone, so phase one runs once per system and is
cached; the decode starts phase two from a copy of that feasible tableau.
Phase one never reads the objective, so a fall-through makes the same
pivots, and returns the same result, as a cold two-phase solve.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .codebook import Code
from .constraints import ConstraintSystem, Relation
from .perm import PermutationMatrix, var_index

_EPS = 1e-9


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPProblem:
    """Maximize objective . x subject to sparse rows and x >= 0."""

    num_vars: int
    objective: np.ndarray
    rows: tuple[tuple[tuple[tuple[int, float], ...], Relation, float], ...]

    @classmethod
    def make(cls, num_vars, objective, rows) -> "LPProblem":
        packed = []
        for coeffs, rel, rhs in rows:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            pairs = tuple(sorted((int(p), float(c)) for p, c in items))
            if any(not 1 <= p <= num_vars for p, _ in pairs):
                raise ValueError("row references a variable outside [1, num_vars]")
            if len({p for p, _ in pairs}) != len(pairs):
                raise ValueError("duplicate variable position in constraint row")
            packed.append((pairs, rel, float(rhs)))
        obj = np.asarray(objective, dtype=float)
        if obj.shape != (num_vars,):
            raise ValueError("objective length does not match num_vars")
        return cls(num_vars, obj, tuple(packed))


@dataclass(frozen=True)
class LPSolution:
    status: LPStatus
    x: Optional[np.ndarray]
    objective_value: float


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # Rows with a zero factor would only have zero subtracted from them.
    hit = factors.nonzero()[0]
    tableau[hit] -= factors[hit, None] * pivot_row
    basis[row] = col


def _choose_leaving(tableau: np.ndarray, basis: np.ndarray, col: int, m: int):
    """Minimum-ratio row; ties broken towards the smallest basis variable."""
    column = tableau[:m, col]
    rows = (column > _EPS).nonzero()[0]
    ratios = tableau[rows, -1] / column[rows]
    best_row, best_ratio = -1, np.inf
    for r, ratio in zip(rows.tolist(), ratios.tolist()):
        if ratio < best_ratio - _EPS or (
            abs(ratio - best_ratio) <= _EPS
            and (best_row < 0 or basis[r] < basis[best_row])
        ):
            best_row, best_ratio = r, ratio
    return best_row, best_ratio


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, ncols: int, m: int) -> LPStatus:
    """Optimize the tableau in place.  Returns OPTIMAL or UNBOUNDED."""
    stall_budget = 5 * (m + ncols)
    stalled = 0
    blands = False
    max_iters = 200 * (m + ncols) + 2000
    for _ in range(max_iters):
        reduced = tableau[-1, :ncols]
        if blands:
            candidates = (reduced > _EPS).nonzero()[0]
            if candidates.size == 0:
                return LPStatus.OPTIMAL
            col = int(candidates[0])
        else:
            col = int(reduced.argmax())
            if reduced[col] <= _EPS:
                return LPStatus.OPTIMAL
        row, ratio = _choose_leaving(tableau, basis, col, m)
        if row < 0:
            return LPStatus.UNBOUNDED
        _pivot(tableau, basis, row, col)
        if ratio <= _EPS:
            stalled += 1
            if not blands and stalled > stall_budget:
                blands = True
        else:
            stalled = 0
    raise RuntimeError("simplex failed to terminate within the iteration cap")


@dataclass(frozen=True)
class _FeasibleTableau:
    """A problem's rows after phase one, ready for any objective.

    ``tableau`` holds the real and slack columns plus the rhs, with redundant
    rows dropped, the artificial columns removed (phase two keeps them at zero,
    so they never influence another entry) and a zero objective row.  ``rows``,
    ``rhs`` and ``eq`` are the problem's rows as given, for the final
    feasibility re-check.  The arrays are read-only; phase two works on copies.
    """

    tableau: np.ndarray
    basis: np.ndarray
    num_vars: int
    rows: np.ndarray
    rhs: np.ndarray
    eq: np.ndarray


def _phase_one(problem: LPProblem) -> Optional[_FeasibleTableau]:
    """A feasible basis of the problem's rows, or None when they are infeasible.

    Phase one never reads the objective.
    """
    m = len(problem.rows)
    nv = problem.num_vars

    # Assemble dense rows with rhs >= 0; flipped <= rows become >= rows.
    dense = np.zeros((m, nv), dtype=float)
    rhs = np.array([b for _, _, b in problem.rows], dtype=float)
    eq = np.array([rel is Relation.EQ for _, rel, _ in problem.rows], dtype=bool)
    for r, (coeffs, _, _) in enumerate(problem.rows):
        for p, c in coeffs:
            dense[r, p - 1] = c
    flip = rhs < 0
    kinds = ["eq" if e else ("ge" if f else "le") for e, f in zip(eq.tolist(), flip.tolist())]

    n_slack = sum(k != "eq" for k in kinds)
    n_art = sum(k != "le" for k in kinds)
    ncols = nv + n_slack + n_art
    tableau = np.zeros((m + 1, ncols + 1), dtype=float)
    tableau[:m, :nv] = np.where(flip[:, None], -dense, dense)
    tableau[:m, -1] = np.where(flip, -rhs, rhs)
    basis = np.full(m, -1, dtype=int)
    slack_at = nv
    art_at = nv + n_slack
    art_cols = []
    for r, kind in enumerate(kinds):
        if kind == "le":
            tableau[r, slack_at] = 1.0
            basis[r] = slack_at
            slack_at += 1
        elif kind == "ge":
            tableau[r, slack_at] = -1.0
            slack_at += 1
            tableau[r, art_at] = 1.0
            basis[r] = art_at
            art_cols.append(art_at)
            art_at += 1
        else:
            tableau[r, art_at] = 1.0
            basis[r] = art_at
            art_cols.append(art_at)
            art_at += 1

    keep = np.ones(m, dtype=bool)
    if art_cols:
        # Maximize -(sum of artificials).
        for c in art_cols:
            tableau[-1, c] = -1.0
        for r in range(m):
            if basis[r] >= nv + n_slack:
                tableau[-1] += tableau[r]
        status = _run_simplex(tableau, basis, ncols, m)
        if status is not LPStatus.OPTIMAL:  # pragma: no cover - bounded by construction
            raise RuntimeError("phase one cannot be unbounded")
        if tableau[-1, -1] > 1e-7:
            return None
        # Pivot lingering artificials out; a row with no real coefficient is
        # redundant and dropped.
        for r in range(m):
            if basis[r] >= nv + n_slack:
                real = np.flatnonzero(np.abs(tableau[r, : nv + n_slack]) > 1e-7)
                if real.size:
                    _pivot(tableau, basis, r, int(real[0]))
                else:
                    keep[r] = False

    tableau = np.delete(tableau[np.append(keep, True)], np.s_[nv + n_slack : -1], axis=1)
    tableau[-1] = 0.0
    basis = basis[keep]
    for a in (tableau, basis, dense, rhs, eq):
        a.setflags(write=False)
    return _FeasibleTableau(tableau, basis, nv, dense, rhs, eq)


def _phase_two(feasible: _FeasibleTableau, objective: np.ndarray) -> LPSolution:
    """Optimize the objective from the feasible basis (the tables are copied)."""
    tableau = feasible.tableau.copy()
    basis = feasible.basis.copy()
    m = basis.size
    nv = feasible.num_vars
    tableau[-1, :nv] = objective
    # Basis columns are exact unit vectors, so subtracting row r changes no
    # other basic cost: the costs read up front are the ones a sequential
    # elimination would read, and the subtractions keep their order.
    costs = tableau[-1, basis]
    for r in costs.nonzero()[0].tolist():
        tableau[-1] -= costs[r] * tableau[r]
    status = _run_simplex(tableau, basis, tableau.shape[1] - 1, m)
    if status is LPStatus.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, None, float("nan"))

    x = np.zeros(nv, dtype=float)
    real = basis < nv
    x[basis[real]] = tableau[:m, -1][real]
    value = float(objective @ x)

    # Cheap internal revalidation against drift.
    dev = feasible.rows @ x - feasible.rhs
    if np.any(np.where(feasible.eq, np.abs(dev), dev) > 1e-6):  # pragma: no cover - defensive
        raise RuntimeError("simplex returned an infeasible point")
    return LPSolution(LPStatus.OPTIMAL, x, value)


def solve(problem: LPProblem) -> LPSolution:
    """Two-phase simplex.  The optimal x is a vertex of the feasible region."""
    feasible = _phase_one(problem)
    if feasible is None:
        return LPSolution(LPStatus.INFEASIBLE, None, float("nan"))
    return _phase_two(feasible, problem.objective)


# ---------------------------------------------------------------------------
# LP decoding
# ---------------------------------------------------------------------------


def birkhoff_rows(n: int):
    """Row-sum and column-sum equalities defining doubly stochastic matrices."""
    rows = []
    for i in range(1, n + 1):
        rows.append(({var_index(i, j, n): 1.0 for j in range(1, n + 1)}, Relation.EQ, 1.0))
    for j in range(1, n + 1):
        rows.append(({var_index(i, j, n): 1.0 for i in range(1, n + 1)}, Relation.EQ, 1.0))
    return rows


def build_decoding_lp(cs: ConstraintSystem, s: Sequence[float], y: Sequence[float]) -> LPProblem:
    """Maximize trace(C^T X) = y . (X s) with C = y s^T over the code polytope."""
    n = cs.n
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.shape != (n,) or y.shape != (n,):
        raise ValueError("initial vector and received vector must have length n")
    objective = np.outer(y, s).reshape(n * n)
    rows = birkhoff_rows(n)
    for row in cs.rows:
        rows.append((dict(row.coeffs), row.relation, float(row.rhs)))
    return LPProblem.make(n * n, objective, rows)


class InfeasibleCodeError(ValueError):
    """The code polytope is empty: no doubly stochastic matrix fits the rows."""


@dataclass(frozen=True)
class DecodeResult:
    """LP decoding outcome: a codeword, or a declared failure."""

    matrix: Optional[PermutationMatrix]
    word: Optional[np.ndarray]
    fractional: Optional[np.ndarray]
    objective_value: float
    certified: bool = False  # answered by the sort certificate, no simplex

    @property
    def is_codeword(self) -> bool:
        return self.matrix is not None


# An LP optimum is treated as integral when every entry sits within this
# distance of 0 or 1; the rounded matrix is then validated exactly.
INTEGRALITY_TOL = 1e-6

# The sort certificate answers only when min gap(sorted y) * min gap(sorted s)
# exceeds this.  That product bounds from below how much worse than X* every
# other permutation is, and it sits well above what the simplex's 1e-9
# reduced-cost tolerance, summed over the n^2 entries, could let it miss, so
# the simplex would stop at X* too.
_CERT_MARGIN = 1e-6


@dataclass(frozen=True)
class _CodePolytope:
    """What LP decoding needs of a constraint system, whatever s and y are.

    ``feasible`` is phase one of the decoding LP (None when the polytope is
    empty).  ``cube`` and ``bound`` hold the system's rows as exact int64
    ``<=`` rows, each equality written as two of them: ``cube[i, j]`` is the
    column of coefficients of entry (i, j), so checking a permutation matrix
    is a gather of n entries and one comparison.
    """

    feasible: Optional[_FeasibleTableau]
    cube: np.ndarray
    bound: np.ndarray

    def admits(self, rows: np.ndarray, cols: np.ndarray) -> bool:
        """Whether the permutation matrix with ones at (rows[k], cols[k]) satisfies cs."""
        return bool((self.cube[rows, cols].sum(axis=0) <= self.bound).all())


@functools.lru_cache(maxsize=64)
def _code_polytope(cs: ConstraintSystem) -> _CodePolytope:
    n = cs.n
    # Phase one never reads the objective, so any s and y give the same basis.
    feasible = _phase_one(build_decoding_lp(cs, np.zeros(n), np.zeros(n)))
    rows = np.zeros((cs.num_rows, n * n), dtype=np.int64)
    for r, row in enumerate(cs.rows):
        for p, c in row.coeffs:
            rows[r, p - 1] = c
    rhs = np.array([row.rhs for row in cs.rows], dtype=np.int64)
    eq = np.array([row.relation is Relation.EQ for row in cs.rows], dtype=bool)
    bound = np.concatenate([rhs, -rhs[eq]])
    cube = np.ascontiguousarray(np.vstack([rows, -rows[eq]]).T.reshape(n, n, bound.size))
    for a in (cube, bound):
        a.setflags(write=False)
    return _CodePolytope(feasible, cube, bound)


def _sort_certificate(polytope: _CodePolytope, s: np.ndarray, y: np.ndarray):
    """Column-to-row map (0-based) of the sort-matching X*, or None.

    X* puts the column of the i-th smallest entry of s in the row of the i-th
    smallest entry of y.  It is returned only when it beats every other
    permutation by the margin and satisfies every row of the code exactly;
    repeated entries, near-ties and non-finite inputs return None.
    """
    order_s, order_y = s.argsort(), y.argsort()
    ss, ys = s[order_s], y[order_y]
    # NaN sorts last, so finite ends mean finite entries.
    if not np.isfinite((ys[0], ys[-1], ss[0], ss[-1])).all():
        return None
    gap = (ys[1:] - ys[:-1]).min(initial=np.inf) * (ss[1:] - ss[:-1]).min(initial=np.inf)
    if not gap > _CERT_MARGIN or not polytope.admits(order_y, order_s):
        return None
    perm = np.empty_like(order_s)
    perm[order_s] = order_y
    return perm


def lp_decode(
    cs: ConstraintSystem,
    s: Sequence[float],
    y: Sequence[float],
    tol: float = INTEGRALITY_TOL,
) -> DecodeResult:
    """LP decoding of y against the code (cs, s).

    The sort certificate is tried first: when it holds, X* is returned with
    ``certified`` set and objective y . (X* s), without a simplex.  Otherwise
    phase two runs from the phase-one basis cached per constraint system,
    which gives the same result as ``solve(build_decoding_lp(cs, s, y))``.
    The two agree on every certified input too, up to the last bits of the
    objective.
    """
    n = cs.n
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.shape != (n,) or y.shape != (n,):
        raise ValueError("initial vector and received vector must have length n")
    polytope = _code_polytope(cs)
    if polytope.feasible is None:
        raise InfeasibleCodeError("empty code polytope")
    perm = _sort_certificate(polytope, s, y)
    if perm is not None:
        x = PermutationMatrix(tuple((perm + 1).tolist()))
        word = x.apply(s)
        return DecodeResult(
            matrix=x, word=word, fractional=None, objective_value=float(y @ word), certified=True
        )
    sol = _phase_two(polytope.feasible, np.outer(y, s).reshape(n * n))
    if sol.status is not LPStatus.OPTIMAL:  # pragma: no cover - polytope is bounded
        raise RuntimeError(f"unexpected LP status {sol.status}")
    frac = sol.x.reshape(n, n)
    rounded = np.rint(frac)
    if np.max(np.abs(frac - rounded)) <= tol:
        try:
            x = PermutationMatrix.from_dense(rounded.astype(np.int8))
        except ValueError:
            x = None
        if x is not None and polytope.admits(np.array(x.perm) - 1, np.arange(n)):
            return DecodeResult(
                matrix=x,
                word=x.apply(s),
                fractional=None,
                objective_value=sol.objective_value,
            )
    return DecodeResult(
        matrix=None, word=None, fractional=frac, objective_value=sol.objective_value
    )


def ml_decode_detail(code: Code, y: Sequence[float]) -> tuple[int, np.ndarray, bool]:
    """Exhaustive ML decoding: (1-based index, codeword, tie flag).

    Every codeword c is a permutation of s, so |c - y|^2 = |s|^2 + |y|^2 - 2 c.y
    and the nearest codeword is the one with the largest inner product with y.
    Ties resolve to the lowest codeword index; the flag is set when another
    codeword is within 1e-12 in squared distance.
    """
    if len(code) == 0:
        raise ValueError("empty code")
    y = np.asarray(y, dtype=float)
    if y.shape != (code.n,):
        raise ValueError("received vector length does not match the code degree")
    g = code.codewords @ y
    k = int(np.argmax(g))
    tie = bool(np.count_nonzero(g >= g[k] - 0.5e-12) > 1)
    return k + 1, code.codewords[k].copy(), tie


def ml_decode(code: Code, y: Sequence[float]) -> np.ndarray:
    """Maximum-likelihood codeword for y under AWGN (argmin Euclidean distance)."""
    _, word, _ = ml_decode_detail(code, y)
    return word
