"""Union bounds on block error probability and ensemble averages.

Over an AWGN channel with noise deviation sigma, the pairwise error term
towards a competitor is Q(d / sigma) with d the pseudo distance; summing over
competitors bounds the LP block error probability.  Restricting competitors
to codewords gives the classical ML union bound Q(||a|| / (2 sigma)).  The
bounds are left unclamped (they may exceed one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .codebook import Code
from .lp import _check_scale
from .perm import PermutationMatrix
from .polytope import RationalMatrix, VertexSet, _lp_spectra, _pair_spectra


def q_function(x: float) -> float:
    """Upper tail of the standard normal, via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def lp_union_bound(
    x: PermutationMatrix | RationalMatrix,
    vs: VertexSet,
    s: Sequence[float],
    sigma: float,
) -> float:
    """Union bound on LP block error for transmitted matrix x over all vertices."""
    message = "vertex shares the transmitted image; bound undefined"
    return _lp_report(vs, s, sigma, np.array([_vertex_index(x, vs)]), message).values[0]


def _vertex_index(x: PermutationMatrix | RationalMatrix, vs: VertexSet) -> int:
    """Position of x among the vertices; ValueError unless it is an integral one."""
    absent = "transmitted matrix is not an integral vertex of the polytope"
    fractional = isinstance(x, RationalMatrix) and not x.is_integral
    dense = x.to_float() if isinstance(x, RationalMatrix) else x.dense()
    if fractional or dense.shape != (vs.n, vs.n):
        raise ValueError(absent)
    # Integral vertices hold exact 0/1 floats, so one float match finds x.
    hits = np.flatnonzero(vs.integral_mask & (vs.float_stack == dense).all(axis=(1, 2)))
    if not hits.size:
        raise ValueError(absent)
    return int(hits[0])


def ml_union_bound(x: PermutationMatrix, code: Code, sigma: float) -> float:
    """Union bound on ML block error for transmitted matrix x over codewords."""
    k = code.find(x)
    if k is None:
        raise ValueError("transmitted matrix is not in the code")
    return _ml_report(code, sigma, np.array([k])).values[0]


@dataclass(frozen=True)
class BoundReport:
    """Bound value per code matrix plus the single largest pairwise term."""

    kind: str
    values: tuple[float, ...]
    max_pair: tuple[int, int]  # (transmitted index, competitor index), 1-based


def _report(kind: str, sigma: float, spectra: Iterable, arg: Callable) -> BoundReport:
    """Row sums of Q(arg(*keys)) over each chunk spectrum, one erfc per distinct argument.

    Own pairs index the slot past the keys, whose argument is inf (Q = 0).
    max_pair is the first largest term.
    """
    if not sigma > 0:  # NaN too
        raise ValueError("sigma must be positive")
    values: list[float] = []
    worst = (0.0, (1, 1))
    q: dict[float, float] = {}  # chunks of one code share most of their distances
    buf = None  # the terms of every chunk, allocated at the first, the largest
    for keys, inverse in spectra:
        # A tiny sigma overflows an argument to inf, or (below 2.5e-312, with
        # d >= 1e-12) sends sigma d to 0 and b / 0 to inf: Q = 0 either way.
        with np.errstate(over="ignore", divide="ignore"):
            distinct, index = np.unique(np.append(arg(*keys), np.inf), return_inverse=True)
        args = distinct.tolist()
        for a in args:
            if a not in q:
                q[a] = q_function(a)
        if buf is None:
            buf = np.empty(inverse.shape)
        # mode="clip" (the indices are in range) takes without a buffered copy.
        terms = np.take(np.array([q[a] for a in args])[index], inverse, out=buf[: len(inverse)],
                        mode="clip")
        r, t = divmod(int(terms.argmax()), terms.shape[1])
        if terms[r, t] > worst[0]:
            worst = (terms[r, t], (len(values) + r + 1, t + 1))
        values.extend(terms.sum(axis=1).tolist())
    return BoundReport(kind, tuple(values), worst[1])


def _lp_report(vs: VertexSet, s: Sequence[float], sigma: float, starts: np.ndarray,
               message: str) -> BoundReport:
    """LP terms Q(b / (sigma d)) from vs's integral vertices starts."""
    spectra = _lp_spectra(vs, s, starts, message)
    return _report("lp", sigma, spectra, lambda b, d: b / (sigma * d))


def _ml_report(code: Code, sigma: float, starts: np.ndarray) -> BoundReport:
    """ML terms Q(d / (2 sigma)) from codewords starts; a singular code's twins add Q(0)."""
    _check_scale(code.spec.s)
    spectra = _pair_spectra(code, None, code.codewords, starts, with_b=False)
    return _report("ml", sigma, spectra, lambda d: d / (2.0 * sigma))


def lp_bound_report(vs: VertexSet, s: Sequence[float], sigma: float) -> BoundReport:
    """Per-codeword LP union bounds across all integral vertices of vs."""
    starts = np.flatnonzero(vs.integral_mask)
    if not starts.size:
        raise ValueError("polytope has no integral vertices")
    return _lp_report(vs, s, sigma, starts, "vertices share an image; bound undefined")


def ml_bound_report(code: Code, sigma: float) -> BoundReport:
    """Per-codeword ML union bounds."""
    if len(code) < 2:
        raise ValueError("need at least two codewords")
    return _ml_report(code, sigma, np.arange(len(code)))


# ---------------------------------------------------------------------------
# Ensemble averages
# ---------------------------------------------------------------------------


def _pair_ratio(n: int) -> Fraction:
    """Probability that a uniform position pair is matched by a fixed permutation.

    A permutation matrix agrees on a pair of distinct positions when both are
    ones (C(n,2) pairs) or both are zeros (C(n^2-n, 2) pairs).
    """
    return Fraction(
        math.comb(n, 2) + math.comb(n * n - n, 2), math.comb(n * n, 2)
    )


def expected_cardinality(n: int, m: int) -> float:
    """Average number of permutations satisfying a random m-row pair ensemble."""
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    return float(math.factorial(n) * _pair_ratio(n) ** m)


def derangement_count(w: int) -> int:
    """Derangements of w symbols by the stable integer recurrence."""
    if w < 0:
        raise ValueError("w must be nonnegative")
    d = 1
    for k in range(1, w + 1):
        d = k * d + (-1) ** k
    return d


def expected_weight(n: int, m: int, w: int) -> float:
    """Average number of weight-w codewords of a random m-row pair ensemble."""
    if not 0 <= w <= n:
        raise ValueError("weight outside [0, n]")
    count = math.comb(n, w) * derangement_count(w)
    return float(count * _pair_ratio(n) ** m)


def is_group(matrices: Sequence[PermutationMatrix]) -> bool:
    """Closure under multiplication plus identity (finiteness gives inverses)."""
    if not matrices:
        return False
    pool = set(matrices)
    n = matrices[0].n
    if PermutationMatrix.identity(n) not in pool:
        return False
    return all(a @ b in pool for a in pool for b in pool)
