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
from typing import Iterable, Sequence

import numpy as np

from .codebook import Code
from .perm import PermutationMatrix
from .polytope import RationalMatrix, VertexSet, _lp_args, pairwise_terms


def q_function(x: float) -> float:
    """Upper tail of the standard normal, via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _ml_args(code: Code, sigma: float, starts: np.ndarray):
    """ML term arguments d / (2 sigma), inf on own pairs (b / d is 0/0 for a singular code)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    for _, d, own in pairwise_terms(code.codewords, starts):
        yield np.divide(d, 2.0 * sigma, out=np.full_like(d, np.inf), where=~own)


def lp_union_bound(
    x: PermutationMatrix | RationalMatrix,
    vs: VertexSet,
    s: Sequence[float],
    sigma: float,
) -> float:
    """Union bound on LP block error for transmitted matrix x over all vertices."""
    xr = x if isinstance(x, RationalMatrix) else RationalMatrix.from_permutation(x)
    if not xr.is_integral or xr not in vs.vertices:
        raise ValueError("transmitted matrix is not an integral vertex of the polytope")
    message = "vertex shares the transmitted image; bound undefined"
    start = np.array([vs.vertices.index(xr)])
    return _report("lp", _lp_args(vs, s, sigma, start, message)).values[0]


def ml_union_bound(x: PermutationMatrix, code: Code, sigma: float) -> float:
    """Union bound on ML block error for transmitted matrix x over codewords."""
    k = code.find(x)
    if k is None:
        raise ValueError("transmitted matrix is not in the code")
    return _report("ml", _ml_args(code, sigma, np.array([k]))).values[0]


@dataclass(frozen=True)
class BoundReport:
    """Bound value per code matrix plus the single largest pairwise term."""

    kind: str
    values: tuple[float, ...]
    max_pair: tuple[int, int]  # (transmitted index, competitor index), 1-based


def _report(kind: str, chunks: Iterable[np.ndarray]) -> BoundReport:
    """Row sums of Q(args), one erfc per distinct argument; max_pair is the first largest term."""
    values: list[float] = []
    worst = (0.0, (1, 1))
    for args in chunks:
        distinct, inverse = np.unique(args, return_inverse=True)
        terms = np.array([q_function(a) for a in distinct.tolist()])[inverse].reshape(args.shape)
        r, t = divmod(int(terms.argmax()), terms.shape[1])
        if terms[r, t] > worst[0]:
            worst = (terms[r, t], (len(values) + r + 1, t + 1))
        values.extend(terms.sum(axis=1).tolist())
    return BoundReport(kind, tuple(values), worst[1])


def lp_bound_report(vs: VertexSet, s: Sequence[float], sigma: float) -> BoundReport:
    """Per-codeword LP union bounds across all integral vertices of vs."""
    starts = np.flatnonzero(vs.integral_mask)
    if not starts.size:
        raise ValueError("polytope has no integral vertices")
    return _report("lp", _lp_args(vs, s, sigma, starts, "vertices share an image; bound undefined"))


def ml_bound_report(code: Code, sigma: float) -> BoundReport:
    """Per-codeword ML union bounds."""
    if len(code) < 2:
        raise ValueError("need at least two codewords")
    return _report("ml", _ml_args(code, sigma, np.arange(len(code))))


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
