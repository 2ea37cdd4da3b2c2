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
from typing import Sequence

import numpy as np

from .codebook import Code
from .perm import PermutationMatrix
from .polytope import RationalMatrix, VertexSet


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
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    xr = x if isinstance(x, RationalMatrix) else RationalMatrix.from_permutation(x)
    if not xr.is_integral or xr not in vs.vertices:
        raise ValueError("transmitted matrix is not an integral vertex of the polytope")
    xs = xr.image(s)
    total = 0.0
    for v in vs.vertices:
        if v == xr:
            continue
        vi = v.image(s)
        denom = float(np.linalg.norm(vi - xs))
        if denom < 1e-12:
            raise ValueError("vertex shares the transmitted image; bound undefined")
        total += q_function(float(xs @ xs - vi @ xs) / (sigma * denom))
    return total


def ml_union_bound(x: PermutationMatrix, code: Code, sigma: float) -> float:
    """Union bound on ML block error for transmitted matrix x over codewords."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k = code.find(x)
    if k is None:
        raise ValueError("transmitted matrix is not in the code")
    words = code.codewords
    total = 0.0
    for t in range(len(words)):
        if t == k:
            continue
        d = float(np.linalg.norm(words[t] - words[k]))
        total += q_function(d / (2.0 * sigma))
    return total


@dataclass(frozen=True)
class BoundReport:
    """Bound value per code matrix plus the single largest pairwise term."""

    kind: str
    values: tuple[float, ...]
    max_pair: tuple[int, int]  # (transmitted index, competitor index), 1-based


def lp_bound_report(vs: VertexSet, s: Sequence[float], sigma: float) -> BoundReport:
    """Per-codeword LP union bounds across all integral vertices of vs."""
    integral = [(k, v) for k, v in enumerate(vs.vertices) if v.is_integral]
    if not integral:
        raise ValueError("polytope has no integral vertices")
    imgs = np.array([v.image(s) for v in vs.vertices])
    values = []
    worst = (0.0, (1, 1))
    for pos, (k, _) in enumerate(integral):
        xs = imgs[k]
        total = 0.0
        for t in range(len(vs)):
            if t == k:
                continue
            denom = float(np.linalg.norm(imgs[t] - xs))
            if denom < 1e-12:
                raise ValueError("vertices share an image; bound undefined")
            term = q_function(float(xs @ xs - imgs[t] @ xs) / (sigma * denom))
            if term > worst[0]:
                worst = (term, (pos + 1, t + 1))
            total += term
        values.append(total)
    return BoundReport("lp", tuple(values), worst[1])


def ml_bound_report(code: Code, sigma: float) -> BoundReport:
    """Per-codeword ML union bounds."""
    if len(code) < 2:
        raise ValueError("need at least two codewords")
    words = code.codewords
    values = []
    worst = (0.0, (1, 1))
    for k in range(len(words)):
        total = 0.0
        for t in range(len(words)):
            if t == k:
                continue
            term = q_function(float(np.linalg.norm(words[t] - words[k])) / (2 * sigma))
            if term > worst[0]:
                worst = (term, (k + 1, t + 1))
            total += term
        values.append(total)
    return BoundReport("ml", tuple(values), worst[1])


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
