"""AWGN channel simulation and random-ensemble experiments.

Noise is generated from a counter-based scheme: every trial owns a fresh
generator seeded by (seed, snr point index, trial index), so results are
bit-identical regardless of worker count or execution order.  The SNR of the
unit-energy-free convention used throughout is SNR_dB = 10 log10(1 / sigma^2).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds
from .codebook import CodeSpec, build_code
from .constraints import _pair_weight_histogram, sample_ensemble
from .lp import _code_polytope, _sort_certificate, lp_decode, ml_decode_detail
from .perm import BRUTE_FORCE_LIMIT, check_degree

# The ensemble path no longer calls these; they stay importable here because
# perfbench/tracing.py patches this module's lookups by name.
from .constraints import satisfies_mask, theta  # noqa: F401
from .perm import permutation_table  # noqa: F401


def sigma_from_snr_db(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 20.0)


@dataclass(frozen=True)
class SnrPoint:
    snr_db: float
    sigma: float

    @classmethod
    def from_db(cls, snr_db: float) -> "SnrPoint":
        return cls(snr_db=float(snr_db), sigma=sigma_from_snr_db(snr_db))


def awgn(x: Sequence[float], sigma: float, rng: np.random.Generator) -> np.ndarray:
    """x plus i.i.d. zero-mean Gaussian noise of standard deviation sigma."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    x = np.asarray(x, dtype=float)
    return x + rng.normal(0.0, sigma, x.shape)


@dataclass(frozen=True)
class TrialRecord:
    """Aggregated outcome of all trials at one SNR point."""

    snr_db: float
    sigma: float
    trials: int
    lp_errors: int
    lp_failures: int
    ml_errors: Optional[int]
    seed: int
    lp_certified: int = 0  # LP trials answered by the sort certificate
    solver_errors: int = 0  # LP trials whose simplex raised; counted as failures


def _trial_rng(seed: int, point: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, point, trial)))


def _simulate_point(args) -> TrialRecord:
    spec, code, snr_db, point_idx, trials, seed, decoders, transmitted = args
    sigma = sigma_from_snr_db(snr_db)
    s = np.asarray(spec.s, dtype=float)
    fixed = None if transmitted is None else np.asarray(transmitted, dtype=float)
    polytope = _code_polytope(spec.cs) if "ml" in decoders else None
    lp_errors = lp_failures = ml_errors = lp_certified = solver_errors = 0
    for t in range(trials):
        rng = _trial_rng(seed, point_idx, t)
        if fixed is None:
            sent = code.codewords[int(rng.integers(0, len(code)))]
        else:
            sent = fixed
        y = awgn(sent, sigma, rng)
        if "lp" in decoders:
            try:
                res = lp_decode(spec.cs, s, y)
            except RuntimeError:  # the simplex hit its iteration cap or drifted
                solver_errors += 1
                lp_failures += 1
                lp_errors += 1
            else:
                lp_certified += res.certified
                if not res.is_codeword:
                    lp_failures += 1
                    lp_errors += 1
                elif not np.array_equal(res.word, sent):
                    lp_errors += 1
        if "ml" in decoders:
            # A certified X* is the unique argmax of codewords @ y, so the
            # scan is needed only when the certificate does not hold.
            perm = _sort_certificate(polytope, s, y)
            if perm is None:
                _, word, _ = ml_decode_detail(code, y)
            else:
                word = np.empty(spec.n)
                word[perm] = s
            if not np.array_equal(word, sent):
                ml_errors += 1
    return TrialRecord(
        snr_db=float(snr_db),
        sigma=sigma,
        trials=trials,
        lp_errors=lp_errors,
        lp_failures=lp_failures,
        ml_errors=ml_errors if "ml" in decoders else None,
        seed=seed,
        lp_certified=lp_certified,
        solver_errors=solver_errors,
    )


def simulate_bler(
    spec: CodeSpec,
    snr_db_list: Sequence[float],
    trials_per_point: int,
    seed: int,
    decoders: Sequence[str] = ("lp", "ml"),
    transmitted: Optional[Sequence[float]] = None,
    threads: int = 1,
    limit: int = BRUTE_FORCE_LIMIT,
) -> list[TrialRecord]:
    """Monte-Carlo block error rates per SNR point.

    ``transmitted`` fixes the sent codeword; None draws uniformly per trial
    (which requires an enumerable code, as does the ML decoder).  The code is
    built once per call; worker processes receive its permutations only.
    """
    decoders = tuple(decoders)
    if not decoders or any(d not in ("lp", "ml") for d in decoders):
        raise ValueError("decoders must be a nonempty subset of {'lp', 'ml'}")
    if trials_per_point < 1:
        raise ValueError("need at least one trial per point")
    code = build_code(spec, limit)
    if transmitted is not None:
        word = np.asarray(tuple(transmitted), dtype=float)
        if word.shape != (spec.n,) or not (code.codewords == word).all(axis=1).any():
            raise ValueError("transmitted word is not a codeword of this spec")
    elif len(code) == 0:
        raise ValueError("the code is empty; nothing to transmit")
    # LP-only runs with a fixed word need the code for the check above only.
    job_code = code if "ml" in decoders or transmitted is None else None
    jobs = [
        (spec, job_code, float(db), k, trials_per_point, seed, decoders,
         None if transmitted is None else tuple(transmitted))
        for k, db in enumerate(snr_db_list)
    ]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_simulate_point, jobs))
    return [_simulate_point(j) for j in jobs]


# ---------------------------------------------------------------------------
# Random sparse ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleResult:
    """Satisfying-set sizes of sampled pair ensembles against the closed form."""

    n: int
    m: int
    samples: tuple[int, ...]
    sample_mean: float
    standard_error: float
    formula_value: float


def _ensemble_chunk(args) -> np.ndarray:
    """Histogram of each sampled system's solutions by displaced positions (weight)."""
    n, m, seed, indices, limit = args
    check_degree(n, limit)
    out = np.zeros((len(indices), n + 1), dtype=np.int64)
    for row, k in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        out[row] = _pair_weight_histogram(sample_ensemble(n, m, rng).rows, n)
    return out


def _ensemble_histograms(n, m, num_samples, seed, threads, limit) -> np.ndarray:
    """``_ensemble_chunk`` over samples 0..num_samples-1, fanned out to workers."""
    if num_samples < 1:
        raise ValueError("need at least one sample")
    check_degree(n, limit)
    indices = list(range(num_samples))
    if threads <= 1:
        return _ensemble_chunk((n, m, seed, indices, limit))
    chunks = [indices[k::threads] for k in range(threads)]
    hist = np.empty((num_samples, n + 1), dtype=np.int64)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = pool.map(_ensemble_chunk, [(n, m, seed, c, limit) for c in chunks])
        for chunk, part in zip(chunks, parts):
            hist[chunk] = part
    return hist


def _moments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the samples (axis 0); NaN errors for one."""
    k = len(counts)
    se = counts.std(axis=0, ddof=1) / np.sqrt(k) if k > 1 else np.full(counts.shape[1:], np.nan)
    return counts.mean(axis=0), se


def ensemble_experiment(
    n: int,
    m: int,
    num_samples: int,
    seed: int,
    threads: int = 1,
    limit: int = BRUTE_FORCE_LIMIT,
) -> EnsembleResult:
    """Sample satisfying-set sizes of random pair ensembles."""
    counts = _ensemble_histograms(n, m, num_samples, seed, threads, limit).sum(axis=1)
    mean, se = _moments(counts)
    return EnsembleResult(
        n=n,
        m=m,
        samples=tuple(counts.tolist()),
        sample_mean=float(mean),
        standard_error=float(se),
        formula_value=bounds.expected_cardinality(n, m),
    )


@dataclass(frozen=True)
class WeightEnsembleResult:
    """Per-weight codeword counts of sampled ensembles against the closed form."""

    n: int
    m: int
    sample_means: tuple[float, ...]  # index w = 0..n
    standard_errors: tuple[float, ...]
    formula_values: tuple[float, ...]
    num_samples: int


def ensemble_weight_experiment(
    n: int,
    m: int,
    num_samples: int,
    seed: int,
    limit: int = BRUTE_FORCE_LIMIT,
) -> WeightEnsembleResult:
    """Sample weight distributions of random pair ensembles.

    Weights are measured from the initial arrangement itself; with distinct
    initial entries the weight of a satisfying permutation is its degree minus
    its fixed-point count, so no explicit vector is needed.
    """
    means, ses = _moments(_ensemble_histograms(n, m, num_samples, seed, 1, limit))
    formula = tuple(bounds.expected_weight(n, m, w) for w in range(n + 1))
    return WeightEnsembleResult(
        n=n,
        m=m,
        sample_means=tuple(float(v) for v in means),
        standard_errors=tuple(float(v) for v in ses),
        formula_values=formula,
        num_samples=num_samples,
    )
