"""AWGN channel simulation and random-ensemble experiments.

Noise is generated from a counter-based scheme: every trial owns a fresh
generator seeded by (seed, snr point index, trial index), so results are
bit-identical regardless of worker count or execution order.  The SNR of the
unit-energy-free convention used throughout is SNR_dB = 10 log10(1 / sigma^2).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import bounds
from .codebook import Code, CodeSpec, build_code
from .constraints import _COUNTER_MAX_DEGREE, _pair_weight_histogram, sample_ensemble
from .lp import _CHUNK, _OPTIMAL, _code_polytope, _decode_chunk
from .perm import BRUTE_FORCE_LIMIT, BruteForceLimitError

# The simulation no longer calls these; they stay importable here because
# perfbench/tracing.py patches this module's lookups by name.
from .constraints import satisfies_mask, theta  # noqa: F401
from .lp import lp_decode, ml_decode_detail  # noqa: F401
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
    solver_errors: int = 0  # LP trials whose simplex failed; counted as failures
    # Summed over the point's LP trials: phase-two ``pivots``, ``degenerate``
    # pivots, and ``blands``, the trials whose simplex switched to Bland's rule.
    lp_stats: Optional[dict[str, int]] = field(default=None, compare=False)
    seconds: Optional[float] = field(default=None, compare=False)  # wall time of the point


def _fan_out(fn, jobs: list, threads: int) -> list:
    """[fn(job) for job in jobs] on min(threads, len(jobs)) worker processes.

    One worker or fewer runs the jobs in this process.  Never more workers
    than jobs: the fork start method launches every worker at the first submit.
    """
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _trial_rng(seed: int, point: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, point, trial)))


def _simulate_point(args) -> TrialRecord:
    """One SNR point, in chunks of up to ``lp._CHUNK`` trials.

    A chunk draws every trial's noise first, then decodes all of its
    received words with one ``lp._decode_chunk`` call.
    """
    began = time.perf_counter()
    spec, code, snr_db, point_idx, trials, seed, decoders, transmitted = args
    sigma = sigma_from_snr_db(snr_db)
    s = np.asarray(spec.s, dtype=float)
    n = spec.n
    fixed = None if transmitted is None else np.asarray(transmitted, dtype=float)
    polytope = _code_polytope(spec.cs)
    lp_right = lp_failures = ml_right = certified = solver_errors = 0
    lp_stats = {"pivots": 0, "degenerate": 0, "blands": 0} if "lp" in decoders else None
    for start in range(0, trials, _CHUNK):
        size = min(_CHUNK, trials - start)
        noise = np.empty((size, n))
        picks = np.zeros(size, dtype=np.intp)
        for k in range(size):
            rng = _trial_rng(seed, point_idx, start + k)
            if fixed is None:
                picks[k] = rng.integers(0, len(code))
            noise[k] = rng.normal(0.0, sigma, n)
        sent = code.codewords[picks] if fixed is None else np.broadcast_to(fixed, (size, n))
        out = _decode_chunk(polytope, s, sent + noise, "lp" in decoders,
                            code.codewords if "ml" in decoders else None)
        if "lp" in decoders:
            lp_words = np.empty((size, n))
            np.put_along_axis(lp_words, out.perm, s, axis=1)
            certified += int(np.count_nonzero(out.hit))
            lp_failures += size - int(np.count_nonzero(out.codeword))
            lp_right += int(np.count_nonzero(out.codeword & (lp_words == sent).all(axis=1)))
        if out.run is not None:
            run = out.run
            solver_errors += int(np.count_nonzero(run.status != _OPTIMAL))
            lp_stats["pivots"] += int(run.pivots.sum())
            lp_stats["degenerate"] += int(run.degenerate.sum())
            lp_stats["blands"] += int(np.count_nonzero(run.blands))
        if out.ml is not None:
            ml_right += int(np.count_nonzero((out.ml == sent).all(axis=1)))
    return TrialRecord(
        snr_db=float(snr_db),
        sigma=sigma,
        trials=trials,
        lp_errors=trials - lp_right if "lp" in decoders else 0,
        lp_failures=lp_failures,
        ml_errors=trials - ml_right if "ml" in decoders else None,
        seed=seed,
        lp_certified=certified,
        solver_errors=solver_errors,
        lp_stats=lp_stats,
        seconds=time.perf_counter() - began,
    )


def _is_codeword(spec: CodeSpec, word: np.ndarray, code: Optional[Code]) -> bool:
    """Whether word = X s for some X satisfying spec.cs; ``code`` is read only when s repeats."""
    s = np.asarray(spec.s, dtype=float)
    if len(set(spec.s)) < spec.n:
        return word.shape == s.shape and bool((code.codewords == word).all(axis=1).any())
    # Distinct entries: only the X matching sorted s to sorted word maps s
    # there, and the exact int64 rows of the sort certificate check it.
    order = s.argsort()
    rearranged = np.array_equal(np.sort(word), s[order])
    return rearranged and bool(_code_polytope(spec.cs).admits(word.argsort(), order))


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

    ``transmitted`` fixes the sent codeword; None draws uniformly per trial.
    Random words, ML and a fixed word over an s with repeats build the code
    under ``limit``; worker processes receive its permutations only.
    """
    decoders = tuple(decoders)
    if not decoders or any(d not in ("lp", "ml") for d in decoders):
        raise ValueError("decoders must be a nonempty subset of {'lp', 'ml'}")
    if trials_per_point < 1:
        raise ValueError("need at least one trial per point")
    word = None if transmitted is None else np.asarray(tuple(transmitted), dtype=float)
    needs_code = "ml" in decoders or word is None
    code = build_code(spec, limit) if needs_code or len(set(spec.s)) < spec.n else None
    if word is None and len(code) == 0:
        raise ValueError("the code is empty; nothing to transmit")
    if word is not None and not _is_codeword(spec, word, code):
        raise ValueError("transmitted word is not a codeword of this spec")
    jobs = [
        (spec, code if needs_code else None, float(db), k, trials_per_point, seed, decoders,
         None if word is None else tuple(word))
        for k, db in enumerate(snr_db_list)
    ]
    return _fan_out(_simulate_point, jobs, threads)


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
    n, m, seed, indices = args
    out = np.zeros((len(indices), n + 1), dtype=np.int64)
    for row, k in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        out[row] = _pair_weight_histogram(sample_ensemble(n, m, rng).rows, n)
    return out


def _ensemble_histograms(n, m, num_samples, seed, threads) -> np.ndarray:
    """``_ensemble_chunk`` over samples 0..num_samples-1, fanned out to workers."""
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if n > _COUNTER_MAX_DEGREE:
        raise BruteForceLimitError(f"degree {n} exceeds the counter ceiling {_COUNTER_MAX_DEGREE}")
    parts = max(1, min(threads, num_samples))
    chunks = [list(range(k, num_samples, parts)) for k in range(parts)]
    hist = np.empty((num_samples, n + 1), dtype=np.int64)
    jobs = [(n, m, seed, chunk) for chunk in chunks]
    for chunk, part in zip(chunks, _fan_out(_ensemble_chunk, jobs, threads)):
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
) -> EnsembleResult:
    """Sample satisfying-set sizes of random pair ensembles."""
    counts = _ensemble_histograms(n, m, num_samples, seed, threads).sum(axis=1)
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
) -> WeightEnsembleResult:
    """Sample weight distributions of random pair ensembles.

    Weights are measured from the initial arrangement itself; with distinct
    initial entries the weight of a satisfying permutation is its degree minus
    its fixed-point count, so no explicit vector is needed.
    """
    means, ses = _moments(_ensemble_histograms(n, m, num_samples, seed, 1))
    formula = tuple(bounds.expected_weight(n, m, w) for w in range(n + 1))
    return WeightEnsembleResult(
        n=n,
        m=m,
        sample_means=tuple(float(v) for v in means),
        standard_errors=tuple(float(v) for v in ses),
        formula_values=formula,
        num_samples=num_samples,
    )
