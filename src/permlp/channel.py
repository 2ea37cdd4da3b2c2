"""AWGN channel simulation and random-ensemble experiments.

Noise is generated from a counter-based scheme: every trial draws from the
stream of ``default_rng(SeedSequence((seed, snr point index, trial index)))``,
so results are bit-identical regardless of worker count or execution order.
That contract is per trial; ``_pcg64_states`` only computes the generator
states of a whole chunk of trials at once, and one generator takes each
trial's state in turn.  Ensemble sample k holds the pairs that
``sample_ensemble`` draws from ``default_rng(SeedSequence((seed, k)))``.
A chunk's draws are replayed from PCG64 in one vectorized pass, identical
to ``sample_ensemble``'s; a sample that the pass cannot finish (a draw
that Lemire's rule rejects, or redraws past the replayed stream) is drawn
by ``sample_ensemble`` itself.  At n = 6, m = 10 a sample costs about
1.3 us to draw and 2.6 us end to end (best of three 2,000-sample calls,
2-core Xeon, numpy 2.4), against 14 us and 18 us with a
``sample_ensemble`` call per sample.  Each sample is counted exactly
without building a code: up to degree 7 a chunk at once with bitsets over
S_n, above it one sample at a time by a dynamic program that builds no n!
table (see the constraints module).  Worker processes never outnumber the cores, and
seeded results do not depend on ``threads``.  The SNR of the
unit-energy-free convention used throughout is SNR_dB = 10 log10(1 / sigma^2).
"""

from __future__ import annotations

import functools
import math
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import bounds
from .codebook import Code, CodeSpec, build_code
from .constraints import (
    _BITSET_MAX_DEGREE,
    _COUNTER_MAX_DEGREE,
    _bitset_weight_histograms,
    _pair_weight_histogram,
    sample_ensemble,
)
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


def _workers(threads: int, jobs: int) -> int:
    """Worker processes for ``jobs`` jobs: ``threads``, at most one per job and per core.

    Never more workers than jobs: the fork start method launches every
    worker at the first submit.  Never more than ``os.cpu_count()``: seeded
    results are the same at every ``threads``, and extra workers only
    compete for the cores.
    """
    return min(threads, jobs, os.cpu_count() or 1)


def _fan_out(fn, jobs: list, threads: int) -> list:
    """[fn(job) for job in jobs] on ``_workers(threads, len(jobs))`` worker processes.

    One worker or fewer runs the jobs in this process.
    """
    workers = _workers(threads, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# ---------------------------------------------------------------------------
# Generator states of a chunk of seeds
# ---------------------------------------------------------------------------

# numpy's SeedSequence (O'Neill's seed_seq_fe with a pool of four 32-bit
# words) and the PCG64 seeding from its output.  The arithmetic wraps mod
# 2**32 on uint32 arrays with uint32 constants only: a numpy scalar product
# that overflows warns, and a Python-int constant would widen the result
# under the value-based casting of numpy < 2.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hash constants while mixing in entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hash constants while drawing out the state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, calls) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of the given hash calls, as uint32 columns.

    The hash constant starts at ``init`` and is multiplied by ``mult`` inside
    every call, between the xor and the multiply, so call k xors with
    init * mult**k and multiplies by init * mult**(k + 1), mod 2**32.  No
    constant depends on the data.
    """
    def at(k: int) -> int:
        return init * pow(mult, k, 1 << 32) & _MASK32

    return (np.array([at(k) for k in calls], dtype=np.uint32)[:, None],
            np.array([at(k + 1) for k in calls], dtype=np.uint32)[:, None])


# Call k of the entropy hash: 0-3 fill the pool; 4-15 cross-mix it, three
# calls per source word (one per other pool word, in order); from 16 on,
# four calls per entropy word past the pool.  Only keys with a seed of
# 2**32 or above reach those, so their constants are made per chunk.  A
# cross-mix step hashes the source word for all four pool words at once;
# the source's own column (call 0 here) is computed and dropped.
_FILL = _hash_constants(_INIT_A, _MULT_A, range(_POOL))
_CROSS = [
    _hash_constants(_INIT_A, _MULT_A,
                    [_POOL + 3 * src + d - (d > src) if d != src else 0 for d in range(_POOL)])
    for src in range(_POOL)
]
# The state is drawn as 8 words, the pool twice over: PCG64's 4 uint64 seed words.
_DRAW = tuple(c.reshape(2, _POOL, 1) for c in _hash_constants(_INIT_B, _MULT_B, range(2 * _POOL)))


def _hash(values: np.ndarray, constants: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    xor, mult = constants
    values = (values ^ xor) * mult
    return values ^ (values >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _words32(x: int) -> list[int]:
    """x in 32-bit words, least significant first, as SeedSequence splits an integer."""
    return [x >> shift & _MASK32 for shift in range(0, max(x.bit_length(), 1), 32)]


def _seed_words(head: Sequence[int], tails) -> np.ndarray:
    """The PCG64 seed words of ``SeedSequence((*head, tail))`` for each tail.

    ``head`` holds non-negative ints of any size; ``tails`` holds
    non-negative ints below 2**64.  Returns a (len(tails), 4) uint64 array
    of the words (a, b, c, d) that PCG64 seeds from.  The entropy of every
    tail is mixed at once, one (4, len(tails)) uint32 step per entropy word.
    """
    tails = np.asarray(tails, dtype=np.uint64)
    words = [w for x in head for w in _words32(x)]
    last = len(words) + 1  # the row of each tail's high word
    entropy = np.zeros((max(last + 1, _POOL), len(tails)), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[last - 1] = tails  # the cast keeps the low 32 bits
    high = entropy[last] = tails >> np.uint64(32)
    pool = _hash(entropy[:_POOL], _FILL)
    for src, constants in enumerate(_CROSS):
        mixed = _mix(pool, _hash(pool[src], constants))
        mixed[src] = pool[src]  # the source word is mixed into the others only
        pool = mixed
    for row in range(_POOL, len(entropy)):
        constants = _hash_constants(_INIT_A, _MULT_A, range(_POOL * row, _POOL * row + _POOL))
        mixed = _mix(pool, _hash(entropy[row], constants))
        # A tail below 2**32 is one word long, so its entropy has no high word.
        pool = np.where(high != 0, mixed, pool) if row == last else mixed
    drawn = _hash(pool, _DRAW).transpose(2, 0, 1).astype("<u4", order="C").reshape(-1, 2 * _POOL)
    return drawn.view("<u8").astype(np.uint64, copy=False)


def _pcg64_states(head: Sequence[int], tails) -> list[dict]:
    """The bit-generator state of ``default_rng(SeedSequence((*head, tail)))`` for each tail."""
    states = []
    for a, b, c, d in _seed_words(head, tails).tolist():
        # PCG64 seeds from (a:b, c:d): inc = (c:d) << 1 | 1, then one step
        # from inc + (a:b).
        inc = (c << 65 | d << 1 | 1) & _MASK128
        state = ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


# ---------------------------------------------------------------------------
# PCG64 streams of a chunk of seeds
# ---------------------------------------------------------------------------

# A 128-bit integer is a (hi, lo) pair of uint64 arrays, and every operation
# wraps mod 2**128.  Products are formed from 32-bit limbs, so that no
# uint64 product overflows; the constants are numpy scalars, because a
# Python-int operand turns a uint64 array into float64 under numpy < 2.
_LOW32 = np.uint64(_MASK32)
_U1, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 32, 58, 63, 64))
_PCG64_STEP = (np.array([_PCG64_MULT >> 64], dtype=np.uint64),
               np.array([_PCG64_MULT & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
# A stream is drawn in blocks of at most this many 64-bit outputs over all
# of a chunk's samples, so that its temporaries stay bounded at any m.
_STREAM_BLOCK = 1 << 14


def _mulhi64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product x * y of uint64 values."""
    x0, x1, y0, y1 = x & _LOW32, x >> _U32, y & _LOW32, y >> _U32
    cross, cross2 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> _U32) + (cross & _LOW32) + (cross2 & _LOW32)
    return x1 * y1 + (cross >> _U32) + (cross2 >> _U32) + (mid >> _U32)


def _mul128(x, y):
    (xh, xl), (yh, yl) = x, y
    return _mulhi64(xl, yl) + xl * yh + xh * yl, xl * yl


def _add128(x, y):
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < x[1]), lo


def _pcg64_seeded(words: np.ndarray):
    """The PCG64 (state, inc) that ``_seed_words``' rows seed, as 128-bit pairs.

    As ``_pcg64_states`` computes them: inc = (c:d) << 1 | 1, then one LCG
    step from inc + (a:b).
    """
    a, b, c, d = words.T
    inc = (c << _U1 | d >> _U63, d << _U1 | _U1)
    return _add128(_mul128(_add128(inc, (a, b)), _PCG64_STEP), inc), inc


@functools.lru_cache(maxsize=None)
def _lcg_jumps(count: int):
    """(A_k, C_k) for k = 1..count, as 128-bit pairs of (count,) arrays.

    k PCG64 steps take a state s to A_k s + C_k inc.  The table doubles
    from k = 1: A_{k+i} = A_i A_k and C_{k+i} = A_i C_k + C_i.
    """
    jump, offset = _PCG64_STEP, (np.zeros(1, np.uint64), np.ones(1, np.uint64))
    while len(jump[0]) < count:
        last_jump, last_offset = (jump[0][-1:], jump[1][-1:]), (offset[0][-1:], offset[1][-1:])
        more_jump = _mul128(jump, last_jump)
        more_offset = _add128(_mul128(jump, last_offset), offset)
        jump = tuple(np.concatenate(p) for p in zip(jump, more_jump))
        offset = tuple(np.concatenate(p) for p in zip(offset, more_offset))
    return tuple(v[:count] for v in jump), tuple(v[:count] for v in offset)


def _uint32_stream(state, inc, count: int) -> np.ndarray:
    """The first ``count`` ``next_uint32`` draws of each PCG64 stream.

    ``state`` and ``inc`` are 128-bit pairs of (S,) arrays, the generators'
    states before their first draw (``has_uint32`` clear).  Each 64-bit
    output is one LCG step and the XSL-RR output function, and is split
    into two draws, its low half first, as numpy's ``next_uint32`` does.
    The steps of a block are jumps from the block's first state.  Returns
    an (S, count) uint32 array.
    """
    size = len(state[0])
    steps = -(-count // 2)
    cols = max(1, min(steps, _STREAM_BLOCK // max(size, 1)))
    jump, offset = _lcg_jumps(1 << (cols - 1).bit_length())
    inc = (inc[0][:, None], inc[1][:, None])
    out = np.empty((size, 2 * steps), dtype="<u4")
    for start in range(0, steps, cols):
        k = min(cols, steps - start)
        base = (state[0][:, None], state[1][:, None])
        hi, lo = _add128(_mul128(base, (jump[0][:k], jump[1][:k])),
                         _mul128(inc, (offset[0][:k], offset[1][:k])))
        x, rot = hi ^ lo, hi >> _U58
        words = x >> rot | x << ((_U64 - rot) & _U63)
        out[:, 2 * start : 2 * (start + k)] = words.astype("<u8", copy=False).view("<u4")
        state = (hi[:, -1], lo[:, -1])
    return out[:, :count]


def _check_seed(seed) -> int:
    """seed as an int, refused as ``SeedSequence`` refuses it, before any work runs.

    Integers of any type pass (``True``, numpy integers); anything else
    raises ``TypeError`` and a negative one ``ValueError``.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return seed


def _simulate_point(args) -> TrialRecord:
    """One SNR point, in chunks of up to ``lp._CHUNK`` trials.

    A chunk computes its trials' generator states with one
    ``_pcg64_states`` call, draws every trial's noise, then decodes all of
    its received words with one ``lp._decode_chunk`` call.
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
    rng = np.random.Generator(np.random.PCG64())  # each trial sets its state
    count = None if fixed is not None else len(code)
    for start in range(0, trials, _CHUNK):
        size = min(_CHUNK, trials - start)
        noise = np.empty((size, n))
        picks = np.zeros(size, dtype=np.intp)
        tails = np.arange(start, start + size, dtype=np.uint64)
        for k, state in enumerate(_pcg64_states((seed, point_idx), tails)):
            rng.bit_generator.state = state
            if fixed is None:
                picks[k] = rng.integers(0, count)
            noise[k] = rng.normal(0.0, sigma, n)
        sent = np.empty((size, n)) if fixed is None else np.broadcast_to(fixed, (size, n))
        if fixed is None:  # the picks' codewords, without building the whole codebook
            np.put_along_axis(sent, code.perms[picks] - 1, s, axis=1)
        out = _decode_chunk(polytope, s, sent + noise, "lp" in decoders,
                            code if "ml" in decoders else None)
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
        return code.index(word) is not None
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

    Trial t of point k draws from ``default_rng(SeedSequence((seed, k, t)))``:
    first the sent codeword's index with ``integers(0, len(code))`` (unless
    ``transmitted`` fixes the word), then its noise with ``normal``.  The
    generator states are computed a chunk at a time, which leaves each
    trial's stream unchanged.  ``seed`` must be a non-negative integer
    (``TypeError`` or ``ValueError`` otherwise, before the code is built).
    Random words, ML and a fixed word over an s with repeats build the code
    under ``limit``; worker processes receive its permutations only.  The
    points run on ``threads`` worker processes, at most one per point and
    per core (``os.cpu_count()``); the records do not depend on ``threads``.

    ML answers a sort-certificate miss from the LP whenever phase two runs on
    it: with both decoders, or ML-only on a Birkhoff face (derangement(n)),
    whose vertices are permutation matrices, when s has distinct entries
    and the code has more than ``lp._ML_SCAN_MAX`` codewords (smaller
    codebooks scan faster).  It takes the LP's word only when the optimum
    is integral, a codeword, and ahead of every other codeword by more than
    ``lp._CERT_MARGIN`` in the final tableau's reduced costs, a margin that
    rules out a tie.  Every other miss is answered by
    scanning the codebook, which keeps the lowest codeword index on ties; a
    point builds the float codebook (``Code.codewords``) only when some word
    is scanned.
    """
    seed = _check_seed(seed)
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


# Largest m and num_samples the ensemble experiments accept, checked before
# any sampling.  At these caps one run peaked at 65 MB RSS in 0.07-0.10 s
# (n = 3, m = 2**19, one sample: its replayed draws and pair array) and
# 113 MB in 0.9-1.1 s (n = 6, m = 1, 2**19 samples: the histograms and
# counts); n = 12, m = 2**19 peaked at 91 MB, the dynamic program's pair
# lists (2-core Xeon, numpy 2.4).
_MAX_ENSEMBLE_ROWS = 1 << 19
_MAX_ENSEMBLE_SAMPLES = 1 << 19
# An ensemble chunk draws at most this many pairs (and at most lp._CHUNK
# samples) before it counts them.
_CHUNK_PAIRS = 1 << 16


def _redraw_spare(m: int, width: int) -> int:
    """Draws past the first 2m that a chunk replays for each sample's redraws.

    A pair is equal with probability 1/width, so a sample redraws about
    mean = m / (width - 1) times, with a standard deviation below
    sqrt(2 mean); the spare adds four of those and a few draws more.  A
    sample that needs more is drawn by ``sample_ensemble``.
    """
    mean = -(-m // (width - 1))
    return mean + 4 * math.isqrt(2 * mean) + 6


def _ensemble_pairs(n: int, m: int, seed: int, indices) -> np.ndarray:
    """The pairs that ``sample_ensemble`` draws for each sample, as one (S, m, 2) array.

    Sample k's generator is ``default_rng(SeedSequence((seed, k)))``.  Its
    ``next_uint32`` draws are replayed from PCG64 for all samples at once
    and mapped to 1..width by Lemire's rule, as numpy's ``integers`` does:
    1 + (u * width >> 32).  The first 2m draws fill the pairs row by row,
    and the second entry of each equal pair is redrawn from the draws that
    follow, in row order, until no pair is equal.  A sample whose used draws
    include one that Lemire's rule rejects (its low 32 bits of u * width
    below (2**32 - width) % width), or that needs more draws than were
    replayed, is drawn again by ``sample_ensemble`` from its own state.
    """
    width, size = n * n, len(indices)
    seeded = _pcg64_seeded(_seed_words((seed,), indices))
    stream = _uint32_stream(*seeded, 2 * m + _redraw_spare(m, width))
    scaled = stream.astype(np.uint64) * np.uint64(width)
    values = (scaled >> _U32).astype(np.intp) + 1
    rejected = (scaled & _LOW32) < np.uint64((2**32 - width) % width)
    drawn = values.shape[1]
    pairs = values[:, : 2 * m].reshape(size * m, 2)
    used = np.full(size, 2 * m)
    bad = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    while bad.size:
        sample = bad // m
        rank = np.arange(len(bad)) - np.searchsorted(sample, sample)
        pos = used[sample] + rank
        used += np.bincount(sample, minlength=size)
        inside = pos < drawn
        bad, pos = bad[inside], pos[inside]
        pairs[bad, 1] = values[bad // m, pos]
        bad = bad[pairs[bad, 0] == pairs[bad, 1]]
    pairs.sort(axis=1)
    pairs = pairs.reshape(size, m, 2)
    first_rejected = np.where(rejected.any(axis=1), rejected.argmax(axis=1), drawn)
    redo = np.flatnonzero((used > drawn) | (first_rejected < used))
    if redo.size:
        rng = np.random.Generator(np.random.PCG64())
        tails = np.asarray(indices, dtype=np.uint64)[redo]
        for k, state in zip(redo.tolist(), _pcg64_states((seed,), tails)):
            rng.bit_generator.state = state
            pairs[k] = np.array(sample_ensemble(n, m, rng).rows, dtype=np.intp).reshape(m, 2)
    return pairs


def _ensemble_chunk(args) -> np.ndarray:
    """Histogram of each sampled system's solutions by displaced positions (weight).

    Samples are drawn a chunk at a time by ``_ensemble_pairs``, which
    replays their PCG64 draws in one pass and gives the pairs that
    ``sample_ensemble`` would.  Up to degree
    ``constraints._BITSET_MAX_DEGREE`` one bitset kernel call counts the
    whole chunk; above it the dynamic program counts each sample.  At
    n = 6, m = 10, 512-sample chunks cost about 2.6 us per sample: 1.3 us
    drawing and 1.0 us counting (2-core Xeon, numpy 2.4).
    """
    n, m, seed, indices = args
    out = np.zeros((len(indices), n + 1), dtype=np.int64)
    step = min(_CHUNK, max(1, _CHUNK_PAIRS // max(m, 1)))
    for start in range(0, len(indices), step):
        pairs = _ensemble_pairs(n, m, seed, indices[start : start + step])
        if n <= _BITSET_MAX_DEGREE:
            out[start : start + len(pairs)] = _bitset_weight_histograms(pairs, n)
        else:
            for i, rows in enumerate(pairs.tolist(), start):
                out[i] = _pair_weight_histogram(rows, n)
    return out


def _ensemble_histograms(n, m, num_samples, seed, threads) -> np.ndarray:
    """``_ensemble_chunk`` over samples 0..num_samples-1, fanned out to workers.

    Refuses, before any work, a bad seed, n < 2, m < 0, ``num_samples``
    outside [1, ``_MAX_ENSEMBLE_SAMPLES``] and ``m`` above
    ``_MAX_ENSEMBLE_ROWS`` (``ValueError``), and a degree above
    ``_COUNTER_MAX_DEGREE`` (``BruteForceLimitError``).
    """
    seed = _check_seed(seed)
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n = {n} and m = {m}")
    if n == 1:  # as sample_ensemble refuses it
        raise ValueError("need at least two positions to draw a pair")
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if num_samples > _MAX_ENSEMBLE_SAMPLES:
        raise ValueError(f"num_samples {num_samples} exceeds the cap {_MAX_ENSEMBLE_SAMPLES}")
    if m > _MAX_ENSEMBLE_ROWS:
        raise ValueError(f"m {m} exceeds the cap {_MAX_ENSEMBLE_ROWS}")
    if n > _COUNTER_MAX_DEGREE:
        raise BruteForceLimitError(f"degree {n} exceeds the counter ceiling {_COUNTER_MAX_DEGREE}")
    parts = max(1, _workers(threads, num_samples))
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
    """Sample satisfying-set sizes of random pair ensembles.

    Sample k draws m pairs from ``SeedSequence((seed, k))``.  ``m`` and
    ``num_samples`` are capped at ``_MAX_ENSEMBLE_ROWS`` and
    ``_MAX_ENSEMBLE_SAMPLES`` (2**19 each), and n at ``_COUNTER_MAX_DEGREE``
    (16), before any sample is drawn.  The samples run on ``threads`` worker
    processes, at most one per core (``os.cpu_count()``); the samples do
    not depend on ``threads``.
    """
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
    its fixed-point count, so no explicit vector is needed.  Samples and caps
    are those of :func:`ensemble_experiment`.
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
