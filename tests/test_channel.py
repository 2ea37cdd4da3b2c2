"""AWGN simulation harness: determinism, parallel equivalence, statistics."""

import dataclasses
import itertools
import os
import pickle

import numpy as np
import pytest

from permlp import channel, lp, perm
from permlp.bounds import expected_cardinality, expected_weight
from permlp.channel import (
    SnrPoint,
    awgn,
    ensemble_experiment,
    ensemble_weight_experiment,
    sigma_from_snr_db,
    simulate_bler,
)
from permlp.codebook import Code, CodeSpec, build_code
from permlp.constraints import (
    _COUNTER_MAX_DEGREE,
    ConstraintRow,
    ConstraintSystem,
    Relation,
    block,
    cyclic,
    derangement,
    involution,
    pure_involution,
    sample_ensemble,
    repetition,
    satisfies,
    theta,
    transposition,
)
from permlp.perm import BRUTE_FORCE_LIMIT, BruteForceLimitError, PermutationMatrix, var_index


def test_sigma_from_snr_db_anchors():
    assert sigma_from_snr_db(0.0) == pytest.approx(1.0)
    assert sigma_from_snr_db(20.0) == pytest.approx(0.1)
    assert sigma_from_snr_db(-20.0) == pytest.approx(10.0)
    # Round trip through the defining relation SNR = 10 log10(1/sigma^2).
    for db in (-3.0, 1.7, 8.2):
        sigma = sigma_from_snr_db(db)
        assert 10 * np.log10(1 / sigma**2) == pytest.approx(db)


def test_snr_point_from_db():
    p = SnrPoint.from_db(6.0)
    assert p.snr_db == 6.0
    assert p.sigma == pytest.approx(sigma_from_snr_db(6.0))


def test_awgn_reproducible_and_calibrated():
    x = np.zeros(200_000)
    noisy = awgn(x, 0.5, np.random.default_rng(9))
    again = awgn(x, 0.5, np.random.default_rng(9))
    assert np.array_equal(noisy, again)
    assert noisy.mean() == pytest.approx(0.0, abs=0.01)
    assert noisy.std() == pytest.approx(0.5, abs=0.01)


def _spec():
    return CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0))


def test_simulate_bler_deterministic():
    a = simulate_bler(_spec(), [2.0, 4.0], 300, seed=13)
    b = simulate_bler(_spec(), [2.0, 4.0], 300, seed=13)
    assert a == b
    c = simulate_bler(_spec(), [2.0, 4.0], 300, seed=14)
    assert a != c


def test_simulate_bler_threads_match_serial():
    serial = simulate_bler(_spec(), [1.0, 3.0, 5.0], 200, seed=21, threads=1)
    parallel = simulate_bler(_spec(), [1.0, 3.0, 5.0], 200, seed=21, threads=3)
    assert serial == parallel


def test_simulate_bler_record_fields():
    recs = simulate_bler(_spec(), [4.0], 250, seed=3, decoders=("lp", "ml"))
    (r,) = recs
    assert r.trials == 250 and r.seed == 3 and r.snr_db == 4.0
    assert r.sigma == pytest.approx(sigma_from_snr_db(4.0))
    assert 0 <= r.lp_failures <= r.lp_errors <= r.trials
    assert r.ml_errors is not None and 0 <= r.ml_errors <= r.trials
    # LP can never beat ML on average; with shared noise it cannot here.
    assert r.ml_errors <= r.lp_errors
    # Wall seconds of the point, left out of seeded equality.
    assert r.seconds > 0
    assert dataclasses.replace(r, seconds=r.seconds + 1.0) == r


def test_simulate_bler_lp_only_skips_ml():
    (r,) = simulate_bler(_spec(), [4.0], 50, seed=3, decoders=("lp",))
    assert r.ml_errors is None


@pytest.mark.parametrize("threads", [1, 2])
def test_lp_only_random_words_never_build_the_codebook(threads, monkeypatch):
    # A chunk scatters s through its picks' permutations; 600 trials make a
    # full chunk and a partial one.
    spec = CodeSpec(6, derangement(6), tuple(float(v) for v in range(6)))
    want = simulate_bler(spec, [1.0, 4.0], 600, seed=8, decoders=("lp",), threads=threads)

    def forbidden(self):
        raise AssertionError("an LP-only run built the float codebook")

    monkeypatch.setattr(Code, "codewords", property(forbidden))
    got = simulate_bler(spec, [1.0, 4.0], 600, seed=8, decoders=("lp",), threads=threads)
    assert got == want
    assert [r.lp_stats for r in got] == [r.lp_stats for r in want]


def test_simulate_bler_quiet_at_high_snr():
    (r,) = simulate_bler(_spec(), [40.0], 200, seed=5)
    assert r.lp_errors == 0 and r.ml_errors == 0


def test_simulate_fixed_transmitted_word():
    spec = _spec()
    word = np.array([1.0, 0.0, 3.0, 2.0])
    a = simulate_bler(spec, [4.0], 200, seed=8, transmitted=word)
    b = simulate_bler(spec, [4.0], 200, seed=8, transmitted=word)
    assert a == b
    with pytest.raises(ValueError):
        simulate_bler(spec, [4.0], 50, seed=8, transmitted=np.array([9.0, 9.0, 9.0, 9.0]))


def _row_system(n, coeffs, relation, rhs):
    return ConstraintSystem(n, (ConstraintRow.make(coeffs, relation, rhs),))


def _systems(n):
    # Every named family, a trace row (exactly one fixed point), and a row
    # that is not symmetric under transposition: entry (1, 2) is one.
    trace = {var_index(i, i, n): 1 for i in range(1, n + 1)}
    yield _row_system(n, trace, Relation.EQ, 1)
    yield _row_system(n, {var_index(1, 2, n): 1}, Relation.EQ, 1)
    yield from (derangement(n), involution(n), pure_involution(n), cyclic(n))
    yield from (transposition(n), transposition(n, with_symmetry=True))
    for k in (k for k in range(1, n + 1) if n % k == 0):
        yield from (repetition(n, k), block(n, k), block(n, k, redundant=True))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_fixed_word_check_matches_codebook(n):
    # With distinct entries in s, the one matrix mapping s to the word is
    # checked against the rows; the verdict must equal a codebook lookup for
    # every rearrangement of s.
    s = (2.0, -1.5, 7.0, 0.25, 3.5, 0.0)[:n]
    words = np.array([[s[k] for k in p] for p in itertools.permutations(range(n))])
    for cs in _systems(n):
        spec = CodeSpec(n, cs, s)
        code = build_code(spec)
        for word in words:
            want = bool((code.codewords == word).all(axis=1).any())
            assert channel._is_codeword(spec, word, None) is want, (cs, word)


@pytest.mark.parametrize(
    "word,accepted",
    [((1, 0, 3, 2), True), ((1, 0, 3, 2.00002), False), ((1, 0, 3, 2.0000000000001), False),
     ((0, 1, 2, 3), False), ((1, 0, 3), False), ((1, 0, 3, 2, 4), False)],
)
def test_fixed_word_check_needs_exact_equality(word, accepted):
    spec = _spec()
    assert channel._is_codeword(spec, np.array(word, dtype=float), None) is accepted
    if accepted:
        assert len(simulate_bler(spec, [4.0], 5, seed=1, decoders=("lp",), transmitted=word)) == 1
    else:
        with pytest.raises(ValueError, match="not a codeword"):
            simulate_bler(spec, [4.0], 5, seed=1, decoders=("lp",), transmitted=word)


def test_fixed_word_over_repeated_s_is_looked_up_in_the_code(monkeypatch):
    # (0, 0, 1, 1) is the image of the derangement (2, 1, 4, 3), though the
    # matrix matching sorted s to sorted word, the identity, is not one.
    spec = CodeSpec(4, derangement(4), (0.0, 0.0, 1.0, 1.0))
    built = []

    def capture(*args):
        built.append(build_code(*args))
        return built[-1]

    monkeypatch.setattr(channel, "build_code", capture)
    (rec,) = simulate_bler(spec, [4.0], 5, seed=1, decoders=("lp",), transmitted=(0, 0, 1, 1))
    assert rec.trials == 5 and len(built) == 1
    assert not lp._code_polytope(spec.cs).admits(np.arange(4), np.arange(4))
    with pytest.raises(ValueError, match="not a codeword"):
        simulate_bler(spec, [4.0], 5, seed=1, decoders=("lp",), transmitted=(0, 1, 1, 2))


# (lp_errors, lp_failures, lp_certified) per SNR point (0, 3, 6 dB; 200
# trials, seed 31) for LP-only runs with a fixed word at degree 12, past the
# n! table's cap: a cyclic shift of s, and s with neighbouring pairs swapped.
_S12 = tuple(float(v) for v in range(12))
PINNED_N12_FIXED_WORD = {
    "derangement12": (derangement, _S12[-1:] + _S12[:-1], [(164, 0, 9), (78, 0, 27), (13, 0, 74)]),
    "pure_involution12": (
        pure_involution, tuple(_S12[k ^ 1] for k in range(12)), [(35, 8, 6), (0, 0, 16), (0, 0, 80)]
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED_N12_FIXED_WORD))
def test_simulate_fixed_word_lp_pinned_past_table_cap(name, threads, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an LP-only fixed-word run built a code")

    monkeypatch.setattr(channel, "build_code", forbidden)
    monkeypatch.setattr(perm, "_TABLE_CACHE", {})
    make, word, want = PINNED_N12_FIXED_WORD[name]
    recs = simulate_bler(CodeSpec(12, make(12), _S12), [0, 3, 6], 200, seed=31,
                         decoders=("lp",), transmitted=word, threads=threads)
    assert [(r.lp_errors, r.lp_failures, r.lp_certified) for r in recs] == want
    assert all(r.trials == 200 and r.ml_errors is None and r.solver_errors == 0 for r in recs)
    assert perm._TABLE_CACHE == {}


def test_enumerating_runs_keep_the_table_cap():
    n = BRUTE_FORCE_LIMIT + 1
    s = tuple(float(v) for v in range(n))
    word = s[-1:] + s[:-1]
    repeated = (0.0,) * 2 + s[2:]
    refused = [
        (s, {"decoders": ("ml",), "transmitted": word}),
        (s, {"decoders": ("lp", "ml"), "transmitted": word}),
        (s, {"decoders": ("lp",)}),
        (repeated, {"decoders": ("lp",), "transmitted": repeated[-1:] + repeated[:-1]}),
    ]
    message = rf"refusing to enumerate {n}! permutations \(cap {BRUTE_FORCE_LIMIT}\)"
    for s_, kwargs in refused:
        with pytest.raises(BruteForceLimitError, match=message):
            simulate_bler(CodeSpec(n, derangement(n), s_), [4.0], 5, seed=1, **kwargs)


def _fixpair5():
    row = ConstraintRow.make({var_index(1, 1, 5): 1, var_index(5, 5, 5): 1}, Relation.EQ, 1)
    return ConstraintSystem(5, (row,))


# (lp_errors, lp_failures) per SNR point: three points with random codewords,
# then two with codewords[0] fixed.  Pinned so that solver speed-ups are
# checked to leave seeded results unchanged.
PINNED_LP_COUNTS = {
    "derangement5": (lambda: derangement(5), [(84, 0), (73, 0), (44, 0), (60, 0), (39, 0)]),
    "fixpair5": (_fixpair5, [(97, 0), (79, 0), (67, 0), (92, 1), (67, 0)]),
    "pure_involution8": (lambda: pure_involution(8), [(39, 0), (20, 0), (5, 0), (13, 3), (5, 2)]),
    "block8_2r": (lambda: block(8, 2, redundant=True), [(104, 0), (89, 0), (63, 0), (96, 0), (87, 0)]),
    "block6_3": (lambda: block(6, 3), [(105, 6), (94, 1), (69, 0), (109, 7), (84, 6)]),
}


@pytest.mark.parametrize("name", sorted(PINNED_LP_COUNTS))
def test_simulate_bler_lp_counts_pinned(name):
    make, want = PINNED_LP_COUNTS[name]
    cs = make()
    spec = CodeSpec(cs.n, cs, tuple(float(v) for v in range(cs.n)))
    recs = simulate_bler(spec, [0, 2, 4], 150, seed=11, decoders=("lp",))
    recs += simulate_bler(
        spec, [0, 2], 150, seed=12, decoders=("lp",), transmitted=build_code(spec).codewords[0]
    )
    assert [(r.lp_errors, r.lp_failures) for r in recs] == want


# ml_errors per SNR point (0, 3, 6 dB; 150 trials, seed 21), pinned so that
# faster code construction and ML decoding leave seeded results unchanged.
_RANGE6 = tuple(float(v) for v in range(6))
PINNED_ML_COUNTS = {
    "derangement6": (lambda: derangement(6), _RANGE6, [109, 70, 27]),
    "involution6": (lambda: involution(6), _RANGE6, [71, 41, 19]),
    "block6_3": (lambda: block(6, 3), _RANGE6, [119, 89, 40]),
    "derangement6_singular": (lambda: derangement(6), (0.0, 0.0, 1.0, 1.0, 2.0, 2.0), [129, 104, 64]),
    # 133,496 words: the blocked scan crosses 130 block seams.
    "derangement9": (lambda: derangement(9), tuple(float(v) for v in range(9)), [141, 117, 64]),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED_ML_COUNTS))
def test_simulate_bler_ml_counts_pinned(name, threads):
    make, s, want = PINNED_ML_COUNTS[name]
    cs = make()
    recs = simulate_bler(CodeSpec(cs.n, cs, s), [0, 3, 6], 150, seed=21, decoders=("ml",),
                         threads=threads)
    assert [r.ml_errors for r in recs] == want


def _point_words(spec, snr_db, point, trials, seed):
    """Sent and received words of one point with random codewords, drawn as simulate_bler draws them."""
    code = build_code(spec)
    sigma = sigma_from_snr_db(snr_db)
    sent, received = [], []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, point, t)))
        word = code.codewords[int(rng.integers(0, len(code)))]
        sent.append(word)
        received.append(awgn(word, sigma, rng))
    return np.array(sent), np.array(received)


def _one_by_one(spec, snr_db, point, trials, seed):
    """A TrialRecord's LP fields, from lp_decode on each trial's word alone."""
    sent, received = _point_words(spec, snr_db, point, trials, seed)
    errors = failures = certified = 0
    stats = {"pivots": 0, "degenerate": 0, "blands": 0}
    for word, y in zip(sent, received):
        res = lp.lp_decode(spec.cs, spec.s, y)
        certified += res.certified
        failures += not res.is_codeword
        errors += not (res.is_codeword and np.array_equal(res.word, word))
        for key in stats:
            stats[key] += res.stats[key]
    return errors, failures, certified, stats


def test_simulate_bler_counts_certificate_hits(monkeypatch):
    spec = CodeSpec(5, derangement(5), tuple(float(v) for v in range(5)))
    certified, stacked = [], []
    real_certificate, real_phase_two = lp._sort_certificate, lp._phase_two

    def spy_certificate(*args):
        hit, perm = real_certificate(*args)
        certified.append(hit)
        return hit, perm

    def spy_phase_two(feasible, objectives):
        stacked.append(len(objectives))
        return real_phase_two(feasible, objectives)

    monkeypatch.setattr(lp, "_sort_certificate", spy_certificate)
    monkeypatch.setattr(lp, "_phase_two", spy_phase_two)
    low, high = simulate_bler(spec, [0.0, 6.0], 150, seed=11, decoders=("lp",))
    # One chunk per point: one certificate pass, and one stack of its misses.
    assert (low.lp_certified, high.lp_certified) == (certified[0].sum(), certified[1].sum())
    assert stacked == [150 - low.lp_certified, 150 - high.lp_certified]
    assert 0 < low.lp_certified < high.lp_certified < 150
    assert low.solver_errors == high.solver_errors == 0
    # Each trial's verdict, and the point's counts and telemetry, equal
    # lp_decode on that trial's word alone.
    for point, (db, rec) in enumerate(zip([0.0, 6.0], (low, high))):
        _, received = _point_words(spec, db, point, 150, 11)
        alone = [lp.lp_decode(spec.cs, spec.s, y).certified for y in received]
        assert certified[point].tolist() == alone
        errors, failures, hits, stats = _one_by_one(spec, db, point, 150, 11)
        assert (rec.lp_errors, rec.lp_failures, rec.lp_certified) == (errors, failures, hits)
        assert rec.lp_stats == stats and stats["pivots"] > 0


def test_simulate_bler_counts_solver_errors(monkeypatch):
    # Repeated entries in s send every trial past the certificate to phase two.
    spec = CodeSpec(5, derangement(5), (0.0, 0.0, 1.0, 2.0, 3.0))
    base = simulate_bler(spec, [0.0, 20.0], 40, seed=4, decoders=("lp",))
    assert (base[1].lp_errors, base[1].lp_certified, base[1].solver_errors) == (0, 0, 0)
    real = lp._phase_two
    calls = []  # one entry per objective that reached phase two

    def flaky(feasible, objectives):
        x, run, *final = real(feasible, objectives)
        first = len(calls)
        calls.extend([1] * len(objectives))
        if first < 40 + 7 <= len(calls):  # trial 7 of the second point fails alone
            run.status[40 + 7 - 1 - first] = lp._CAPPED
        return x, run, *final

    monkeypatch.setattr(lp, "_phase_two", flaky)
    got = simulate_bler(spec, [0.0, 20.0], 40, seed=4, decoders=("lp",))
    assert len(calls) == 80
    assert got[0] == base[0]
    assert got[1] == dataclasses.replace(base[1], lp_errors=1, lp_failures=1, solver_errors=1)


def test_simulate_point_past_the_chunk_matches_one_by_one():
    # More trials than one chunk: the second chunk continues the trial count.
    spec = CodeSpec(5, derangement(5), tuple(float(v) for v in range(5)))
    trials = lp._CHUNK + 88
    (rec,) = simulate_bler(spec, [2.0], trials, seed=19, decoders=("lp",))
    errors, failures, certified, stats = _one_by_one(spec, 2.0, 0, trials, 19)
    assert (rec.lp_errors, rec.lp_failures, rec.lp_certified) == (errors, failures, certified)
    assert rec.lp_stats == stats
    assert 0 < rec.lp_certified < trials and rec.trials == trials


@pytest.mark.parametrize(
    "cs", [derangement(6), block(6, 3), involution(6)],
    ids=["derangement6", "block6_3", "involution6"],
)
def test_simulate_bler_ml_certificate_matches_full_scan(cs, monkeypatch):
    spec = CodeSpec(cs.n, cs, _RANGE6)
    fast = simulate_bler(spec, [0.0, 3.0, 6.0], 100, seed=9, decoders=("ml",))
    real = lp._sort_certificate

    def no_certificate(*args):
        hit, perm = real(*args)
        return np.zeros_like(hit), perm

    monkeypatch.setattr(lp, "_sort_certificate", no_certificate)
    slow = simulate_bler(spec, [0.0, 3.0, 6.0], 100, seed=9, decoders=("ml",))
    assert fast == slow


def test_simulate_bler_ml_scans_each_chunk_once(monkeypatch):
    spec = CodeSpec(6, derangement(6), _RANGE6)
    trials = lp._CHUNK + 88
    sent, received = _point_words(spec, 0.0, 0, trials, 7)
    code = build_code(spec)
    errors = sum(not np.array_equal(lp.ml_decode_detail(code, y)[1], w) for w, y in zip(sent, received))
    scanned = []
    real = lp._ml_scan

    def spy(words, ys):
        scanned.append(len(ys))
        return real(words, ys)

    def per_word(*args):
        raise AssertionError("the ML branch decoded a miss on its own")

    monkeypatch.setattr(lp, "_ml_scan", spy)
    monkeypatch.setattr(channel, "ml_decode_detail", per_word)
    monkeypatch.setattr(lp, "ml_decode_detail", per_word)
    (rec,) = simulate_bler(spec, [0.0], trials, seed=7, decoders=("ml",))
    # One scan per chunk, over that chunk's certificate misses only.
    assert len(scanned) == 2 and 0 < scanned[0] < lp._CHUNK and 0 < scanned[1] < 88
    assert rec.ml_errors == errors


def test_simulate_bler_ml_on_a_face_takes_the_lp_answer(monkeypatch):
    # derangement(6) is a Birkhoff face: every vertex is a permutation matrix.
    # Its 265 codewords scan faster than phase two runs; with no scan limit,
    # as on a large face, each certificate miss takes phase two's word, and no
    # row is scanned.
    monkeypatch.setattr(lp, "_ML_SCAN_MAX", 0)
    spec = CodeSpec(6, derangement(6), _RANGE6)
    trials = lp._CHUNK + 88
    sent, received = _point_words(spec, 0.0, 0, trials, 7)
    code = build_code(spec)
    want = np.array([lp.ml_decode_detail(code, y)[1] for y in received])
    chunks = []
    real = lp._decode_chunk

    def spy(*args):
        chunks.append(real(*args))
        return chunks[-1]

    def forbidden(*args):
        raise AssertionError("an ML run on a face scanned the codebook")

    monkeypatch.setattr(channel, "_decode_chunk", spy)
    monkeypatch.setattr(lp, "_ml_scan", forbidden)
    monkeypatch.setattr(Code, "codewords", property(forbidden))
    (rec,) = simulate_bler(spec, [0.0], trials, seed=7, decoders=("ml",))
    assert len(chunks) == 2 and all(0 < np.count_nonzero(~out.hit) for out in chunks)
    assert np.array_equal(np.concatenate([out.ml for out in chunks]), want)
    assert rec.ml_errors == np.count_nonzero((want != sent).any(axis=1))


def test_simulate_bler_ml_equal_when_every_row_scans(monkeypatch):
    # With no scan limit, derangement(6)'s misses take phase two's word, as on
    # a large face.  An infinite margin fails the sort certificate and the
    # reduced-cost gap alike, so every word goes to the scan.
    spec = CodeSpec(6, derangement(6), _RANGE6)
    scanned = []
    real = lp._ml_scan

    def spy(words, ys):
        scanned.append(len(ys))
        return real(words, ys)

    monkeypatch.setattr(lp, "_ml_scan", spy)
    monkeypatch.setattr(lp, "_ML_SCAN_MAX", 0)
    want = simulate_bler(spec, [0.0, 3.0, 6.0], 600, seed=9, decoders=("ml",))
    assert sum(scanned) == 0
    monkeypatch.setattr(lp, "_CERT_MARGIN", np.inf)
    got = simulate_bler(spec, [0.0, 3.0, 6.0], 600, seed=9, decoders=("ml",))
    assert sum(scanned) == 3 * 600
    assert got == want


@pytest.mark.parametrize("n", [6, 9])
def test_simulate_bler_ml_on_a_face_runs_phase_two_past_the_scan_limit(n, monkeypatch):
    # derangement(6) (265 codewords) scans its misses; derangement(9)
    # (133,496) sends them to phase two and scans none.
    spec = CodeSpec(n, derangement(n), tuple(float(v) for v in range(n)))
    large = len(build_code(spec)) > lp._ML_SCAN_MAX
    assert large == (n == 9)
    rows = {"_phase_two": 0, "_ml_scan": 0}

    def counted(name):
        real = getattr(lp, name)

        def spy(first, second):
            rows[name] += len(second)
            return real(first, second)

        return spy

    for name in rows:
        monkeypatch.setattr(lp, name, counted(name))
    got = simulate_bler(spec, [0.0, 6.0], 200, seed=13, decoders=("ml",))
    assert (rows["_phase_two"] > 0, rows["_ml_scan"] > 0) == (large, not large)
    monkeypatch.setattr(lp, "_CERT_MARGIN", np.inf)
    assert got == simulate_bler(spec, [0.0, 6.0], 200, seed=13, decoders=("ml",))


def test_simulate_bler_ml_over_repeated_s_runs_no_phase_two(monkeypatch):
    # Over an s with repeats, another matrix of the code maps s to the LP's
    # word, so the reduced-cost gap is 0 and phase two could not answer ML:
    # an ML-only run on a face scans without it, whatever the code's size.
    def forbidden(*args):
        raise AssertionError("phase two ran for ML over an s with repeats")

    monkeypatch.setattr(lp, "_ML_SCAN_MAX", 0)
    monkeypatch.setattr(lp, "_phase_two", forbidden)
    make, s, want = PINNED_ML_COUNTS["derangement6_singular"]
    recs = simulate_bler(CodeSpec(6, make(), s), [0, 3, 6], 150, seed=21, decoders=("ml",))
    assert [r.ml_errors for r in recs] == want


class _PicklingPool:
    """Stands in for ProcessPoolExecutor: runs each job from its pickle."""

    blobs: list = []
    workers: list = []  # max_workers of each pool made

    def __init__(self, max_workers):
        _PicklingPool.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        out = []
        for job in jobs:
            blob = pickle.dumps(job)
            _PicklingPool.blobs.append(blob)
            out.append(fn(pickle.loads(blob)))
        return out


def test_simulate_bler_jobs_ship_permutations_only(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    spec = CodeSpec(6, derangement(6), _RANGE6)
    built = []

    def capture(*args):
        built.append(build_code(*args))
        return built[-1]

    monkeypatch.setattr(channel, "build_code", capture)
    monkeypatch.setattr(channel, "ProcessPoolExecutor", _PicklingPool)
    _PicklingPool.blobs = []
    serial = simulate_bler(spec, [1.0, 3.0], 40, seed=5, threads=1)
    parallel = simulate_bler(spec, [1.0, 3.0], 40, seed=5, threads=2)
    assert serial == parallel
    assert len(built) == 2  # one build per call, not one per SNR point
    assert len(_PicklingPool.blobs) == 2
    words = built[1].codewords
    for blob in _PicklingPool.blobs:
        assert len(blob) < words.nbytes
        job_code = pickle.loads(blob)[1]
        assert job_code == built[1] and "codewords" not in job_code.__dict__
    # An LP-only run with a fixed word ships no code at all.
    _PicklingPool.blobs = []
    simulate_bler(spec, [1.0, 3.0], 5, seed=5, decoders=("lp",), transmitted=words[0], threads=2)
    assert all(pickle.loads(blob)[1] is None for blob in _PicklingPool.blobs)


def test_pools_start_no_more_workers_than_jobs(monkeypatch):
    # Under fork, a pool starts all max_workers processes at the first submit.
    monkeypatch.setattr(channel, "ProcessPoolExecutor", _PicklingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    spec = CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0))
    _PicklingPool.workers = []
    simulate_bler(spec, [1.0, 3.0], 5, seed=5, threads=64)
    assert _PicklingPool.workers == [2]
    _PicklingPool.workers, _PicklingPool.blobs = [], []
    res = ensemble_experiment(4, 3, 3, seed=17, threads=64)
    assert _PicklingPool.workers == [3] and len(_PicklingPool.blobs) == 3
    assert res == ensemble_experiment(4, 3, 3, seed=17)


@pytest.mark.parametrize("cores", [3, 1, None])
def test_pools_start_no_more_workers_than_cores(monkeypatch, cores):
    # The pool stand-in records max_workers and runs every job in this
    # process, so no worker process is started at any --threads.
    monkeypatch.setattr(channel, "ProcessPoolExecutor", _PicklingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    workers = [] if cores in (1, None) else [cores]  # one worker runs inline
    spec = CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0))
    grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    _PicklingPool.workers, _PicklingPool.blobs = [], []
    records = simulate_bler(spec, grid, 5, seed=5, threads=5000)
    assert _PicklingPool.workers == workers and len(_PicklingPool.blobs) == len(grid) * bool(workers)
    _PicklingPool.workers, _PicklingPool.blobs = [], []
    res = ensemble_experiment(4, 3, 50, seed=17, threads=5000)
    assert _PicklingPool.workers == workers and len(_PicklingPool.blobs) == sum(workers)
    assert records == simulate_bler(spec, grid, 5, seed=5)
    assert res == ensemble_experiment(4, 3, 50, seed=17)


# Heads of SeedSequence keys: (seed, point) for simulate_bler, (seed,) for
# the ensembles.  The seeds take one, two and three 32-bit words.
_SEED_EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 + 5)


def _kernel_heads():
    gen = np.random.default_rng(2026)
    heads = [(seed, point) for seed in _SEED_EDGES for point in (0, 2**32 + 1)]
    heads += [(seed,) for seed in _SEED_EDGES]
    while len(heads) < 50:
        bits = int(gen.integers(1, 96))
        heads.append((int(gen.integers(0, 2**63)) << 32 >> (96 - bits), int(gen.integers(0, 100))))
    return heads


# Per head: trial 0 and the next 99, trials 2**32 - 1 and 2**32 + 3, and a
# run of 98 that straddles 2**32 (its tails take one word, then two).  The
# tails are not sorted, as an ensemble chunk's sample indices need not be.
_KERNEL_TAILS = np.concatenate([
    np.arange(100), [2**32 - 1, 2**32 + 3], np.arange(2**32 - 49, 2**32 + 49),
]).astype(np.uint64)


@pytest.mark.parametrize("head", _kernel_heads(), ids=str)
def test_pcg64_states_match_numpy_seeding(head):
    # 50 heads x 200 tails: 10^4 keys.  Each state must be the one numpy's
    # own SeedSequence and PCG64 give, and so must the first draws from it.
    states = channel._pcg64_states(head, _KERNEL_TAILS)
    assert len(states) == len(_KERNEL_TAILS)
    rng = np.random.Generator(np.random.PCG64())
    for tail, state in zip(_KERNEL_TAILS.tolist(), states):
        want = np.random.default_rng(np.random.SeedSequence((*head, tail)))
        assert state == want.bit_generator.state, (head, tail)
        rng.bit_generator.state = state
        assert rng.integers(0, 1000) == want.integers(0, 1000)
        assert np.array_equal(rng.normal(0.0, 1.0, 3), want.normal(0.0, 1.0, 3))


@pytest.mark.parametrize("threads", [1, 2])
def test_seed_is_checked_before_any_work(monkeypatch, threads):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the seed was checked")

    for name in ("build_code", "_pair_weight_histogram", "sample_ensemble", "ProcessPoolExecutor"):
        monkeypatch.setattr(channel, name, forbidden)
    spec = CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0))
    runs = [
        lambda seed: simulate_bler(spec, [1.0, 3.0], 5, seed=seed, threads=threads),
        lambda seed: ensemble_experiment(4, 3, 2, seed=seed, threads=threads),
        lambda seed: ensemble_weight_experiment(4, 3, 2, seed=seed),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="expected non-negative integer"):
            run(-1)
        for bad in (1.0, 2.5, "3", None, np.float64(1.0)):
            with pytest.raises(TypeError):
                run(bad)


def test_integer_seed_types_keep_working():
    spec = CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0))
    want = simulate_bler(spec, [1.0, 3.0], 30, seed=1)
    for seed in (True, np.int64(1), np.uint32(1)):
        assert simulate_bler(spec, [1.0, 3.0], 30, seed=seed) == want
        assert ensemble_experiment(4, 3, 5, seed=seed) == ensemble_experiment(4, 3, 5, seed=1)
    big = 2**64 + 5
    assert simulate_bler(spec, [1.0], 30, seed=big)[0].seed == big


def test_simulate_rejects_empty_code():
    spec = CodeSpec(3, derangement(3), (0.0, 1.0, 2.0))
    bad = CodeSpec(1, derangement(1), (0.0,))
    assert len(simulate_bler(spec, [10.0], 10, seed=1)) == 1
    with pytest.raises(ValueError):
        simulate_bler(bad, [10.0], 10, seed=1)


def test_ensemble_experiment_moments():
    res = ensemble_experiment(4, 3, 400, seed=17)
    assert res.n == 4 and res.m == 3
    assert len(res.samples) == 400
    arr = np.array(res.samples, dtype=float)
    assert res.sample_mean == pytest.approx(arr.mean())
    assert res.standard_error == pytest.approx(arr.std(ddof=1) / np.sqrt(len(arr)))
    again = ensemble_experiment(4, 3, 400, seed=17)
    assert again.samples == res.samples
    # All counts are cards of sub-codes of S_4.
    assert all(0 <= v <= 24 for v in res.samples)


def test_ensemble_experiment_threads_match_serial():
    serial = ensemble_experiment(4, 5, 120, seed=23, threads=1)
    parallel = ensemble_experiment(4, 5, 120, seed=23, threads=3)
    assert serial.samples == parallel.samples


def test_ensemble_weight_experiment_consistency():
    res = ensemble_weight_experiment(4, 3, 300, seed=29)
    assert len(res.sample_means) == 5 == len(res.formula_values)
    # Weight 1 is impossible for permutations.
    assert res.sample_means[1] == 0.0 and res.formula_values[1] == 0.0
    # Per-sample weights must add up to the cardinality samples.
    card = ensemble_experiment(4, 3, 300, seed=29)
    assert sum(res.sample_means) == pytest.approx(card.sample_mean)


# Seeded ensemble outputs, pinned bit for bit.  Keys are (n, m, num_samples,
# seed); cardinality pins are (sum of the samples, the first ten samples,
# sample mean, standard error), weight pins are (sample means, standard
# errors) indexed by weight.
NAN = float("nan")
_CARDINALITY_PINS = {
    (4, 3, 400, 17): (1986, (6, 4, 4, 6, 6, 5, 7, 5, 3, 3), 4.965, 0.09161288009608008),
    (5, 6, 300, 3): (3096, (9, 17, 8, 8, 1, 0, 9, 9, 12, 9), 10.32, 0.24089391310078342),
    (7, 12, 20, 9): (
        3651, (109, 206, 114, 190, 184, 123, 186, 230, 114, 194), 182.55, 10.930997691259282
    ),
    (6, 10, 2000, 2026): (
        49553, (42, 28, 28, 9, 32, 30, 21, 24, 21, 9), 24.7765, 0.2637879184268187
    ),
    (4, 5, 120, 23): (211, (2, 1, 1, 2, 1, 3, 2, 2, 1, 2), 1.7583333333333333, 0.129097184709453),
    (6, 8, 1, 5): (27, (27,), 27.0, NAN),
}
_WEIGHT_PINS = {
    (4, 3, 400, 17): (
        (0.1875, 0.0, 1.2325, 1.665, 1.88),
        (0.0195400591036577, 0.0, 0.04529058918441749, 0.04743482535692116,
         0.06293968151152293),
    ),
    (5, 6, 300, 3): (
        (0.08333333333333333, 0.0, 0.8766666666666667, 1.6933333333333334,
         3.8566666666666665, 3.81),
        (0.015983780333266032, 0.0, 0.05611310709461051, 0.07685184364361901,
         0.11007429672252966, 0.1573955387864515),
    ),
    (7, 12, 20, 9): (
        (0.0, 0.0, 0.45, 2.25, 10.95, 34.55, 68.3, 66.05),
        (0.0, 0.0, 0.15346866644024562, 0.46382278830105833, 1.4463656813581156,
         2.5219823030390405, 4.799725869365107, 6.7960805267680415),
    ),
    (6, 10, 2000, 2026): (
        (0.0365, 0.0, 0.4925, 1.3575, 4.666, 9.1315, 9.0925),
        (0.004194361850826379, 0.0, 0.020607867844795576, 0.03512070054545333,
         0.07462242459962386, 0.10905985008448435, 0.13884383558638902),
    ),
    (6, 8, 1, 5): ((0.0, 0.0, 0.0, 0.0, 1.0, 8.0, 18.0), (NAN,) * 7),
}


@pytest.mark.parametrize("key", list(_CARDINALITY_PINS), ids=str)
@pytest.mark.parametrize("threads", [1, 2])
def test_ensemble_experiment_pinned(key, threads):
    n, m, num_samples, seed = key
    total, head, mean, se = _CARDINALITY_PINS[key]
    res = ensemble_experiment(n, m, num_samples, seed=seed, threads=threads)
    assert (res.n, res.m) == (n, m)
    assert len(res.samples) == num_samples and all(type(v) is int for v in res.samples)
    assert sum(res.samples) == total and res.samples[:10] == head
    assert np.array_equal([res.sample_mean, res.standard_error], [mean, se], equal_nan=True)
    assert res.formula_value == expected_cardinality(n, m)


@pytest.mark.parametrize("key", list(_WEIGHT_PINS), ids=str)
def test_ensemble_weight_experiment_pinned(key):
    n, m, num_samples, seed = key
    means, ses = _WEIGHT_PINS[key]
    res = ensemble_weight_experiment(n, m, num_samples, seed=seed)
    assert res.num_samples == num_samples
    assert res.sample_means == means
    assert np.array_equal(res.standard_errors, ses, equal_nan=True)
    assert res.formula_values == tuple(expected_weight(n, m, w) for w in range(n + 1))


@pytest.mark.parametrize("n,m", [(4, 3), (5, 6), (6, 10)])
def test_ensemble_cardinality_is_weight_histogram_total(n, m):
    # A one-sample run reports that sample's histogram as its means, so each
    # seed's cardinality must be the total of its weight histogram.
    for seed in range(12):
        card = ensemble_experiment(n, m, 1, seed=seed)
        weights = ensemble_weight_experiment(n, m, 1, seed=seed)
        assert card.samples == (sum(weights.sample_means),)
        assert all(v.is_integer() for v in weights.sample_means)


def test_ensemble_chunk_matches_brute_force():
    # Each sample's histogram against the scalar check over all of S_n, for
    # sample indices given out of order.
    n, m, seed = 4, 3, 17
    indices = [5, 0, 11, 3]
    hist = channel._ensemble_chunk((n, m, seed, indices))
    assert hist.shape == (len(indices), n + 1) and hist.dtype == np.int64
    for row, k in zip(hist, indices):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        cs = theta(sample_ensemble(n, m, rng), n)
        want = [0] * (n + 1)
        for p in itertools.permutations(range(1, n + 1)):
            if satisfies(cs, PermutationMatrix(p)):
                want[sum(1 for j, i in enumerate(p, start=1) if i != j)] += 1
        assert row.tolist() == want


@pytest.mark.parametrize("threads", [1, 2])
def test_ensembles_refuse_degree_above_cap_before_any_work(monkeypatch, threads):
    def forbidden(*args, **kwargs):
        raise AssertionError("called above the degree cap")

    for name in ("_pair_weight_histogram", "_bitset_weight_histograms", "sample_ensemble",
                 "ProcessPoolExecutor"):
        monkeypatch.setattr(channel, name, forbidden)
    monkeypatch.setattr(perm, "_TABLE_CACHE", {})
    n = _COUNTER_MAX_DEGREE + 1
    with pytest.raises(BruteForceLimitError, match=f"counter ceiling {_COUNTER_MAX_DEGREE}"):
        ensemble_experiment(n, 3, 2, seed=1, threads=threads)
    with pytest.raises(BruteForceLimitError, match=f"counter ceiling {_COUNTER_MAX_DEGREE}"):
        ensemble_weight_experiment(n, 3, 2, seed=1)
    assert perm._TABLE_CACHE == {}


@pytest.mark.parametrize("threads", [1, 2])
def test_ensembles_refuse_large_counts_before_any_work(monkeypatch, threads):
    def forbidden(*args, **kwargs):
        raise AssertionError("called above a count cap")

    for name in ("_pair_weight_histogram", "_bitset_weight_histograms", "sample_ensemble",
                 "ProcessPoolExecutor"):
        monkeypatch.setattr(channel, name, forbidden)
    rows, samples = channel._MAX_ENSEMBLE_ROWS, channel._MAX_ENSEMBLE_SAMPLES
    for n, m, count in ((3, rows + 1, 1), (3, 10**11, 1), (12, rows + 1, 2)):
        with pytest.raises(ValueError, match=f"m {m} exceeds the cap {rows}"):
            ensemble_experiment(n, m, count, seed=1, threads=threads)
        with pytest.raises(ValueError, match=f"m {m} exceeds the cap {rows}"):
            ensemble_weight_experiment(n, m, count, seed=1)
    for count in (samples + 1, 10**12):
        with pytest.raises(ValueError, match=f"num_samples {count} exceeds the cap {samples}"):
            ensemble_experiment(3, 2, count, seed=1, threads=threads)
        with pytest.raises(ValueError, match=f"num_samples {count} exceeds the cap {samples}"):
            ensemble_weight_experiment(3, 2, count, seed=1)


@pytest.mark.parametrize("threads", [1, 2])
def test_bitset_and_dynamic_program_histograms_agree(monkeypatch, threads):
    # The same seeded samples counted by bitsets and, with the degree limit
    # at 0, by the dynamic program; chunks of few samples include m = 900.
    cases = [(2, 3, 40), (3, 0, 9), (4, 5, 120), (5, 6, 300), (6, 10, 600), (7, 12, 50),
             (7, 900, 5), (6, 1, 2)]
    fast = [channel._ensemble_histograms(n, m, count, 2026, threads) for n, m, count in cases]
    monkeypatch.setattr(channel, "_BITSET_MAX_DEGREE", 0)
    for (n, m, count), want in zip(cases, fast):
        assert np.array_equal(channel._ensemble_histograms(n, m, count, 2026, threads), want)


def test_ensembles_count_with_bitsets_up_to_the_degree_limit(monkeypatch):
    calls = []
    for name in ("_pair_weight_histogram", "_bitset_weight_histograms"):
        real = getattr(channel, name)
        monkeypatch.setattr(channel, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    ensemble_experiment(channel._BITSET_MAX_DEGREE, 12, 600, seed=3)
    assert calls == ["_bitset_weight_histograms"] * 2  # one call per 512-sample chunk
    calls.clear()
    ensemble_experiment(channel._BITSET_MAX_DEGREE + 1, 12, 3, seed=3)
    assert calls == ["_pair_weight_histogram"] * 3


def test_ensembles_at_degree_12_match_the_closed_forms(monkeypatch):
    # Past the n! table's cap: the counter needs no table.
    monkeypatch.setattr(perm, "_TABLE_CACHE", {})
    n, m, samples = 12, 90, 400
    card = ensemble_experiment(n, m, samples, seed=2026)
    assert abs(card.sample_mean - expected_cardinality(n, m)) <= 3 * card.standard_error
    weights = ensemble_weight_experiment(n, m, samples, seed=2026)
    for w, (mean, se) in enumerate(zip(weights.sample_means, weights.standard_errors)):
        want = expected_weight(n, m, w)
        if se > 0:
            assert abs(mean - want) <= 3 * se, w
        else:
            # Unseen in every sample: the closed form expects under one in all of them.
            assert mean == 0 and want * samples < 1, w
    assert perm._TABLE_CACHE == {}


def test_ensemble_experiments_reject_no_samples():
    with pytest.raises(ValueError, match="at least one sample"):
        ensemble_experiment(4, 3, 0, seed=1)
    with pytest.raises(ValueError, match="at least one sample"):
        ensemble_weight_experiment(4, 3, 0, seed=1)


@pytest.mark.parametrize("threads", [1, 2])
def test_ensembles_refuse_small_degrees_and_negative_m_before_any_work(monkeypatch, threads):
    def forbidden(*args, **kwargs):
        raise AssertionError("called before the inputs were checked")

    for name in ("_pair_weight_histogram", "_bitset_weight_histograms", "sample_ensemble",
                 "_ensemble_pairs", "ProcessPoolExecutor"):
        monkeypatch.setattr(channel, name, forbidden)
    for n, m in ((-2, 3), (-1, 3), (0, 3), (0, 0), (4, -1), (-2, -1)):
        with pytest.raises(ValueError, match=f"need n >= 1 and m >= 0, got n = {n} and m = {m}"):
            ensemble_experiment(n, m, 3, seed=1, threads=threads)
        with pytest.raises(ValueError, match="need n >= 1 and m >= 0"):
            ensemble_weight_experiment(n, m, 3, seed=1)
    for m in (0, 3):
        with pytest.raises(ValueError, match="need at least two positions to draw a pair"):
            ensemble_experiment(1, m, 3, seed=1, threads=threads)
        with pytest.raises(ValueError, match="need at least two positions to draw a pair"):
            ensemble_weight_experiment(1, m, 3, seed=1)


# ---------------------------------------------------------------------------
# A chunk's ensemble pairs, replayed from PCG64 against sample_ensemble
# ---------------------------------------------------------------------------

_EDGES_128 = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**127, 2**128 - 1)


def _split128(values):
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & (2**64 - 1) for v in values], dtype=np.uint64))


def _join128(pair):
    return [hi << 64 | lo for hi, lo in zip(pair[0].tolist(), pair[1].tolist())]


def test_128_bit_arithmetic_matches_python_ints():
    gen = np.random.default_rng(11)
    randoms = [int(gen.integers(0, 2**63)) << 65 ^ int(gen.integers(0, 2**63)) << 1
               ^ int(gen.integers(0, 2)) for _ in range(500)]
    xs = [x for x in _EDGES_128 for _ in _EDGES_128] + randoms
    ys = [y for _ in _EDGES_128 for y in _EDGES_128] + randoms[::-1]
    x, y = _split128(xs), _split128(ys)
    with np.errstate(over="raise"):
        assert _join128(channel._mul128(x, y)) == [a * b % 2**128 for a, b in zip(xs, ys)]
        assert _join128(channel._add128(x, y)) == [(a + b) % 2**128 for a, b in zip(xs, ys)]
        assert channel._mulhi64(x[1], y[1]).tolist() == [
            (a % 2**64) * (b % 2**64) >> 64 for a, b in zip(xs, ys)]
    # k LCG steps are the jump A_k s + C_k inc.
    jump, offset = channel._lcg_jumps(40)
    mult = channel._PCG64_MULT
    assert _join128(jump) == [pow(mult, k, 2**128) for k in range(1, 41)]
    assert _join128(offset) == [sum(pow(mult, i, 2**128) for i in range(k)) % 2**128
                                for k in range(1, 41)]


@pytest.mark.parametrize("block", [channel._STREAM_BLOCK, 7 * len(_KERNEL_TAILS)])
@pytest.mark.parametrize("head", [(0,), (2026,), (2**64 + 5,)], ids=str)
def test_uint32_stream_is_the_pcg64_output_low_half_first(head, block, monkeypatch):
    # The small block makes a stream of 57 outputs take 9 blocks.
    monkeypatch.setattr(channel, "_STREAM_BLOCK", block)
    seeded = channel._pcg64_seeded(channel._seed_words(head, _KERNEL_TAILS))
    states = channel._pcg64_states(head, _KERNEL_TAILS)
    assert _join128(seeded[0]) == [s["state"]["state"] for s in states]
    assert _join128(seeded[1]) == [s["state"]["inc"] for s in states]
    for count in (0, 1, 2, 113):
        stream = channel._uint32_stream(*seeded, count)
        assert stream.shape == (len(_KERNEL_TAILS), count) and stream.dtype == np.uint32
        for row, state in zip(stream, states):
            bits = np.random.PCG64()
            bits.state = state
            raw = bits.random_raw(-(-count // 2))
            halves = np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=1)
            assert np.array_equal(row, halves.reshape(-1)[:count]), (head, count)


def _sampled_rows(n, m, seed, indices):
    want = np.empty((len(indices), m, 2), dtype=np.intp)
    for row, k in zip(want, indices):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        row[:] = np.array(sample_ensemble(n, m, rng).rows, dtype=np.intp).reshape(m, 2)
    return want


@pytest.mark.parametrize("n", [2, 3, 6, 7, 10, 12])
def test_ensemble_pairs_equal_sample_ensemble(n):
    # 6 degrees x 5 m x 2 seeds x 170 samples: 10,200 keys.  n = 2 has four
    # positions, so a quarter of its pairs are redrawn at least once.
    indices = [*range(150), *range(2**32 - 10, 2**32 + 10)]
    for m in (0, 1, 10, 40, 900):
        for seed in (3, 2**40 + 7):
            pairs = channel._ensemble_pairs(n, m, seed, indices)
            assert pairs.shape == (len(indices), m, 2)
            assert np.array_equal(pairs, _sampled_rows(n, m, seed, indices)), (n, m, seed)


def _counting_sampler(monkeypatch):
    calls = []
    real = channel.sample_ensemble
    monkeypatch.setattr(channel, "sample_ensemble",
                        lambda *a: calls.append(a[:2]) or real(*a))
    return calls


@pytest.mark.parametrize("spare", [0, 1, 3])
def test_ensemble_pairs_past_the_replayed_draws_fall_back(monkeypatch, spare):
    # With no spare draws every sample that redraws runs past its stream:
    # at m = 1 a quarter of them, at m = 40 all.  With one or three, some
    # samples use up the last replayed draw and do not fall back.
    calls = _counting_sampler(monkeypatch)
    monkeypatch.setattr(channel, "_redraw_spare", lambda m, width: spare)
    indices = list(range(200))
    for m, most in ((1, 100), (10, 200), (40, 200)):
        calls.clear()
        pairs = channel._ensemble_pairs(2, m, 5, indices)
        assert np.array_equal(pairs, _sampled_rows(2, m, 5, indices))
        assert spare or 20 < len(calls) <= most


def test_ensemble_pairs_with_a_rejected_draw_fall_back(monkeypatch):
    # At n = 3 Lemire's rule rejects a used draw u whose leftover
    # u * 9 mod 2**32 is below 2**32 % 9 = 4.  Sample 1 gets u = 0 on its
    # first draw.  Of three samples whose first 20 draws hold no equal pair,
    # one gets u = 0 just past them and one on the last replayed draw, which
    # they do not use, and one gets a first draw of leftover 4, which is
    # kept: only sample 1 falls back.
    calls = _counting_sampler(monkeypatch)
    real = channel._uint32_stream
    kept = 4 * pow(9, -1, 2**32) % 2**32
    clean = []

    def stream(*args):
        out = real(*args).copy()
        values = (out[:, :20].astype(np.uint64) * np.uint64(9) >> np.uint64(32)).reshape(-1, 10, 2)
        clean[:] = [k for k in np.flatnonzero((values[..., 0] != values[..., 1]).all(axis=1))
                    if k != 1][:3]
        out[1, 0] = out[clean[0], 20] = out[clean[1], -1] = 0
        out[clean[2], 0] = kept
        return out

    monkeypatch.setattr(channel, "_uint32_stream", stream)
    indices = list(range(40))
    pairs = channel._ensemble_pairs(3, 10, 5, indices)
    want = _sampled_rows(3, 10, 5, indices)
    assert calls == [(3, 10)]
    assert (kept * 9 >> 32) + 1 in pairs[clean[2], 0]
    assert np.array_equal(pairs[clean[2], 1:], want[clean[2], 1:])
    assert np.array_equal(np.delete(pairs, clean[2], axis=0), np.delete(want, clean[2], axis=0))
