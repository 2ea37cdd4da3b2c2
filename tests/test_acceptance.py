"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (bypassing capture, so the lines appear
in any pytest run).  Statistical checks use fixed seeds; tolerance and
runtime budgets are asserted inside each criterion.
"""

import functools
import itertools
import math
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

import permlp as pl
from permlp.constraints import ConstraintRow, ConstraintSystem, Relation
from permlp.perm import var_index

Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def _criterion(num, desc):
    def deco(fn):
        # No functools.wraps here: pytest follows __wrapped__ when inspecting
        # signatures, which would hide the capsys parameter.
        def wrapper(capsys):
            t0 = time.monotonic()
            try:
                fn()
            except BaseException:
                with capsys.disabled():
                    print(f"\nACCEPTANCE {num:2d}: FAIL - {desc}")
                raise
            dt = time.monotonic() - t0
            with capsys.disabled():
                print(f"\nACCEPTANCE {num:2d}: PASS - {desc} [{dt:.2f}s]")

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return deco


def _trace_cs(n, value):
    row = ConstraintRow.make(
        {var_index(i, i, n): 1 for i in range(1, n + 1)}, Relation.EQ, value
    )
    return ConstraintSystem(n, (row,))


def _fix_pair_cs():
    row = ConstraintRow.make(
        {var_index(1, 1, 5): 1, var_index(5, 5, 5): 1}, Relation.EQ, 1
    )
    return ConstraintSystem(5, (row,))


@functools.lru_cache(maxsize=None)
def _vertices(tag):
    builders = {
        "trace1_n3": (_trace_cs(3, 1), 3),
        "derangement5": (pl.derangement(5), 5),
        "fixpair5": (_fix_pair_cs(), 5),
        "involution4": (pl.involution(4), 4),
        "block4": (pl.block(4, 2), 4),
        "pinv6": (pl.pure_involution(6), 6),
    }
    cs, n = builders[tag]
    return pl.enumerate_vertices(cs, n), cs, n


@_criterion(1, "two-symbol LP decoding returns (1,0) with optimum 0.9 in < 1 ms")
def test_criterion_01():
    cs = pl.derangement(2)
    s = np.array([0.0, 1.0])
    y = np.array([0.9, 0.2])
    res = pl.lp_decode(cs, s, y)  # warm-up, also checked below
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        res = pl.lp_decode(cs, s, y)
        times.append(time.perf_counter() - t0)
    assert res.is_codeword
    assert np.allclose(res.word, [1.0, 0.0], atol=1e-12)
    assert abs(res.objective_value - 0.9) <= 1e-9
    assert min(times) < 1e-3


@_criterion(2, "derangement codes: the 9 four-symbol codewords and 44 matrices at n=5, < 0.1 s")
def test_criterion_02():
    t0 = time.monotonic()
    code4 = pl.build_code(pl.CodeSpec(4, pl.derangement(4), (0.0, 1.0, 2.0, 3.0)))
    code5 = pl.build_code(pl.CodeSpec(5, pl.derangement(5), (0.0, 1.0, 2.0, 3.0, 4.0)))
    elapsed = time.monotonic() - t0
    table = {
        (1, 0, 3, 2), (1, 2, 3, 0), (1, 3, 0, 2),
        (2, 0, 3, 1), (2, 3, 0, 1), (2, 3, 1, 0),
        (3, 0, 1, 2), (3, 2, 0, 1), (3, 2, 1, 0),
    }
    got = {tuple(int(v) for v in w) for w in code4.codewords}
    assert got == table
    assert len(code4) == 9
    assert len(code5) == 44
    assert elapsed < 0.1


@_criterion(3, "vertex counts and integrality for all seven four-symbol families, < 60 s")
def test_criterion_03():
    t0 = time.monotonic()
    rows = [
        (pl.cyclic(4), 4, True),
        (pl.derangement(4), 9, True),
        (pl.involution(4), 14, False),
        (pl.transposition(4), 20, False),
        (pl.transposition(4, with_symmetry=True), 6, True),
        (pl.block(4, 2), 28, False),
        (pl.block(4, 2, redundant=True), 8, True),
    ]
    for cs, count, integral in rows:
        vs = pl.enumerate_vertices(cs, 4)
        assert len(vs) == count, (count, len(vs))
        assert (len(vs.fractional) == 0) == integral
    assert time.monotonic() - t0 < 60


@_criterion(4, "trace-1 polytope at n=3: 5 vertices, displayed fractional pair, pseudo distances")
def test_criterion_04():
    from fractions import Fraction

    vs, cs, n = _vertices("trace1_n3")
    assert len(vs) == 5
    assert len(vs.integral) == 3 and len(vs.fractional) == 2
    t = Fraction(1, 3)
    u = Fraction(2, 3)
    m4 = ((t, 0, u), (u, t, 0), (0, u, t))
    m5 = ((t, u, 0), (0, t, u), (u, 0, t))
    frac = {v.entries for v in vs.fractional}
    assert frac == {m4, m5}
    start = next(v for v in vs.integral if v.to_permutation().perm == (1, 3, 2))
    s = (0.0, 1.0, 2.0)
    dists = sorted(
        pl.pseudo_distance(start, v, s)
        for v in vs.vertices
        if v.entries != start.entries
    )
    want = sorted([1.388730, 1.224745, 1.224745, 1.224745])
    assert np.allclose(dists, want, atol=1e-5)


@_criterion(5, "five-symbol geometry: 44/0 and 36+294 vertices, both min pseudo distances 0.707107")
def test_criterion_05():
    t0 = time.monotonic()
    s = (0.0, 1.0, 2.0, 3.0, 4.0)
    vs_d, cs_d, _ = _vertices("derangement5")
    assert len(vs_d.integral) == 44 and len(vs_d.fractional) == 0
    vs_f, cs_f, _ = _vertices("fixpair5")
    assert len(vs_f) == 330
    assert len(vs_f.integral) == 36 and len(vs_f.fractional) == 294
    assert pl.min_pseudo_distance(vs_d, cs_d, s) == pytest.approx(0.707107, abs=1e-5)
    assert pl.min_pseudo_distance(vs_f, cs_f, s) == pytest.approx(0.707107, abs=1e-5)
    assert time.monotonic() - t0 < 600


@_criterion(6, "pure involutions: counts, encoder bijection, digits (1,3,2), distance 4, 15+10 vertices")
def test_criterion_06():
    from fractions import Fraction

    # Brute-force family size against the closed form.
    for n in (2, 4, 6, 8):
        brute = 0
        for x in pl.enumerate_all(n):
            p = x.perm
            if all(p[p[j - 1] - 1] == j and p[j - 1] != j for j in range(1, n + 1)):
                brute += 1
        half = n // 2
        assert brute == math.factorial(n) // (2**half * math.factorial(half))
        assert pl.message_count(n) == brute
        # Encoder bijection over every message.
        images = set()
        for m in range(1, brute + 1):
            x = pl.enc_map(m, n)
            assert pl.dec_map(x) == m
            images.add(x.perm)
        assert len(images) == brute

    assert pl.message_digits(5, 6) == (1, 3, 2)

    for n in (4, 6):
        code = pl.build_code(pl.CodeSpec(n, pl.pure_involution(n), tuple(map(float, range(n)))))
        assert pl.min_hamming_distance(code) == 4

    vs, _, _ = _vertices("pinv6")
    assert len(vs.integral) == 15 and len(vs.fractional) == 10
    h = Fraction(1, 2)
    displayed = (
        (0, h, 0, 0, 0, h),
        (h, 0, 0, 0, 0, h),
        (0, 0, 0, h, h, 0),
        (0, 0, h, 0, h, 0),
        (0, 0, h, h, 0, 0),
        (h, h, 0, 0, 0, 0),
    )
    assert any(v.entries == displayed for v in vs.fractional)


@_criterion(7, "block codes: distances 8/4/8, cardinality 1152, predicate matches rows on S4 and S6")
def test_criterion_07():
    s = tuple(map(float, (1, 3, 5, 7, 2, 4, 6, 8)))
    d1, d2, dmin = pl.block_min_sq_distance(8, 4, s)
    assert d1 == pytest.approx(8.0, abs=1e-12)
    assert d2 == pytest.approx(4.0, abs=1e-12)
    assert dmin == pytest.approx(8.0, abs=1e-12)
    code = pl.build_code(pl.CodeSpec(8, pl.block(8, 4), s), limit=8)
    assert len(code) == 1152
    words = code.codewords
    brute = min(
        float(np.sum((words[i] - words[j]) ** 2))
        for i in range(len(words))
        for j in range(i + 1, len(words))
    )
    assert brute == dmin  # exact match demanded

    for n, nu in ((4, 2), (6, 2), (6, 3)):
        cs = pl.block(n, nu)
        for x in pl.enumerate_all(n):
            assert pl.is_block_permutation(x, nu) == pl.satisfies(cs, x)


@_criterion(8, "ML certificate: integral LP optima agree with exhaustive ML on 3x1000 noisy trials")
def test_criterion_08():
    cases = [
        pl.CodeSpec(4, pl.derangement(4), (0.0, 1.0, 2.0, 3.0)),
        pl.CodeSpec(4, pl.block(4, 2), (0.0, 1.0, 2.0, 3.0)),
        pl.CodeSpec(4, pl.cyclic(4), (0.0, 1.0, 2.0, 3.0)),
    ]
    rng = np.random.default_rng(314159)
    for spec in cases:
        code = pl.build_code(spec)
        s = np.asarray(spec.s)
        integral_successes = 0
        for _ in range(1000):
            sent = code.codewords[rng.integers(len(code))]
            sigma = float(rng.uniform(0.2, 1.2))
            y = sent + rng.normal(scale=sigma, size=spec.n)
            res = pl.lp_decode(spec.cs, s, y)
            if not res.is_codeword:
                continue
            integral_successes += 1
            idx, ml_word, tie = pl.ml_decode_detail(code, y)
            if tie:
                d_lp = float(np.sum((res.word - y) ** 2))
                d_ml = float(np.sum((ml_word - y) ** 2))
                assert abs(d_lp - d_ml) <= 1e-9
            else:
                assert np.array_equal(res.word, ml_word)
        assert integral_successes >= 500  # the check must actually bite


@pytest.mark.slow
@_criterion(9, "random ensembles: cardinality and weight means within 3 SE of the formulas, < 15 min")
def test_criterion_09():
    t0 = time.monotonic()
    for m in (30, 40, 50):
        res = pl.ensemble_experiment(10, m, 100, seed=2026)
        assert abs(res.sample_mean - res.formula_value) <= 3 * res.standard_error, m
    wres = pl.ensemble_weight_experiment(6, 10, 10_000, seed=2026)
    for w in range(7):
        diff = abs(wres.sample_means[w] - wres.formula_values[w])
        if wres.standard_errors[w] == 0.0:
            assert diff == 0.0
        else:
            assert diff <= 3 * wres.standard_errors[w], w
    assert time.monotonic() - t0 < 900


@pytest.mark.slow
@_criterion(10, "BLER within union bound at every grid point; derangement separated below at 4 dB")
def test_criterion_10():
    s = (0.0, 1.0, 2.0, 3.0, 4.0)
    grid = [0.0, 2.0, 4.0, 6.0, 8.0]
    trials = 10_000
    results = {}
    for tag in ("derangement5", "fixpair5"):
        vs, cs, n = _vertices(tag)
        spec = pl.CodeSpec(n, cs, s)
        code = pl.build_code(spec)
        word = code.codewords[0]
        x = code.matrices[0]
        recs = pl.simulate_bler(
            spec, grid, trials, seed=2026, decoders=("lp",), transmitted=word
        )
        points = []
        for r in recs:
            p = r.lp_errors / r.trials
            hw = Z99 * math.sqrt(p * (1 - p) / r.trials)
            bound = pl.lp_union_bound(x, vs, s, r.sigma)
            assert p <= bound + hw, (tag, r.snr_db, p, bound)
            points.append((p, hw))
        results[tag] = points
    mid = grid.index(4.0)
    der_p, der_hw = results["derangement5"][mid]
    fix_p, fix_hw = results["fixpair5"][mid]
    assert der_p + der_hw < fix_p - fix_hw  # 99%-confidence separation


@_criterion(11, "property suites: distance invariance, Birkhoff integrality, exactness, derangement counts")
def test_criterion_11():
    # Distance invariance for every family instance that forms a group.
    group_cases = 0
    family_instances = []
    for n in range(2, 7):
        family_instances.append(pl.CodeSpec(n, pl.derangement(n), tuple(map(float, range(n)))))
        family_instances.append(pl.CodeSpec(n, pl.cyclic(n), tuple(map(float, range(n)))))
        family_instances.append(
            pl.CodeSpec(n, pl.transposition(n, with_symmetry=True), tuple(map(float, range(n))))
        )
        for nu in range(2, n):
            if n % nu == 0:
                family_instances.append(pl.CodeSpec(n, pl.block(n, nu), tuple(map(float, range(n)))))
                family_instances.append(
                    pl.CodeSpec(n, pl.repetition(n, n // nu), tuple(map(float, range(n))))
                )
    for spec in family_instances:
        code = pl.build_code(spec)
        if len(code) < 2 or code.singular or not pl.is_group(code.matrices):
            continue
        group_cases += 1
        reference = pl.distance_enumerator(code, code.matrices[0])
        for x in code.matrices[1:]:
            assert pl.distance_enumerator(code, x).same_as(reference)
    assert group_cases >= 5

    # Assignment-problem integrality of simplex optima on the Birkhoff polytope.
    from permlp.lp import LPProblem, LPStatus, birkhoff_rows, solve

    rng = np.random.default_rng(271828)
    for n in (3, 4, 5):
        rows = birkhoff_rows(n)
        for _ in range(1000):
            c = rng.normal(size=n * n)
            sol = solve(LPProblem.make(n * n, c, rows))
            assert sol.status is LPStatus.OPTIMAL
            frac = np.abs(sol.x - np.rint(sol.x)).max()
            assert frac < 1e-7
            pl.PermutationMatrix.from_dense(np.rint(sol.x.reshape(n, n)).astype(np.int8))

    # Exact double stochasticity of enumerated vertices.
    for tag in ("trace1_n3", "involution4", "block4"):
        vs, _, n = _vertices(tag)
        for v in vs.vertices:
            for i in range(n):
                assert sum(v.entries[i]) == 1
                assert sum(row[i] for row in v.entries) == 1
                assert all(e >= 0 for e in v.entries[i])

    # Derangement numbers against the floor((w!+1)/e) closed form.
    getcontext().prec = 60
    e = Decimal(1).exp()
    for w in range(1, 21):
        assert pl.derangement_count(w) == int((Decimal(math.factorial(w)) + 1) / e)
