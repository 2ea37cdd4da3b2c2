"""Union bounds and pseudo distances against the pair-by-pair loops they replace.

The oracles below are the loop implementations of lp_union_bound,
ml_union_bound, lp_bound_report, ml_bound_report and min_pseudo_distance:
one norm, one dot product and one erfc call per pair.  The chunked kernel
must agree with them to a relative 1e-12, pick the same max_pair, and raise
the same errors, for every chunk size.
"""

import csv
import functools
import io
import itertools
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from permlp import bounds, cli, polytope
from permlp.bounds import (
    BoundReport,
    lp_bound_report,
    lp_union_bound,
    ml_bound_report,
    ml_union_bound,
    q_function,
)
from permlp.channel import sigma_from_snr_db
from permlp.codebook import CodeSpec, build_code
from permlp.constraints import (
    ConstraintRow,
    ConstraintSystem,
    Relation,
    block,
    cyclic,
    derangement,
    involution,
    satisfies,
    transposition,
)
from permlp.perm import PermutationMatrix, var_index
from permlp.polytope import (
    RationalMatrix,
    VertexSet,
    enumerate_vertices,
    min_pseudo_distance,
    pseudo_distance,
)

# ---------------------------------------------------------------------------
# Loop oracles
# ---------------------------------------------------------------------------


def oracle_lp_union_bound(x, vs, s, sigma):
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


def oracle_ml_union_bound(x, code, sigma):
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


def oracle_lp_bound_report(vs, s, sigma):
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


def oracle_ml_bound_report(code, sigma):
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


def oracle_min_pseudo_distance(vs, cs, s):
    integral = vs.integral
    if not integral:
        raise ValueError("polytope has no integral vertices")
    if len(vs) < 2:
        raise ValueError("need at least two vertices")
    for v in integral:
        if not satisfies(cs, v.to_permutation()):
            raise ValueError("integral vertex violates the constraint system")
    imgs = np.array([v.image(s) for v in vs.vertices])
    int_idx = [k for k, v in enumerate(vs.vertices) if v.is_integral]
    best = math.inf
    for k in int_idx:
        xs = imgs[k]
        diff = imgs - xs
        norms = np.linalg.norm(diff, axis=1)
        bvals = xs @ xs - imgs @ xs
        for t in range(len(vs)):
            if t == k:
                continue
            if norms[t] < 1e-12:
                raise ValueError("two vertices share an image; pseudo distance undefined")
            best = min(best, bvals[t] / norms[t])
    return float(best)


# ---------------------------------------------------------------------------
# Instances: the acceptance 3/4/5 vertex sets and a singular code
# ---------------------------------------------------------------------------


def _diagonal_row(n, positions, rhs):
    coeffs = {var_index(i, i, n): 1 for i in positions}
    return ConstraintSystem(n, (ConstraintRow.make(coeffs, Relation.EQ, rhs),))


INSTANCES = {
    "cyclic4": lambda: cyclic(4),
    "derangement4": lambda: derangement(4),
    "involution4": lambda: involution(4),
    "transposition4": lambda: transposition(4),
    "transposition4_sym": lambda: transposition(4, with_symmetry=True),
    "block4": lambda: block(4, 2),
    "block4_redundant": lambda: block(4, 2, redundant=True),
    "trace1_n3": lambda: _diagonal_row(3, (1, 2, 3), 1),
    "derangement5": lambda: derangement(5),
    "fixpair5": lambda: _diagonal_row(5, (1, 5), 1),
}
SINGULAR_S = (0.0, 0.0, 1.0, 1.0)
SIGMAS = (1e-3, 0.3, 0.8, 3.0)  # at 1e-3 every term of a distinct-image pair underflows


@functools.lru_cache(maxsize=None)
def _instance(name):
    cs = INSTANCES[name]()
    return cs, enumerate_vertices(cs, cs.n)


def _outcome(fn, *args):
    """The call's result, or ("raises", message) for the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raises", str(exc))


def _raised(outcome):
    return isinstance(outcome, tuple)


def _assert_same(got, want, where):
    if _raised(want):
        assert got == want, where
    elif isinstance(want, BoundReport):
        assert isinstance(got, BoundReport), (where, got)
        assert got.kind == want.kind and got.max_pair == want.max_pair, (where, got, want)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0, err_msg=where)
    else:
        assert isinstance(got, float), (where, got)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0), (where, got, want)


def _calls(cs, vs, code, s):
    """(label, function, args, oracle) for every bound and pseudo distance."""
    calls = [("min_pseudo_distance", min_pseudo_distance, (vs, cs, s), oracle_min_pseudo_distance)]
    for sigma in SIGMAS:
        calls.append((f"lp_bound_report@{sigma}", lp_bound_report, (vs, s, sigma),
                      oracle_lp_bound_report))
        calls.append((f"ml_bound_report@{sigma}", ml_bound_report, (code, sigma),
                      oracle_ml_bound_report))
    for sigma in SIGMAS[1:3]:
        for k, x in enumerate(vs.integral):
            calls.append((f"lp_union_bound[{k}]@{sigma}", lp_union_bound, (x, vs, s, sigma),
                          oracle_lp_union_bound))
        for k in range(len(code)):
            calls.append((f"ml_union_bound[{k}]@{sigma}", ml_union_bound,
                          (code.matrix(k), code, sigma), oracle_ml_union_bound))
    return calls


def _check_against_oracles(cs, vs, s, monkeypatch):
    code = build_code(CodeSpec(cs.n, cs, s))
    calls = _calls(cs, vs, code, s)
    want = [_outcome(oracle, *args) for _, _, args, oracle in calls]
    # 7 gives one start per chunk; 150 gives several, with a short last chunk.
    for chunk in (polytope._PAIR_CHUNK, 7, 150):
        monkeypatch.setattr(polytope, "_PAIR_CHUNK", chunk)
        for (label, fn, args, _), w in zip(calls, want):
            _assert_same(_outcome(fn, *args), w, f"{label}, chunk {chunk}")
    return dict(zip((label for label, *_ in calls), want))


@pytest.mark.parametrize("name", INSTANCES)
def test_bounds_match_loop_oracles(name, monkeypatch):
    cs, vs = _instance(name)
    s = tuple(float(v) for v in range(cs.n))
    want = _check_against_oracles(cs, vs, s, monkeypatch)
    # Every term underflows at the smallest sigma: no pair is strictly
    # largest, so max_pair stays at (1, 1).
    for kind in ("lp", "ml"):
        rep = want[f"{kind}_bound_report@{SIGMAS[0]}"]
        if isinstance(rep, BoundReport):
            assert rep.max_pair == (1, 1) and not any(rep.values), (kind, rep)


def test_singular_code_keeps_q0_terms_and_lp_errors(monkeypatch):
    cs, vs = _instance("derangement4")
    assert build_code(CodeSpec(4, cs, SINGULAR_S)).singular
    want = _check_against_oracles(cs, vs, SINGULAR_S, monkeypatch)
    # Vertices share images, so the LP report and the pseudo distance are
    # undefined (and so is the LP bound of each vertex with a twin) ...
    for label, outcome in want.items():
        if label.startswith(("lp_bound_report", "min_pseudo")):
            assert _raised(outcome), label
    assert any(_raised(want[f"lp_union_bound[{k}]@{SIGMAS[1]}"]) for k in range(9))
    # ... while each ML pair of identical words adds Q(0) = 0.5, even when
    # every other term underflows.
    rep = want[f"ml_bound_report@{SIGMAS[0]}"]
    assert all(v % 0.5 == 0 for v in rep.values) and max(rep.values) >= 0.5, rep
    assert rep.max_pair != (1, 1)


@pytest.mark.parametrize("name", INSTANCES)
def test_vertex_index_matches_tuple_scan(name):
    cs, vs = _instance(name)
    s = tuple(float(v) for v in range(cs.n))
    for x in vs.integral:
        k = vs.vertices.index(x)
        assert bounds._vertex_index(x, vs) == k
        assert bounds._vertex_index(x.to_permutation(), vs) == k
    for v in vs.fractional:
        with pytest.raises(ValueError, match="not an integral vertex"):
            lp_union_bound(v, vs, s, 0.5)
    outsiders = [p for p in map(PermutationMatrix, itertools.permutations(range(1, cs.n + 1)))
                 if not satisfies(cs, p)]
    for p in outsiders[:3] + [PermutationMatrix.identity(cs.n + 1)]:
        with pytest.raises(ValueError, match="not an integral vertex"):
            lp_union_bound(p, vs, s, 0.5)


def test_vertex_index_skips_fractional_vertices_with_integral_floats():
    # 1 - 10^-400 and 10^-400 round to the floats 1 and 0, so this fractional
    # vertex reads as the identity in the float stack.
    eps = Fraction(1, 10**400)
    v = RationalMatrix(((1 - eps, eps), (eps, 1 - eps)))
    vs = VertexSet(2, (v, RationalMatrix.from_permutation(PermutationMatrix((2, 1)))))
    assert (vs.float_stack[0] == np.eye(2)).all()
    identity = PermutationMatrix.identity(2)
    for x in (v, identity, RationalMatrix.from_permutation(identity)):
        with pytest.raises(ValueError, match="not an integral vertex"):
            bounds._vertex_index(x, vs)
    assert bounds._vertex_index(PermutationMatrix((2, 1)), vs) == 1


@pytest.mark.parametrize("sigma", [0.0, -0.5, math.nan])
def test_every_bound_rejects_nonpositive_sigma(sigma):
    cs, vs = _instance("derangement4")
    s = (0.0, 1.0, 2.0, 3.0)
    code = build_code(CodeSpec(4, cs, s))
    for fn, args in [
        (lp_union_bound, (vs.integral[0], vs, s, sigma)),
        (ml_union_bound, (code.matrix(0), code, sigma)),
        (lp_bound_report, (vs, s, sigma)),
        (ml_bound_report, (code, sigma)),
    ]:
        with pytest.raises(ValueError, match="sigma must be positive"):
            fn(*args)


def test_a_tiny_sigma_gives_zero_terms_without_warnings():
    # At 1e-308 most arguments d / (2 sigma) and b / (sigma d) overflow to
    # inf; at the smallest subnormal sigma every one does, and under the
    # scaled s, whose d go down to 0.14, sigma d underflows to 0.  Warnings
    # are errors under pytest.
    cs, vs = _instance("derangement4")
    s = (0.0, 1.0, 2.0, 3.0)
    for scale, sigma in ((1.0, 1e-308), (1.0, 5e-324), (0.1, 5e-324)):
        scaled = tuple(scale * v for v in s)
        lp_report = lp_bound_report(vs, scaled, sigma)
        ml_report = ml_bound_report(build_code(CodeSpec(4, cs, scaled)), sigma)
        assert not any(lp_report.values) and not any(ml_report.values), sigma
        assert lp_report.max_pair == ml_report.max_pair == (1, 1)
    code = build_code(CodeSpec(4, cs, s))
    _assert_same(lp_bound_report(vs, s, 1e-308), oracle_lp_bound_report(vs, s, 1e-308), "lp")
    _assert_same(ml_bound_report(code, 1e-308), oracle_ml_bound_report(code, 1e-308), "ml")
    # The twins of a singular code still add Q(0) = 1/2 each.
    singular = build_code(CodeSpec(4, cs, SINGULAR_S))
    assert ml_bound_report(singular, 5e-324) == oracle_ml_bound_report(singular, 5e-324)


def test_huge_finite_s_is_refused_before_the_kernel(monkeypatch):
    # |x|^2 of s = (0, 1, 2, 1e308) overflows, so b would be inf - inf = NaN.
    cs, vs = _instance("derangement4")
    s = (0.0, 1.0, 2.0, 1e308)
    code = build_code(CodeSpec(4, cs, s))
    calls = _count_kernel_calls(monkeypatch)
    x = vs.integral[0]
    for fn, args in [
        (min_pseudo_distance, (vs, cs, s)),
        (pseudo_distance, (x, vs.integral[1], s)),
        (lp_union_bound, (x, vs, s, 0.5)),
        (ml_union_bound, (code.matrix(0), code, 0.5)),
        (lp_bound_report, (vs, s, 0.5)),
        (ml_bound_report, (code, 0.5)),
    ]:
        with pytest.raises(ValueError, match="initial vector is too large"):
            fn(*args)
    assert not calls
    # Just inside 4 n max|s|^2 < inf every term stays finite; just past it,
    # where n max|s|^2 is still finite, s is refused.
    top = math.sqrt(np.finfo(float).max / 16)
    edge = (-top * (1 - 1e-12), 0.0, 1.0, top * (1 - 1e-12))
    report = ml_bound_report(build_code(CodeSpec(4, cs, edge)), 0.5)
    assert all(math.isfinite(v) for v in report.values)
    assert math.isfinite(min_pseudo_distance(vs, cs, edge))
    with pytest.raises(ValueError, match="initial vector is too large"):
        min_pseudo_distance(vs, cs, (-top * 1.01, 0.0, 1.0, top * 1.01))


def test_bounds_cli_csv_matches_oracles(tmp_path, capsys):
    spec = tmp_path / "der5.json"
    spec.write_text(json.dumps(
        {"n": 5, "s": [0, 1, 2, 3, 4], "constraints": {"family": "derangement"}}))
    assert cli.main(["bounds", str(spec), "--snr", "0:8:2"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    cs, vs = _instance("derangement5")
    s = (0.0, 1.0, 2.0, 3.0, 4.0)
    code = build_code(CodeSpec(5, cs, s))
    x = code.matrix(0)  # the CLI transmits the first codeword by default
    assert [r["snr_db"] for r in rows] == ["0", "2", "4", "6", "8"]
    for row in rows:
        sigma = sigma_from_snr_db(float(row["snr_db"]))
        assert row["sigma"] == f"{sigma:.9g}"
        for kind, want in (("lp", oracle_lp_union_bound(x, vs, s, sigma)),
                           ("ml", oracle_ml_union_bound(x, code, sigma))):
            # The CSV prints nine significant digits.
            assert float(row[f"{kind}_bound"]) == pytest.approx(want, rel=1e-8, abs=0)
            assert float(row[f"{kind}_bound_clamped"]) == pytest.approx(min(want, 1.0), rel=1e-8)


# ---------------------------------------------------------------------------
# The pair spectrum memo: a later sigma gathers from the first one's spectrum
# ---------------------------------------------------------------------------

IRREGULAR_S = (0.0, 0.35, 1.9, 2.25, 4.1)


def _bits(outcome):
    """The outcome with every float in hex, so that equal means bit for bit."""
    if isinstance(outcome, BoundReport):
        return outcome.kind, tuple(v.hex() for v in outcome.values), outcome.max_pair
    return outcome.hex() if isinstance(outcome, float) else outcome


def _memo_results(cs, vs, code, s, sigmas):
    out = []
    for sigma in sigmas:
        for fn, args in [
            (min_pseudo_distance, (vs, cs, s)),
            (lp_bound_report, (vs, s, sigma)),
            (ml_bound_report, (code, sigma)),
            (lp_union_bound, (vs.integral[-1], vs, s, sigma)),
            (ml_union_bound, (code.matrix(len(code) - 1), code, sigma)),
        ]:
            out.append(_bits(_outcome(fn, *args)))
    return out


def _fresh(obj):
    """A copy of a code or vertex set without its memo."""
    return pickle.loads(pickle.dumps(obj))


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = polytope.pairwise_terms

    def counted(images, starts, with_b):
        calls.append((images.shape, tuple(starts.tolist())))
        return kernel(images, starts, with_b)

    monkeypatch.setattr(polytope, "pairwise_terms", counted)
    return calls


@pytest.mark.parametrize("irregular", [False, True])
@pytest.mark.parametrize("name", ["trace1_n3", "transposition4", "derangement5"])
def test_later_sigma_gathers_bit_for_bit(name, irregular, monkeypatch):
    cs, vs = _instance(name)
    s = IRREGULAR_S[: cs.n] if irregular else tuple(float(v) for v in range(cs.n))
    code = build_code(CodeSpec(cs.n, cs, s))
    vs = _fresh(vs)
    _memo_results(cs, vs, code, s, (0.3,))
    calls = _count_kernel_calls(monkeypatch)
    warm = _memo_results(cs, vs, code, s, (0.8, 1e-3))
    assert not calls  # every spectrum came from the memo
    assert warm == _memo_results(cs, _fresh(vs), _fresh(code), s, (0.8, 1e-3))


def test_streaming_past_the_memo_cap_matches_the_memo(monkeypatch):
    cs, vs = _instance("derangement5")
    s = IRREGULAR_S
    code = build_code(CodeSpec(5, cs, s))
    cached = _memo_results(cs, _fresh(vs), _fresh(code), s, SIGMAS)
    # derangement(5) has 44 codewords and 44 vertices, all integral.  A cap of
    # 44^2 pairs holds each full report but none of the single starts after it.
    for cap in (0, len(code) ** 2):
        monkeypatch.setattr(polytope, "_MEMO_PAIRS", cap)
        fresh_vs, fresh_code = _fresh(vs), _fresh(code)
        assert _memo_results(cs, fresh_vs, fresh_code, s, SIGMAS) == cached
        held = [vars(obj).get("_pair_spectra", {}) for obj in (fresh_vs, fresh_code)]
        assert [len(memo) for memo in held] == ([0, 0] if cap == 0 else [1, 1])


def test_a_second_s_gets_its_own_spectrum():
    cs, vs = _instance("derangement5")
    vs = _fresh(vs)
    first = _bits(lp_bound_report(vs, (0.0, 1.0, 2.0, 3.0, 4.0), 0.5))
    second = _bits(lp_bound_report(vs, IRREGULAR_S, 0.5))
    assert second != first
    assert second == _bits(lp_bound_report(_fresh(vs), IRREGULAR_S, 0.5))
    assert min_pseudo_distance(vs, cs, IRREGULAR_S) == min_pseudo_distance(
        _fresh(vs), cs, IRREGULAR_S)


def test_pickled_objects_carry_no_memo():
    cs, vs = _instance("trace1_n3")
    vs = _fresh(vs)
    code = build_code(CodeSpec(3, cs, (0.0, 1.0, 2.0)))
    lp_bound_report(vs, (0.0, 1.0, 2.0), 0.5)
    ml_bound_report(code, 0.5)
    for obj in (vs, code):
        assert vars(obj)["_pair_spectra"]
        copy = _fresh(obj)
        assert copy == obj and "_pair_spectra" not in vars(copy)
    assert _fresh(vs).stats == vs.stats


def test_memo_is_keyed_by_chunk_size(monkeypatch):
    _, vs = _instance("derangement5")
    vs = _fresh(vs)
    s = (0.0, 1.0, 2.0, 3.0, 4.0)
    calls = _count_kernel_calls(monkeypatch)
    lp_bound_report(vs, s, 0.5)
    monkeypatch.setattr(polytope, "_PAIR_CHUNK", 7)
    lp_bound_report(vs, s, 0.5)
    lp_bound_report(vs, s, 0.8)
    assert len(calls) == 2


def test_bounds_cli_runs_the_kernel_once_per_object(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "der5.json"
    spec.write_text(json.dumps(
        {"n": 5, "s": [0, 1, 2, 3, 4], "constraints": {"family": "derangement"}}))
    calls = _count_kernel_calls(monkeypatch)
    assert cli.main(["bounds", str(spec), "--snr", "0:49:1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 51
    # One start, the first codeword, against the 44 vertex images and then
    # against the 44 codewords.
    assert [(shape, len(starts)) for shape, starts in calls] == [((44, 5), 1), ((44, 5), 1)]


# ---------------------------------------------------------------------------
# The memo against the formulas it replaced: the (rows, m, n) difference array
# and one complex np.unique per LP chunk
# ---------------------------------------------------------------------------


def _reference_spectra(images, starts, with_b):
    """Chunk spectra by the (rows, m, n) difference array and complex np.unique.

    On integer images this is the former kernel bit for bit: every squared
    distance is an exact integer, so einsum's sum, whose order follows the
    machine's SIMD width, is the new kernel's sum.  On fractional images the
    two sums can differ in the last bit, so there d adds the squares column by
    column, as the new kernel does, and only the (b, d) deduplication is the
    former one; d itself is pinned there by the loop oracles at 1e-12.
    """
    m = len(images)
    step = max(1, polytope._PAIR_CHUNK // m)
    integer = np.array_equal(images, np.round(images))
    for lo in range(0, len(starts), step):
        idx = starts[lo : lo + step]
        x = images[idx]
        diff = images[None, :, :] - x[:, None, :]
        b = np.einsum("rj,rj->r", x, x)[:, None] - x @ images.T
        if integer:
            d = np.sqrt(np.einsum("rtj,rtj->rt", diff, diff))
        else:
            d = np.sqrt(functools.reduce(np.add, np.moveaxis(diff * diff, 2, 0)))
        other = np.arange(m) != idx[:, None]
        if with_b:
            values = np.empty(np.count_nonzero(other), dtype=complex)
            values.real, values.imag = b[other], d[other]
        else:
            values = d[other]
        keys, index = np.unique(values, return_inverse=True)
        inverse = np.full(other.shape, len(keys), dtype=np.min_scalar_type(len(keys)))
        inverse[other] = index.reshape(-1)
        yield ((keys.real, keys.imag) if with_b else (keys,)), inverse


def _assert_same_spectra(got, want, where):
    got, want = list(got), list(want)
    assert len(got) == len(want), where
    for k, ((got_keys, got_inv), (want_keys, want_inv)) in enumerate(zip(got, want)):
        assert len(got_keys) == len(want_keys), (where, k)
        for g, w in zip(got_keys, want_keys):
            assert g.dtype == w.dtype and g.tobytes() == np.ascontiguousarray(w).tobytes(), (where, k)
        assert got_inv.dtype == want_inv.dtype and np.array_equal(got_inv, want_inv), (where, k)


@pytest.mark.parametrize("chunk", [None, 7, 150])
@pytest.mark.parametrize("name", [*INSTANCES, "derangement4_singular"])
def test_memo_equals_the_difference_array_reference(name, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(polytope, "_PAIR_CHUNK", chunk)
    singular = name.endswith("_singular")
    cs, vs = _instance(name.removesuffix("_singular"))
    s = SINGULAR_S if singular else tuple(float(v) for v in range(cs.n))
    code = build_code(CodeSpec(cs.n, cs, s))
    vs = _fresh(vs)
    images = vs.images(s)
    for owner, imgs, starts, with_b in [
        (vs, images, np.flatnonzero(vs.integral_mask), True),
        (vs, images, np.flatnonzero(vs.integral_mask)[-1:], True),
        (code, code.codewords, np.arange(len(code)), False),
        (code, code.codewords, np.arange(len(code))[:1], False),
    ]:
        got = polytope._pair_spectra(owner, "pin", imgs, starts, with_b)
        where = (name, chunk, with_b, len(starts))
        _assert_same_spectra(got, _reference_spectra(imgs, starts, with_b), where)


def test_spectra_keep_their_shape_when_unique_flattens_the_inverse(monkeypatch):
    # numpy 1.x returns np.unique's inverse of a 2-D array flattened.
    cs, vs = _instance("fixpair5")
    s = tuple(float(v) for v in range(cs.n))
    code = build_code(CodeSpec(cs.n, cs, s))
    want = (lp_bound_report(_fresh(vs), s, 0.7), ml_bound_report(_fresh(code), 0.7))
    unique = np.unique

    def flat_unique(values, *args, **kwargs):
        out = unique(values, *args, **kwargs)
        if kwargs.get("return_inverse"):
            out = (*out[:-1], out[-1].reshape(-1))
        return out

    monkeypatch.setattr(np, "unique", flat_unique)
    assert (lp_bound_report(_fresh(vs), s, 0.7), ml_bound_report(_fresh(code), 0.7)) == want


def _float_stack_by_entry(vs):
    return np.array([[float(e) for row in v.entries for e in row] for v in vs.vertices],
                    dtype=float).reshape(-1, vs.n, vs.n)


@pytest.mark.parametrize("name", INSTANCES)
def test_float_stack_equals_float_of_each_fraction(name):
    _, vs = _instance(name)
    got = _fresh(vs).float_stack
    assert got.tobytes() == _float_stack_by_entry(vs).tobytes()
    for v, m in zip(vs.vertices, got):
        assert v.to_float().tobytes() == m.tobytes()


def test_float_stack_past_two_to_the_53_converts_entry_by_entry():
    p = (1 << 53) + 1
    a, b = Fraction(1, p), Fraction(p - 1, p)
    v = RationalMatrix(((a, b), (b, a)))
    vs = VertexSet(2, (RationalMatrix.from_permutation(PermutationMatrix((1, 2))), v))
    want = _float_stack_by_entry(vs)
    # Dividing the rounded numerator by the rounded denominator is off here.
    assert float(a.numerator) / float(a.denominator) != float(a)
    assert float(b.numerator) / float(b.denominator) != float(b)
    assert vs.float_stack.tobytes() == want.tobytes()
    assert v.to_float().tobytes() == want[1].tobytes()
