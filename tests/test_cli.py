"""Command-line interface: output formats, exit codes, flag handling."""

import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlp.channel import _MAX_ENSEMBLE_ROWS, _MAX_ENSEMBLE_SAMPLES
from permlp.cli import _MAX_SNR_POINTS, _parse_snr_grid, main
from permlp.constraints import _BITSET_MAX_DEGREE, _COUNTER_MAX_DEGREE
from permlp.specfile import SpecFileError

DER4 = {"n": 4, "s": [0, 1, 2, 3], "constraints": {"family": "derangement"}}
PINV6 = {"n": 6, "s": [0, 1, 2, 3, 4, 5], "constraints": {"family": "pure_involution"}}
TRACE1 = {
    "n": 3,
    "s": [0, 1, 2],
    "constraints": {
        "rows": [{"coeffs": {"1": 1, "5": 1, "9": 1}, "rel": "eq", "rhs": 1}]
    },
}
INFEASIBLE = {
    "n": 2,
    "s": [0, 1],
    "constraints": {
        "rows": [{"coeffs": {"1": 1}, "rel": "eq", "rhs": 1},
                 {"coeffs": {"1": 1}, "rel": "eq", "rhs": 0}]
    },
}
# 2*X11 = 1 leaves a nonempty polytope with no permutation matrices, so
# LP decoding fails deterministically for any received vector.
HALFPIN = {
    "n": 3,
    "s": [0, 1, 2],
    "constraints": {
        "rows": [{"coeffs": {"1": 2}, "rel": "eq", "rhs": 1}]
    },
}


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, doc in [
        ("der4", DER4),
        ("pinv6", PINV6),
        ("trace1", TRACE1),
        ("infeasible", INFEASIBLE),
        ("halfpin", HALFPIN),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_json(specs, capsys):
    code, out, _ = _run(capsys, "build", specs["der4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cardinality"] == 9
    assert doc["n"] == 4
    assert doc["singular"] is False
    assert doc["min_hamming_distance"] == 2
    assert "codewords" not in doc


def test_build_dump_codewords(specs, capsys):
    code, out, _ = _run(capsys, "build", specs["der4"], "--dump")
    doc = json.loads(out)
    assert len(doc["codewords"]) == 9
    assert [1.0, 0.0, 3.0, 2.0] in doc["codewords"]


def test_decode_success_and_exit_zero(specs, capsys):
    code, out, _ = _run(
        capsys, "decode", specs["der4"], "-y", "1.1,-0.2,3.05,2.2", "--decoder", "both"
    )
    assert code == 0
    assert "lp: 1 0 3 2" in out
    assert "ml: 1 0 3 2" in out


def test_decode_failure_exit_two(specs, capsys):
    code, out, _ = _run(capsys, "decode", specs["halfpin"], "-y", "1.5,0.6,1.0")
    assert code == 2
    assert "lp: FAILURE" in out
    # The fractional optimum is printed row by row.
    assert out.count("\n  ") >= 3 or out.count("  ") >= 3


# Three received words for pinv6: a certificate hit, a miss whose optimum is
# the same codeword, and a fractional optimum; the first word comes again.
# The expected text is the four single-word outputs, concatenated.
_WORDS = ["1.1,0.05,3.02,1.9,5.1,3.9", "1.28,0.66,3.26,0.96,5.72,4.36",
          "1.51,1.58,-0.47,4.36,4.91,6.67", "1.1,0.05,3.02,1.9,5.1,3.9"]
_HIT = "lp: 1 0 3 2 5 4\nlp_objective: 55.06\nml: 1 0 3 2 5 4\n"
_WORDS_OUT = (
    _HIT
    + "lp: 1 0 3 2 5 4\nlp_objective: 59.02\nml: 1 0 3 2 5 4\n"
    + "lp: FAILURE\n"
    + "  0 0.5 0.5 0 0 0\n  0.5 0 0.5 0 0 0\n  0.5 0.5 0 0 0 0\n"
    + "  0 0 0 0 0.5 0.5\n  0 0 0 0.5 0 0.5\n  0 0 0 0.5 0.5 0\n"
    + "lp_objective: 66.215\nml: 2 3 0 1 5 4\n"
    + _HIT
)


def test_decode_several_words_in_one_batch(specs, capsys):
    argv = [a for w in _WORDS for a in ("-y", w)]
    code, out, _ = _run(capsys, "decode", specs["pinv6"], *argv, "--decoder", "both")
    assert (code, out) == (2, _WORDS_OUT)  # one fractional word makes the exit 2
    alone = []
    for w in _WORDS:
        alone.append(_run(capsys, "decode", specs["pinv6"], "-y", w, "--decoder", "both"))
    assert [c for c, _, _ in alone] == [0, 0, 2, 0]
    assert "".join(o for _, o, _ in alone) == _WORDS_OUT


def test_decode_infeasible_exit_three(specs, capsys):
    code, _, err = _run(capsys, "decode", specs["infeasible"], "-y", "0.5,0.5")
    assert code == 3
    assert "error:" in err


def test_invalid_spec_exit_three(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2}')
    code, _, err = _run(capsys, "decode", str(p), "-y", "0,1")
    assert code == 3
    assert "error:" in err


def test_encode_decode_message_round_trip(specs, capsys):
    code, out, _ = _run(capsys, "encode", specs["pinv6"], "5")
    assert code == 0
    perm_line = next(l for l in out.splitlines() if l.startswith("perm: "))
    perm = perm_line.split(" ", 1)[1]
    code, out, _ = _run(capsys, "decode-message", specs["pinv6"], "--perm", perm)
    assert code == 0
    assert "message: 5" in out


def test_encode_zero_indexed(specs, capsys):
    _, out_one, _ = _run(capsys, "encode", specs["pinv6"], "5")
    _, out_zero, _ = _run(capsys, "encode", specs["pinv6"], "4", "--zero-indexed")
    assert out_one == out_zero
    code, out, _ = _run(
        capsys,
        "decode-message",
        specs["pinv6"],
        "--perm",
        "2,1,5,6,3,4",
        "--zero-indexed",
    )
    assert "message: 0" in out


def test_encode_out_of_range_exit_three(specs, capsys):
    code, _, err = _run(capsys, "encode", specs["pinv6"], "16")
    assert code == 3


def test_vertices_json_rationals(specs, capsys):
    code, out, _ = _run(capsys, "vertices", specs["trace1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["num_vertices"] == 5
    assert doc["num_integral"] == 3
    assert doc["num_fractional"] == 2
    cells = {
        cell for v in doc["vertices"] for row in v["matrix"] for cell in row
    }
    assert "1/3" in cells and "2/3" in cells


def test_bounds_csv(specs, capsys):
    code, out, _ = _run(capsys, "bounds", specs["der4"], "--snr", "0:8:2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    lp = [float(r["lp_bound"]) for r in rows]
    assert lp == sorted(lp, reverse=True)  # decreasing in SNR
    for r in rows:
        assert float(r["lp_bound_clamped"]) <= 1.0
        assert float(r["ml_bound_clamped"]) <= 1.0
        assert float(r["lp_bound"]) >= float(r["ml_bound"]) - 1e-12


def test_snr_grid_cap_counts_points():
    assert len(_parse_snr_grid(f"0:{_MAX_SNR_POINTS - 1}:1")) == _MAX_SNR_POINTS
    with pytest.raises(SpecFileError, match="more than"):
        _parse_snr_grid(f"0:{_MAX_SNR_POINTS}:1")


def _accumulated_grid(start, stop, step):
    """The grid loop as it stood with an absolute stop tolerance, for steps near 1."""
    grid, v = [], start
    while v <= stop + 1e-9:
        grid.append(round(v, 12))
        v += step
    return grid


@pytest.mark.parametrize("text", ["0:8:2", "0:1:0.1", "-2:10:0.5", "0:8:0.25", "0:0.3:0.1"])
def test_snr_grid_keeps_accumulated_points(text):
    assert _parse_snr_grid(text) == _accumulated_grid(*map(float, text.split(":")))


def test_snr_grid_tolerance_follows_the_step():
    # One point is asked for; an absolute tolerance of 1e-9 made it 1,000.
    assert _parse_snr_grid("0:0:1e-12") == [0.0]
    fine = _parse_snr_grid("0:1e-9:1e-12")
    assert len(fine) == len(set(fine)) == 1001
    # Rounded to 12 decimals, a finer step would repeat points.
    with pytest.raises(SpecFileError, match="step must be at least"):
        _parse_snr_grid("0:1e-10:1e-13")


def test_simulate_csv_deterministic(specs, capsys):
    args = (
        "simulate",
        specs["der4"],
        "--snr",
        "2:4:2",
        "--trials",
        "100",
        "--seed",
        "9",
    )
    code, out1, _ = _run(capsys, *args)
    assert code == 0
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert len(rows) == 2
    assert rows[0]["trials"] == "100" and rows[0]["seed"] == "9"
    assert int(rows[0]["lp_errors"]) >= int(rows[0]["lp_failures"])


def test_global_flag_position_equivalent(specs, capsys):
    a = ("--seed", "7", "simulate", specs["der4"], "--snr", "4", "--trials", "50")
    b = ("simulate", specs["der4"], "--snr", "4", "--trials", "50", "--seed", "7")
    _, out_a, _ = _run(capsys, *a)
    _, out_b, _ = _run(capsys, *b)
    assert out_a == out_b


def test_ensemble_csv_and_summary(capsys):
    code, out, err = _run(
        capsys, "ensemble", "--n", "4", "--m", "3", "--samples", "10", "--seed", "2"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert "formula=" in err and "mean=" in err


def test_out_file_option(specs, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "build", specs["der4"], "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["cardinality"] == 9


@pytest.mark.parametrize(
    "word,accepted",
    [("1,0,3,2", True), ("1,0,3,2.00002", False), ("1,0,3,2.0000000000001", False),
     ("0,1,2,3", False)],
)
def test_bounds_and_simulate_match_words_alike(specs, capsys, word, accepted):
    # Both subcommands take --word only when it equals a codeword exactly.
    bounds = _run(capsys, "bounds", specs["der4"], "--snr", "4", "--word", word)
    simulate = _run(
        capsys, "simulate", specs["der4"], "--snr", "4", "--trials", "5", "--word", word
    )
    for code, _, err in (bounds, simulate):
        if accepted:
            assert code == 0
        else:
            assert code == 3 and "not a codeword" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "der4", "--snr", "4", "--trials", "0"),
        ("simulate", "der4", "--snr", "4", "--trials", "5", "--word", "0,1,2,3"),
        ("ensemble", "--n", "4", "--m", "3", "--samples", "0"),
        ("ensemble", "--n", "4", "--m", "-1", "--samples", "3"),
        ("decode", "der4", "-y", "nan,0,1,2", "--decoder", "both"),
        ("decode", "der4", "-y", "1,0,inf,2"),
        ("decode", "der4", "-y", "1,0,3,-inf", "--decoder", "ml"),
        ("decode", "nan_s", "-y", "1,0,3,2"),
        ("bounds", "infinity_s", "--snr", "4"),
        ("build", "nan_s"),
        ("simulate", "der4", "--snr", "0:inf:1", "--trials", "5"),
        ("bounds", "der4", "--snr", "0:inf:1"),
        ("simulate", "der4", "--snr", "0:nan:1", "--trials", "5"),
        ("bounds", "der4", "--snr", "nan"),
        ("simulate", "der4", "--snr", "0:1:1e-6", "--trials", "1"),
        ("bounds", "der4", "--snr", "0:1:5e-324"),
        ("bounds", "der4", "--snr", "four"),
        ("bounds", "der4", "--snr", "0:1e-10:1e-13"),
        ("simulate", "der4", "--snr", "0:0:5e-13", "--trials", "1"),
        ("simulate", "der4", "--snr", "4", "--trials", "5", "--seed", "-1"),
        ("ensemble", "--n", "4", "--m", "3", "--samples", "3", "--seed", "-1"),
        ("decode", "der3", "-y=-1e308,2,1e308"),
        ("decode", "der3", "-y=-1e308,2,1e308", "--decoder", "ml"),
        ("decode", "huge_s", "-y", "0,1,2", "--decoder", "both"),
    ],
    ids=["trials0", "non_codeword", "samples0", "negative_m", "decode_nan", "decode_inf",
         "decode_minus_inf", "spec_nan_decode", "spec_infinity_bounds", "spec_nan_build",
         "snr_inf_stop_simulate", "snr_inf_stop_bounds", "snr_nan_stop", "snr_nan",
         "snr_grid_too_long", "snr_step_underflow", "snr_not_a_number",
         "snr_step_below_rounding_bounds", "snr_step_below_rounding_simulate",
         "simulate_negative_seed", "ensemble_negative_seed", "decode_overflow_y",
         "decode_ml_overflow_y", "decode_overflow_s"],
)
def test_invalid_run_inputs_exit_three(specs, capsys, tmp_path, argv):
    # "der4" stands for the path of that spec file.  The "*_s" specs hold NaN
    # or Infinity in s, which json.dumps writes and json reads.
    paths = dict(specs)
    for name, bad in (("nan_s", float("nan")), ("infinity_s", float("inf"))):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps({**DER4, "s": [0, bad, 2, 3]}))
    # Degree 3, with s = 0, 1, 2 and with huge finite entries in s.
    for name, s in (("der3", [0, 1, 2]), ("huge_s", [-1e308, 0, 1e308])):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps({**DER4, "n": 3, "s": s}))
    code, _, err = _run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [("--n", "3", "--m", "100000000000", "--samples", "1"),
     ("--n", "3", "--m", "2", "--samples", "1000000000000")],
    ids=["m_too_large", "samples_too_large"],
)
def test_ensemble_counts_past_the_caps_exit_three(tmp_path, capsys, argv):
    target = tmp_path / "sizes.csv"
    code, out, err = _run(capsys, "ensemble", *argv, "--out", str(target))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "exceeds the cap" in err and "Traceback" not in err
    assert not target.exists()


def _family_spec(tmp_path, family, n):
    path = tmp_path / f"{family}{n}.json"
    path.write_text(json.dumps({"n": n, "s": list(range(n)), "constraints": {"family": family}}))
    return str(path)


def _derangement_spec(tmp_path, n):
    return _family_spec(tmp_path, "derangement", n)


def test_bounds_shared_image_exits_three_and_writes_nothing(tmp_path, capsys):
    # Another vertex shares the sent word's image under this s, so the LP
    # bound is undefined at every SNR point.
    spec = tmp_path / "shared.json"
    spec.write_text(json.dumps({"n": 4, "s": [0, 0, 1, 1], "constraints": {"family": "involution"}}))
    target = tmp_path / "f.csv"
    code, out, err = _run(capsys, "bounds", str(spec), "--snr", "0:8:0.5", "--out", str(target))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "share" in err and "Traceback" not in err
    assert not target.exists()


def test_bounds_huge_finite_s_exits_three_and_writes_nothing(tmp_path, capsys):
    # |x|^2 overflows for this s, which would put NaN in every LP column.
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({**DER4, "s": [0, 1, 2, 1e308]}))
    target = tmp_path / "f.csv"
    code, out, err = _run(capsys, "bounds", str(spec), "--snr", "0:8:2", "--out", str(target))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "too large" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not target.exists()


@pytest.mark.parametrize("coeffs", [{"1": 2**53 + 1, "4": -(2**53)}, {"1": 2**63 + 5}],
                         ids=["past_float64", "past_int64"])
def test_rows_reaching_2_53_exit_three_and_write_nothing(tmp_path, capsys, coeffs):
    # Float64 rows would round the first away from the identity it holds at;
    # the second would overflow the int64 membership rows.
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"n": 2, "s": [0, 1], "constraints": {
        "rows": [{"coeffs": coeffs, "rel": "eq", "rhs": 1}]}}))
    for argv in (("build",), ("vertices",), ("decode", "-y", "0,1")):
        target = tmp_path / "f.out"
        code, out, err = _run(capsys, argv[0], str(spec), *argv[1:], "--out", str(target))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "2^53" in err and "Traceback" not in err
        assert not target.exists()


def test_lp_fixed_word_and_ensembles_run_past_the_table_cap(tmp_path, capsys):
    word = ",".join(str(v) for v in [11] + list(range(11)))
    code, out, _ = _run(capsys, "simulate", _derangement_spec(tmp_path, 12), "--snr", "0:6:3",
                        "--trials", "20", "--decoder", "lp", "--word", word)
    assert code == 0 and len(list(csv.DictReader(io.StringIO(out)))) == 3
    code, out, err = _run(capsys, "ensemble", "--n", "12", "--m", "90", "--samples", "10")
    assert code == 0 and len(list(csv.DictReader(io.StringIO(out)))) == 10
    assert "formula=" in err
    # The counter's ceiling, not --brute-force-cap, bounds the ensembles.
    code, _, err = _run(capsys, "ensemble", "--n", "13", "--m", "90", "--samples", "2",
                        "--brute-force-cap", "4")
    assert code == 0
    code, out, err = _run(capsys, "ensemble", "--n", "17", "--m", "90", "--samples", "2")
    assert code == 3 and out == "" and err == "error: degree 17 exceeds the counter ceiling 16\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("build",),
        ("bounds", "--snr", "4"),
        ("decode", "-y", ",".join(str(v) for v in range(11)), "--decoder", "ml"),
        ("simulate", "--snr", "4", "--trials", "2", "--decoder", "lp"),
        ("simulate", "--snr", "4", "--trials", "2", "--decoder", "ml",
         "--word", ",".join(str(v) for v in [10] + list(range(10)))),
    ],
    ids=["build", "bounds", "decode_ml", "simulate_random_words", "simulate_ml_fixed_word"],
)
def test_enumerating_commands_keep_the_table_cap(tmp_path, capsys, argv):
    code, out, err = _run(capsys, argv[0], _derangement_spec(tmp_path, 11), *argv[1:])
    assert code == 3 and out == ""
    assert err == "error: refusing to enumerate 11! permutations (cap 10)\n"


def test_decode_both_refused_by_ml_writes_no_file(tmp_path, capsys):
    # The LP decode succeeds at degree 11; the ML codebook is then refused.
    target = tmp_path / "d.out"
    word = ",".join(str(v) for v in [10] + list(range(10)))
    code, out, err = _run(capsys, "decode", _derangement_spec(tmp_path, 11), "-y", word,
                          "--decoder", "both", "--out", str(target))
    assert code == 3 and out == ""
    assert err == "error: refusing to enumerate 11! permutations (cap 10)\n"
    assert not target.exists()


def test_derangement_6_vertices_and_bounds_need_no_basis_walk(tmp_path, capsys):
    spec = _derangement_spec(tmp_path, 6)
    code, out, _ = _run(capsys, "vertices", spec)
    doc = json.loads(out)
    assert code == 0 and doc["num_vertices"] == doc["num_integral"] == 265
    code, out, _ = _run(capsys, "bounds", spec, "--snr", "0:8:4")
    assert code == 0 and len(list(csv.DictReader(io.StringIO(out)))) == 3


def test_derangement_10_vertices_exit_three_on_the_work_budget(tmp_path, capsys):
    code, out, err = _run(capsys, "vertices", _derangement_spec(tmp_path, 10))
    assert code == 3 and out == ""
    assert err.startswith("error: over 60000 permutations") and "Traceback" not in err


def test_pure_involution_8_vertices_and_bounds(tmp_path, capsys):
    # The symmetric polytope's 1,057 vertices come by closed form.
    spec = _family_spec(tmp_path, "pure_involution", 8)
    code, out, _ = _run(capsys, "vertices", spec)
    doc = json.loads(out)
    assert code == 0 and (doc["num_vertices"], doc["num_integral"]) == (1_057, 105)
    code, out, _ = _run(capsys, "bounds", spec, "--snr", "0:8:4")
    assert code == 0 and len(list(csv.DictReader(io.StringIO(out)))) == 3


@pytest.mark.parametrize("family,n", [("pure_involution", 12), ("involution", 10)])
def test_symmetric_vertices_exit_three_on_the_work_budget(tmp_path, capsys, family, n):
    # pure_involution(12) has 13,067,659 vertices and involution(10) 635,984,
    # n^2 units each: past 6e6, refused before any is listed.
    code, out, err = _run(capsys, "vertices", _family_spec(tmp_path, family, n))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "units of work exceed" in err and "Traceback" not in err


@pytest.mark.parametrize("nu", [3, 2])
def test_block_6_vertices_exit_three_on_the_work_budget(tmp_path, capsys, nu):
    # The cuts' second row would test tens of millions of vertex pairs
    # against every vertex: refused before the test runs.
    path = tmp_path / f"block6_{nu}.json"
    path.write_text(json.dumps({"n": 6, "s": list(range(6)),
                                "constraints": {"family": "block", "params": {"nu": nu}}}))
    code, out, err = _run(capsys, "vertices", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "units of work exceed" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decode", "der4", "-y", "-0.5,1.2,2,3"),
        ("simulate", "der4", "--snr", "4", "--trials", "5", "--word", "-1,0,3,2"),
        ("bounds", "der4", "--snr", "-2:4:2"),
        ("decode", "der4"),
        ("simulate", "der4", "--snr", "4", "--trials", "x"),
    ],
    ids=["negative_y", "negative_word", "negative_snr", "missing_y", "trials_not_int"],
)
def test_usage_errors_exit_three(specs, capsys, argv):
    # argparse's own exit code, 2, is the one reserved for a fractional optimum.
    code, out, err = _run(capsys, *(specs.get(a, a) for a in argv))
    assert code == 3 and out == ""
    assert err.startswith("usage: permlp ") and "error:" in err


def test_help_exits_zero(capsys):
    code, out, err = _run(capsys, "decode", "--help")
    assert code == 0 and "--received" in out and err == ""


def test_values_that_start_with_minus_follow_an_equals_sign(specs, capsys):
    code, out, _ = _run(capsys, "decode", specs["der4"], "-y=-0.5,1.2,2,3")
    assert code == 0 and out.startswith("lp: ")
    code, out, _ = _run(capsys, "simulate", specs["der4"], "--snr=-2:0:2", "--trials", "3")
    assert code == 0
    assert [row["snr_db"] for row in csv.DictReader(io.StringIO(out))] == ["-2", "0"]


@st.composite
def _spec_docs(draw):
    """Spec documents of every family at n = 1..5, s with repeats allowed."""
    n = draw(st.integers(1, 5))
    family = draw(st.sampled_from(["derangement", "involution", "pure_involution",
                                   "transposition", "cyclic", "repetition", "block"]))
    divisor = st.sampled_from([d for d in range(1, n + 1) if n % d == 0])
    params = {
        "transposition": {"with_symmetry": st.booleans()},
        "repetition": {"eta": divisor},
        "block": {"nu": divisor, "redundant": st.booleans()},
    }.get(family, {})
    s = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    constraints = {"family": family}
    if params:
        constraints["params"] = {k: draw(v) for k, v in params.items()}
    return {"n": n, "s": s, "constraints": constraints}


def _vector_texts(doc):
    """Comma-separated words: permutations of s, and wrong, non-finite, huge or empty ones."""
    n = doc["n"]
    entries = st.floats(-4, 4).map(repr)
    special = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308"])
    right = st.lists(entries, min_size=n, max_size=n)
    return st.one_of(
        st.permutations([repr(float(v)) for v in doc["s"]]).map(",".join),
        right.map(",".join),
        st.tuples(right, st.integers(0, n - 1), special).map(
            lambda t: ",".join(t[0][: t[1]] + [t[2]] + t[0][t[1] + 1 :])),
        st.lists(entries, min_size=1, max_size=n + 2).filter(lambda v: len(v) != n).map(",".join),
        st.just(""),
    )


def _option(flag, value, equals):
    # Without '=', a value that starts with '-' is a usage error (exit 3).
    return [f"{flag}={value}"] if equals else [flag, value]


@st.composite
def _decode_and_simulate_runs(draw):
    doc = draw(_spec_docs())
    decoder = draw(st.sampled_from(["lp", "ml", "both"]))
    if draw(st.booleans()):
        argv = ["decode", None, "--decoder", decoder]
        for _ in range(draw(st.integers(1, 2))):
            argv += _option("-y", draw(_vector_texts(doc)), draw(st.booleans()))
    else:
        start, step = draw(st.integers(-4, 8)), draw(st.integers(1, 4))
        argv = ["simulate", None, "--decoder", decoder, "--trials", str(draw(st.integers(1, 5)))]
        argv += _option("--snr", f"{start}:{start + step}:{step}", draw(st.booleans()))
        if draw(st.booleans()):
            argv += _option("--word", draw(_vector_texts(doc)), draw(st.booleans()))
    return doc, argv


@given(_decode_and_simulate_runs())
def test_decode_and_simulate_keep_the_exit_code_contract(run):
    doc, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        argv[1] = os.path.join(tmp, "spec.json")
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert code != 2 or "lp: FAILURE" in out.getvalue()


@st.composite
def _ensemble_runs(draw):
    """``permlp ensemble`` arguments around every refusal: degrees, counts and seeds.

    Degrees 13 up to the counter ceiling are left out, so that no accepted
    run takes the slow dynamic program of n = 16, and an m near its cap
    takes a degree that the bitset kernel counts.
    """
    # The last values of each range stand for values at and past the caps.
    m = draw(st.integers(-1, 63))
    m = {61: _MAX_ENSEMBLE_ROWS - 1, 62: _MAX_ENSEMBLE_ROWS, 63: _MAX_ENSEMBLE_ROWS + 1}.get(m, m)
    top = 12 if m <= 60 else _BITSET_MAX_DEGREE
    n = draw(st.integers(-2, top + 2))
    n = {top + 1: _COUNTER_MAX_DEGREE + 1, top + 2: 18}.get(n, n)
    samples = draw(st.integers(-1, 5))
    samples = _MAX_ENSEMBLE_SAMPLES + 1 if samples == 5 else samples
    seed = draw(st.integers(-2, 9))
    return ["ensemble", f"--n={n}", f"--m={m}", f"--samples={samples}", f"--seed={seed}"]


@settings(max_examples=60)
@given(_ensemble_runs())
def test_ensemble_keeps_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "sizes.csv")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", target])
        assert code in (0, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert code == 0 or (err.getvalue().startswith("error: ") and not os.path.exists(target))
