"""Command-line interface: output formats, exit codes, flag handling."""

import csv
import io
import json

import pytest

from permlp.cli import main

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
    ],
    ids=["trials0", "non_codeword", "samples0", "negative_m", "decode_nan", "decode_inf",
         "decode_minus_inf", "spec_nan_decode", "spec_infinity_bounds", "spec_nan_build"],
)
def test_invalid_run_inputs_exit_three(specs, capsys, tmp_path, argv):
    # "der4" stands for the path of that spec file.  The "*_s" specs hold NaN
    # or Infinity in s, which json.dumps writes and json reads.
    paths = dict(specs)
    for name, bad in (("nan_s", float("nan")), ("infinity_s", float("inf"))):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps({**DER4, "s": [0, bad, 2, 3]}))
    code, _, err = _run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err
