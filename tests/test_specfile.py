"""JSON spec documents: parsing, validation, serialization round trips."""

import json

import pytest

from permlp.constraints import Relation
from permlp.specfile import (
    SpecFileError,
    load_spec,
    parse_spec,
    save_spec,
    serialize_spec,
)

FAMILY_DOC = {"n": 4, "s": [0, 1, 2, 3], "constraints": {"family": "derangement"}}
ROWS_DOC = {
    "n": 2,
    "s": [0, 1],
    "constraints": {
        "rows": [
            {"coeffs": {"1": 1, "4": 1}, "rel": "eq", "rhs": 0},
            {"coeffs": {"2": 1}, "rel": "le", "rhs": 1},
        ]
    },
}


def test_parse_family_doc():
    sf = parse_spec(FAMILY_DOC)
    assert sf.n == 4 and sf.s == (0.0, 1.0, 2.0, 3.0)
    assert sf.family == "derangement" and sf.rows is None
    cs = sf.constraint_system()
    assert cs.n == 4 and len(cs.rows) == 1
    spec = sf.code_spec()
    assert spec.n == 4 and spec.s == (0.0, 1.0, 2.0, 3.0)


def test_parse_rows_doc():
    sf = parse_spec(ROWS_DOC)
    cs = sf.constraint_system()
    assert len(cs.rows) == 2
    assert cs.rows[0].relation is Relation.EQ
    assert cs.rows[1].relation is Relation.LE
    assert dict(cs.rows[0].coeffs) == {1: 1, 4: 1}


def test_parse_family_params():
    doc = {
        "n": 4,
        "s": [3, 1, 4, 1.5],
        "constraints": {"family": "block", "params": {"nu": 2, "redundant": True}},
    }
    sf = parse_spec(doc)
    assert len(sf.constraint_system().rows) == 8


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("n"),
        lambda d: d.pop("s"),
        lambda d: d.pop("constraints"),
        lambda d: d.update(n=0),
        lambda d: d.update(s=[0, 1]),  # wrong length
        lambda d: d.update(s=["a", "b", "c", "d"]),
        lambda d: d.update(extra=1),
        lambda d: d["constraints"].update(family="nope"),
        lambda d: d["constraints"].update(params={"bogus": 1}),
        lambda d: d["constraints"].pop("family"),
        lambda d: d["constraints"].update(rows=[]),  # family and rows together
        lambda d: d.update(s=[0, float("nan"), 2, float("inf")]),  # json reads NaN, Infinity
        lambda d: d.update(s=[0, 1, 2, 10**400]),  # beyond the float range
    ],
)
def test_parse_rejects_malformed(mutate):
    doc = json.loads(json.dumps(FAMILY_DOC))
    mutate(doc)
    with pytest.raises(SpecFileError):
        parse_spec(doc)


@pytest.mark.parametrize(
    "row",
    [
        {"coeffs": {"1": 1}, "rel": "eq"},  # missing rhs
        {"coeffs": {"1": 1}, "rel": "??", "rhs": 0},
        {"coeffs": {"1": True}, "rel": "eq", "rhs": 0},  # bool is not an int here
        {"coeffs": {"0": 1}, "rel": "eq", "rhs": 0},
        {"coeffs": {"99": 1}, "rel": "eq", "rhs": 0},  # outside n^2
        {"coeffs": {"1": 1}, "rel": "eq", "rhs": 0, "junk": 1},
    ],
)
def test_parse_rejects_malformed_rows(row):
    doc = {"n": 2, "s": [0, 1], "constraints": {"rows": [row]}}
    with pytest.raises(SpecFileError):
        parse_spec(doc)


def test_family_param_validation_is_eager():
    doc = {"n": 4, "s": [0, 1, 2, 3], "constraints": {"family": "repetition"}}
    with pytest.raises(SpecFileError):  # eta is required
        parse_spec(doc)
    doc["constraints"]["params"] = {"eta": 3}  # does not divide 4
    with pytest.raises(SpecFileError):
        parse_spec(doc)


@pytest.mark.parametrize("doc", [FAMILY_DOC, ROWS_DOC])
def test_serialize_parse_round_trip(doc):
    sf = parse_spec(doc)
    again = parse_spec(serialize_spec(sf))
    assert again == sf
    # Serialized form is JSON-clean.
    json.dumps(serialize_spec(sf))


def test_integer_s_survives_serialization():
    sf = parse_spec(FAMILY_DOC)
    out = serialize_spec(sf)
    assert out["s"] == [0, 1, 2, 3]
    assert all(isinstance(v, int) for v in out["s"])


def test_load_save_file_round_trip(tmp_path):
    sf = parse_spec(ROWS_DOC)
    path = tmp_path / "code.json"
    save_spec(sf, path)
    assert load_spec(path) == sf


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SpecFileError):
        load_spec(path)
    path2 = tmp_path / "list.json"
    path2.write_text("[1, 2, 3]")
    with pytest.raises(SpecFileError):
        load_spec(path2)
