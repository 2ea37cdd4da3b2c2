"""JSON spec files describing codes.

A spec document names a degree, an initial vector, and constraints given
either as a named family with parameters or as raw rows:

    {"n": 4, "s": [0, 1, 2, 3], "constraints": {"family": "derangement"}}
    {"n": 2, "s": [0, 1], "constraints": {"rows": [
        {"coeffs": {"1": 1, "4": 1}, "rel": "le", "rhs": 2}]}}

Variable positions are the 1-based row-major entries of the matrix.  Parsing
and serialization round-trip losslessly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from . import constraints as cf
from .codebook import CodeSpec
from .constraints import ConstraintRow, ConstraintSystem, Relation


class SpecFileError(ValueError):
    """The code spec document is malformed."""


_FAMILIES = {
    "derangement": (cf.derangement, ()),
    "involution": (cf.involution, ()),
    "pure_involution": (cf.pure_involution, ()),
    "transposition": (cf.transposition, ("with_symmetry",)),
    "cyclic": (cf.cyclic, ()),
    "repetition": (cf.repetition, ("eta",)),
    "block": (cf.block, ("nu", "redundant")),
}


@dataclass(frozen=True)
class CodeSpecFile:
    """Parsed code spec document; mirrors the JSON layout exactly."""

    n: int
    s: tuple[float, ...]
    family: Optional[str] = None
    params: dict = field(default_factory=dict)
    rows: Optional[tuple[ConstraintRow, ...]] = None

    def constraint_system(self) -> ConstraintSystem:
        if self.family is not None:
            builder, _ = _FAMILIES[self.family]
            try:
                return builder(self.n, **self.params)
            except (TypeError, ValueError) as exc:
                raise SpecFileError(f"bad parameters for family {self.family}: {exc}")
        return ConstraintSystem(self.n, self.rows or ())

    def code_spec(self) -> CodeSpec:
        return CodeSpec(n=self.n, cs=self.constraint_system(), s=self.s)


def _parse_row(doc: dict) -> ConstraintRow:
    if not isinstance(doc, dict) or set(doc) != {"coeffs", "rel", "rhs"}:
        raise SpecFileError(f"row must have exactly coeffs/rel/rhs: {doc!r}")
    coeffs = {}
    if not isinstance(doc["coeffs"], dict) or not doc["coeffs"]:
        raise SpecFileError("row coeffs must be a non-empty object")
    for key, val in doc["coeffs"].items():
        try:
            pos = int(key)
        except ValueError:
            raise SpecFileError(f"coefficient key {key!r} is not an integer position")
        if not isinstance(val, int) or isinstance(val, bool):
            raise SpecFileError(f"coefficient value {val!r} must be an integer")
        coeffs[pos] = val
    try:
        rel = Relation(doc["rel"])
    except ValueError:
        raise SpecFileError(f"relation must be 'eq' or 'le', got {doc['rel']!r}")
    if not isinstance(doc["rhs"], int) or isinstance(doc["rhs"], bool):
        raise SpecFileError(f"rhs {doc['rhs']!r} must be an integer")
    try:
        return ConstraintRow.make(coeffs, rel, doc["rhs"])
    except ValueError as exc:
        raise SpecFileError(str(exc))


def parse_spec(doc: dict) -> CodeSpecFile:
    if not isinstance(doc, dict):
        raise SpecFileError("top level must be an object")
    missing = {"n", "s", "constraints"} - set(doc)
    if missing:
        raise SpecFileError(f"missing keys: {sorted(missing)}")
    unknown = set(doc) - {"n", "s", "constraints"}
    if unknown:
        raise SpecFileError(f"unknown keys: {sorted(unknown)}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SpecFileError(f"n must be a positive integer, got {n!r}")
    s = doc["s"]
    if not isinstance(s, list) or len(s) != n or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in s
    ):
        raise SpecFileError("s must be a list of n numbers")
    try:
        s = tuple(float(v) for v in s)
    except OverflowError:  # an integer beyond the float range
        raise SpecFileError("s must be finite numbers") from None
    # json reads NaN and Infinity as floats.
    if not all(map(math.isfinite, s)):
        raise SpecFileError("s must be finite numbers")
    cons = doc["constraints"]
    if not isinstance(cons, dict):
        raise SpecFileError("constraints must be an object")
    spec_file: CodeSpecFile
    if "family" in cons:
        fam = cons["family"]
        if fam not in _FAMILIES:
            raise SpecFileError(
                f"unknown family {fam!r}; known: {sorted(_FAMILIES)}"
            )
        params = cons.get("params", {})
        allowed = set(_FAMILIES[fam][1])
        if not isinstance(params, dict) or not set(params) <= allowed:
            raise SpecFileError(f"family {fam!r} accepts parameters {sorted(allowed)}")
        extra = set(cons) - {"family", "params"}
        if extra:
            raise SpecFileError(f"unexpected constraint keys: {sorted(extra)}")
        spec_file = CodeSpecFile(n=n, s=s, family=fam, params=dict(params))
    elif "rows" in cons:
        if set(cons) != {"rows"} or not isinstance(cons["rows"], list):
            raise SpecFileError("raw constraints must be {'rows': [...]}")
        rows = tuple(_parse_row(r) for r in cons["rows"])
        spec_file = CodeSpecFile(n=n, s=s, rows=rows)
    else:
        raise SpecFileError("constraints need either 'family' or 'rows'")
    # Validate positions against the degree and family parameters eagerly.
    try:
        spec_file.constraint_system()
    except SpecFileError:
        raise
    except ValueError as exc:
        raise SpecFileError(str(exc))
    return spec_file


def serialize_spec(sf: CodeSpecFile) -> dict:
    s_out = [int(v) if float(v).is_integer() else float(v) for v in sf.s]
    if sf.family is not None:
        cons: dict = {"family": sf.family}
        if sf.params:
            cons["params"] = dict(sf.params)
        return {"n": sf.n, "s": s_out, "constraints": cons}
    rows = [
        {
            "coeffs": {str(p): c for p, c in row.coeffs},
            "rel": row.relation.value,
            "rhs": row.rhs,
        }
        for row in (sf.rows or ())
    ]
    return {"n": sf.n, "s": s_out, "constraints": {"rows": rows}}


def load_spec(path: str) -> CodeSpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON in {path}: {exc}")
    return parse_spec(doc)


def save_spec(sf: CodeSpecFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_spec(sf), fh, indent=2)
        fh.write("\n")
