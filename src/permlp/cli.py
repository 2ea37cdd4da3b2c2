"""Command-line interface.

Subcommands: build, encode, decode-message, decode, vertices, bounds,
simulate, ensemble.  Exit codes: 0 success, 2 LP decoding failure, 3
infeasible code or invalid spec file, 1 internal error.  All floating-point
output uses 9 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback
from contextlib import contextmanager
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from . import channel, codebook, encoder, polytope
from .constraints import satisfies
from .lp import InfeasibleCodeError, lp_decode, ml_decode_detail
from .perm import BRUTE_FORCE_LIMIT, BruteForceLimitError, PermutationMatrix
from .polytope import BasisBudgetError, enumerate_vertices
from .specfile import CodeSpecFile, SpecFileError, load_spec


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


@contextmanager
def _open_out(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


@contextmanager
def _input_errors():
    """Report the library's ValueError on bad input as an invalid input (exit 3)."""
    try:
        yield
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


def _parse_snr_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise SpecFileError("SNR grid must be START:STOP:STEP or a single value")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise SpecFileError("SNR grid needs step > 0 and stop >= start")
    grid = []
    v = start
    while v <= stop + 1e-9:
        grid.append(round(v, 12))
        v += step
    return grid


def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise SpecFileError(f"{what} must be comma-separated numbers")
    if len(vals) != n:
        raise SpecFileError(f"{what} must have length {n}")
    if not all(math.isfinite(v) for v in vals):
        raise SpecFileError(f"{what} must be finite numbers")
    return np.asarray(vals, dtype=float)


def _matrix_for_word(code: codebook.Code, word: np.ndarray) -> PermutationMatrix:
    hits = np.flatnonzero((code.codewords == word).all(axis=1))
    if hits.size == 0:
        raise SpecFileError("the given word is not a codeword of this spec")
    return code.matrix(int(hits[0]))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_build(args) -> int:
    sf = load_spec(args.specfile)
    code = codebook.build_code(sf.code_spec(), limit=args.brute_force_cap)
    doc: dict = {
        "n": sf.n,
        "cardinality": len(code),
        "singular": code.singular,
        "min_hamming_distance": None,
    }
    if not code.singular and len(code) >= 2:
        doc["min_hamming_distance"] = codebook.min_hamming_distance(code)
    if args.dump:
        doc["codewords"] = [[float(_fmt(v)) for v in w] for w in code.codewords]
    with _open_out(args.out) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_encode(args) -> int:
    sf = load_spec(args.specfile)
    message = args.message + 1 if args.zero_indexed else args.message
    with _input_errors():
        x = encoder.enc_map(message, sf.n)
    cs = sf.constraint_system()
    if cs.rows and not satisfies(cs, x):
        raise SpecFileError("encoded matrix violates the spec file's constraints")
    word = x.apply(np.asarray(sf.s, dtype=float))
    with _open_out(args.out) as fh:
        fh.write("perm: " + ",".join(str(v) for v in x.perm) + "\n")
        for row in x.dense():
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
        fh.write("word: " + " ".join(_fmt(v) for v in word) + "\n")
    return 0


def _cmd_decode_message(args) -> int:
    sf = load_spec(args.specfile)
    with _input_errors():
        perm = tuple(int(v) for v in args.perm.split(","))
        x = PermutationMatrix(perm)
        if x.n != sf.n:
            raise ValueError(f"permutation degree {x.n} does not match spec degree {sf.n}")
        message = encoder.dec_map(x)
    if args.zero_indexed:
        message -= 1
    with _open_out(args.out) as fh:
        fh.write(f"message: {message}\n")
    return 0


def _cmd_decode(args) -> int:
    sf = load_spec(args.specfile)
    spec = sf.code_spec()
    y = _parse_vector(args.received, sf.n, "received vector")
    failed = False
    with _open_out(args.out) as fh:
        if args.decoder in ("lp", "both"):
            res = lp_decode(spec.cs, np.asarray(spec.s), y)
            if res.is_codeword:
                fh.write("lp: " + " ".join(_fmt(v) for v in res.word) + "\n")
            else:
                failed = True
                fh.write("lp: FAILURE\n")
                for row in res.fractional:
                    fh.write("  " + " ".join(_fmt(v) for v in row) + "\n")
            fh.write("lp_objective: " + _fmt(res.objective_value) + "\n")
        if args.decoder in ("ml", "both"):
            code = codebook.build_code(spec, limit=args.brute_force_cap)
            if len(code) == 0:
                raise InfeasibleCodeError("the code is empty")
            _, word, tie = ml_decode_detail(code, y)
            fh.write("ml: " + " ".join(_fmt(v) for v in word) + "\n")
            if tie:
                fh.write("ml_tie: true\n")
    return 2 if failed else 0


def _cmd_vertices(args) -> int:
    sf = load_spec(args.specfile)
    vs = enumerate_vertices(sf.constraint_system(), sf.n, max_bases=args.max_bases)
    doc = {
        "n": sf.n,
        "num_vertices": len(vs),
        "num_integral": len(vs.integral),
        "num_fractional": len(vs.fractional),
        "vertices": [
            {
                "integral": v.is_integral,
                "matrix": [[str(e) for e in row] for row in v.entries],
            }
            for v in vs.vertices
        ],
    }
    with _open_out(args.out) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_bounds(args) -> int:
    sf = load_spec(args.specfile)
    spec = sf.code_spec()
    code = codebook.build_code(spec, limit=args.brute_force_cap)
    if len(code) == 0:
        raise InfeasibleCodeError("the code is empty")
    word = (
        code.codewords[0]
        if args.word is None
        else _parse_vector(args.word, sf.n, "transmitted word")
    )
    x = _matrix_for_word(code, word)
    vs = enumerate_vertices(spec.cs, sf.n, max_bases=args.max_bases)
    grid = _parse_snr_grid(args.snr)
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["snr_db", "sigma", "lp_bound", "lp_bound_clamped", "ml_bound", "ml_bound_clamped"]
        )
        for db in grid:
            sigma = channel.sigma_from_snr_db(db)
            lpb = bounds_mod.lp_union_bound(x, vs, spec.s, sigma)
            mlb = bounds_mod.ml_union_bound(x, code, sigma)
            writer.writerow(
                [
                    _fmt(db),
                    _fmt(sigma),
                    _fmt(lpb),
                    _fmt(min(lpb, 1.0)),
                    _fmt(mlb),
                    _fmt(min(mlb, 1.0)),
                ]
            )
    return 0


def _cmd_simulate(args) -> int:
    sf = load_spec(args.specfile)
    spec = sf.code_spec()
    decoders = ("lp", "ml") if args.decoder == "both" else (args.decoder,)
    transmitted = (
        None if args.word is None else _parse_vector(args.word, sf.n, "transmitted word")
    )
    with _input_errors():
        records = channel.simulate_bler(
            spec,
            _parse_snr_grid(args.snr),
            args.trials,
            seed=args.seed,
            decoders=decoders,
            transmitted=transmitted,
            threads=args.threads,
            limit=args.brute_force_cap,
        )
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["snr_db", "sigma", "trials", "lp_errors", "lp_failures", "ml_errors", "seed"]
        )
        for r in records:
            writer.writerow(
                [
                    _fmt(r.snr_db),
                    _fmt(r.sigma),
                    r.trials,
                    r.lp_errors if "lp" in decoders else "",
                    r.lp_failures if "lp" in decoders else "",
                    r.ml_errors if r.ml_errors is not None else "",
                    r.seed,
                ]
            )
    return 0


def _cmd_ensemble(args) -> int:
    with _input_errors():
        result = channel.ensemble_experiment(
            args.n,
            args.m,
            args.samples,
            seed=args.seed,
            threads=args.threads,
            limit=args.brute_force_cap,
        )
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "cardinality"])
        for k, v in enumerate(result.samples):
            writer.writerow([k, v])
    print(
        f"mean={_fmt(result.sample_mean)} se={_fmt(result.standard_error)} "
        f"formula={_fmt(result.formula_value)}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a value parsed before the subcommand from being clobbered
    # by the subparser's defaults for the same flag.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="RNG seed (default 0)"
    )
    common.add_argument(
        "--threads", type=int, default=argparse.SUPPRESS, help="worker processes (default 1)"
    )
    common.add_argument(
        "--brute-force-cap",
        type=int,
        default=argparse.SUPPRESS,
        help=f"largest degree enumerated exhaustively (default {BRUTE_FORCE_LIMIT})",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")

    parser = argparse.ArgumentParser(prog="permlp", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common, out], help="enumerate a code")
    p.add_argument("specfile")
    p.add_argument("--dump", action="store_true", help="include the codeword list")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("encode", parents=[common, out], help="message to pure involution")
    p.add_argument("specfile")
    p.add_argument("message", type=int)
    p.add_argument("--zero-indexed", action="store_true", help="treat the message as 0-based")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("decode-message", parents=[common, out], help="pure involution to message")
    p.add_argument("specfile")
    p.add_argument("--perm", required=True, help="column-to-row map, e.g. 2,1,4,3")
    p.add_argument("--zero-indexed", action="store_true", help="report the message 0-based")
    p.set_defaults(handler=_cmd_decode_message)

    p = sub.add_parser("decode", parents=[common, out], help="decode a received vector")
    p.add_argument("specfile")
    p.add_argument("-y", "--received", required=True, help="received vector, comma-separated")
    p.add_argument("--decoder", choices=["lp", "ml", "both"], default="lp")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("vertices", parents=[common, out], help="enumerate polytope vertices")
    p.add_argument("specfile")
    p.add_argument(
        "--max-bases", type=int, default=polytope.DEFAULT_BASIS_BUDGET,
        help="basis-walk budget",
    )
    p.set_defaults(handler=_cmd_vertices)

    p = sub.add_parser("bounds", parents=[common, out], help="union bound curves as CSV")
    p.add_argument("specfile")
    p.add_argument("--snr", required=True, help="SNR grid START:STOP:STEP in dB")
    p.add_argument("--word", default=None, help="transmitted codeword (default: first)")
    p.add_argument(
        "--max-bases", type=int, default=polytope.DEFAULT_BASIS_BUDGET,
        help="basis-walk budget",
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("simulate", parents=[common, out], help="Monte-Carlo BLER as CSV")
    p.add_argument("specfile")
    p.add_argument("--snr", required=True, help="SNR grid START:STOP:STEP in dB")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--decoder", choices=["lp", "ml", "both"], default="both")
    p.add_argument("--word", default=None, help="fixed transmitted word (default: uniform)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("ensemble", parents=[common, out], help="random pair-ensemble sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(handler=_cmd_ensemble)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.seed = getattr(args, "seed", 0)
    args.threads = getattr(args, "threads", 1)
    args.brute_force_cap = getattr(args, "brute_force_cap", BRUTE_FORCE_LIMIT)
    try:
        return args.handler(args)
    except (SpecFileError, InfeasibleCodeError, BruteForceLimitError, BasisBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # downstream closed the pipe; not our error
        return 0
    except Exception:
        traceback.print_exc()
        return 1


def console_main() -> None:
    raise SystemExit(main())
