"""Command-line interface.

Subcommands: build, encode, decode-message, decode, vertices, bounds,
simulate, ensemble.  Exit codes: 0 success, 2 LP decoding failure, 3
infeasible code, invalid input or usage error (argparse's own 2 is mapped
to 3), 1 internal error.  All floating-point output uses 9 significant digits.
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
from .lp import InfeasibleCodeError, lp_decode_batch, ml_decode_detail
from .perm import BRUTE_FORCE_LIMIT, BruteForceLimitError, PermutationMatrix
from .polytope import BasisBudgetError, SharedImageError, enumerate_vertices
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


# Longest SNR grid accepted; the simulate and bounds runs do work per point.
_MAX_SNR_POINTS = 10_000
# Finest SNR grid step accepted: points are rounded to 12 decimals.
_MIN_SNR_STEP = 1e-12


def _parse_snr_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise SpecFileError("SNR grid must be START:STOP:STEP or a single value")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise SpecFileError("SNR grid values must be numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise SpecFileError("SNR grid values must be finite")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0 or stop < start:
        raise SpecFileError("SNR grid needs step > 0 and stop >= start")
    if step < _MIN_SNR_STEP:
        raise SpecFileError(f"SNR grid step must be at least {_MIN_SNR_STEP:g}")
    # A stop a billionth of a step short of a point still reaches it: 0.3 / 0.1 < 3.
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_SNR_POINTS:
        raise SpecFileError(f"SNR grid has more than {_MAX_SNR_POINTS} points")
    grid = []
    v = start
    for _ in range(math.floor(steps) + 1):
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
    ys = np.array([_parse_vector(text, sf.n, "received vector") for text in args.received])
    # Every line is computed before the output opens, so a refusal (such as
    # the ML decoder's codebook past the cap) leaves no partial file.  Each
    # received vector gets its own block of lines, in the order given.
    blocks: list[list[str]] = [[] for _ in ys]
    failed = False
    if args.decoder in ("lp", "both"):
        with _input_errors():
            results = lp_decode_batch(spec.cs, np.asarray(spec.s), ys)
        for lines, res in zip(blocks, results):
            if res.is_codeword:
                lines.append("lp: " + " ".join(_fmt(v) for v in res.word))
            else:
                failed = True
                lines.append("lp: FAILURE")
                lines.extend("  " + " ".join(_fmt(v) for v in row) for row in res.fractional)
            lines.append("lp_objective: " + _fmt(res.objective_value))
    if args.decoder in ("ml", "both"):
        code = codebook.build_code(spec, limit=args.brute_force_cap)
        if len(code) == 0:
            raise InfeasibleCodeError("the code is empty")
        for lines, y in zip(blocks, ys):
            with _input_errors():
                _, word, tie = ml_decode_detail(code, y)
            lines.append("ml: " + " ".join(_fmt(v) for v in word))
            if tie:
                lines.append("ml_tie: true")
    with _open_out(args.out) as fh:
        fh.writelines(line + "\n" for lines in blocks for line in lines)
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
    grid = _parse_snr_grid(args.snr)
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
    k = code.index(word)
    if k is None:
        raise SpecFileError("the given word is not a codeword of this spec")
    x = code.matrix(k)
    vs = enumerate_vertices(spec.cs, sf.n, max_bases=args.max_bases)
    # Every row is computed before the output opens, so a refusal leaves no file.
    rows = []
    for db in grid:
        sigma = channel.sigma_from_snr_db(db)
        with _input_errors():
            lpb = bounds_mod.lp_union_bound(x, vs, spec.s, sigma)
            mlb = bounds_mod.ml_union_bound(x, code, sigma)
        rows.append([_fmt(v) for v in (db, sigma, lpb, min(lpb, 1.0), mlb, min(mlb, 1.0))])
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["snr_db", "sigma", "lp_bound", "lp_bound_clamped", "ml_bound", "ml_bound_clamped"]
        )
        writer.writerows(rows)
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
        "--threads",
        type=int,
        default=argparse.SUPPRESS,
        help="worker processes, at most one per core; seeded results do not depend on it "
        "(default 1)",
    )
    common.add_argument(
        "--brute-force-cap",
        type=int,
        default=argparse.SUPPRESS,
        help="largest degree whose n! permutations are enumerated: build, ML decoding, "
        f"bounds and random-word simulate (default {BRUTE_FORCE_LIMIT})",
    )
    # argparse reads a value that starts with '-' as a flag unless '=' joins them.
    snr_help = "SNR grid START:STOP:STEP in dB (a negative start: --snr=-2:0:2)"
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
    p.add_argument("-y", "--received", required=True, action="append",
                   help="received vector, comma-separated (a leading '-': -y=-0.5,1.2,2); "
                   "repeat to decode several in one batch")
    p.add_argument("--decoder", choices=["lp", "ml", "both"], default="lp")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("vertices", parents=[common, out], help="enumerate polytope vertices")
    p.add_argument("specfile")
    p.add_argument(
        "--max-bases", type=int, default=polytope.DEFAULT_BASIS_BUDGET,
        help="vertex enumeration work budget: bases walked, or n^2 per candidate vertex",
    )
    p.set_defaults(handler=_cmd_vertices)

    p = sub.add_parser("bounds", parents=[common, out], help="union bound curves as CSV")
    p.add_argument("specfile")
    p.add_argument("--snr", required=True, help=snr_help)
    p.add_argument("--word", help="transmitted codeword (default: first; a leading '-': "
                   "--word=-1,0,1)")
    p.add_argument(
        "--max-bases", type=int, default=polytope.DEFAULT_BASIS_BUDGET,
        help="vertex enumeration work budget: bases walked, or n^2 per candidate vertex",
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("simulate", parents=[common, out], help="Monte-Carlo BLER as CSV")
    p.add_argument("specfile")
    p.add_argument("--snr", required=True, help=snr_help)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--decoder", choices=["lp", "ml", "both"], default="both")
    p.add_argument("--word", help="fixed transmitted word (default: uniform; a leading '-': "
                   "--word=-1,0,1)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("ensemble", parents=[common, out], help="random pair-ensemble sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(handler=_cmd_ensemble)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error after argparse's message
        return 3 if exc.code else 0
    args.seed = getattr(args, "seed", 0)
    args.threads = getattr(args, "threads", 1)
    args.brute_force_cap = getattr(args, "brute_force_cap", BRUTE_FORCE_LIMIT)
    try:
        return args.handler(args)
    except (SpecFileError, InfeasibleCodeError, BruteForceLimitError, BasisBudgetError,
            SharedImageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # downstream closed the pipe; not our error
        return 0
    except Exception:
        traceback.print_exc()
        return 1


def console_main() -> None:
    raise SystemExit(main())
