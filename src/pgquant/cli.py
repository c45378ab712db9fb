"""Command-line front end: operator matrices, verification sweeps, spectra.

Exit status: 0 success, 1 verification failure, 2 usage or configuration
error or a failed write.  Complex numbers serialize as [re, im] pairs in JSON.
Every command computes under np.errstate(all="ignore") and prints only finite
numbers: a quantity that overflows to inf or NaN ends the command with exit 2
and one error line that names it.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys

import numpy as np

from .algebra import AlgebraCtx, from_free_expr
from .forms import WEIGHT_PRESETS, WeightSeq, gram_matrix, preset_weights
from .quantization import (MONOMIAL, ORTHONORMAL, coherent_quantization, ladder_set,
                           mult_operator, operator_norm_bh, pk_operator, toeplitz,
                           toeplitz_flat, toeplitz_orthonormal, wick_rank_probe)
from .symbols import ParseError, parse
from . import verify as verify_mod

USAGE_ERROR = 2
VERIFY_ERROR = 1
# the largest order any command accepts; the index tables and the l^2 x l^2
# matrices grow as l^4
MAX_L = 32
# options whose values may start with a minus sign ("-i", "-0.5+0.8i", "-th"),
# or whose negative values are rejected with their reason ("-1e-3,1,1")
_SIGNED_VALUE_OPTIONS = ("--q", "--symbol", "--weights", "--tolerance")


class ConfigError(Exception):
    pass


# the imaginary unit i, but not the i of an inf, infinity or nan spelling
_IMAGINARY_UNIT = re.compile(r"(?i:inf(?:inity)?|nan)|i")


def parse_complex(text: str) -> complex:
    """The grid's own value for a verify.GRID_QS id, "exp(i*pi/3)" among them;
    otherwise 'a+bi' style text ('1', '-1', '0.5', '0+1i', 'i')."""
    grid_q = dict(verify_mod.GRID_QS)
    if text in grid_q:
        return grid_q[text]
    cleaned = _IMAGINARY_UNIT.sub(lambda m: "j" if m.group() == "i" else m.group(),
                                  text.strip().replace(" ", ""))
    try:
        value = complex(cleaned)
    except ValueError:
        raise ConfigError(f"cannot parse complex number {text!r}")
    if not cmath.isfinite(value):
        raise ConfigError(f"complex number {text!r} is not finite")
    return value


def parse_weights(text: str, l: int, q: complex) -> WeightSeq:
    try:
        if text in WEIGHT_PRESETS:
            return preset_weights(text, l, q)
        try:
            values = tuple(float(x) for x in text.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse weights {text!r}")
        # WeightSeq rejects a wrong count and any weight not finite and > 0
        return WeightSeq(l, values)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _finite(name: str, value):
    """value, if every number in it is finite; otherwise a ConfigError that
    names the quantity."""
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{name} overflowed to inf or NaN for these inputs")
    return value


def _complex_pair(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _emit(text: str, output: str | None):
    """Write text and a newline to the --output file, or else to stdout; a
    write that fails is a ConfigError."""
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --output {output}: {exc.strerror}")
    else:
        try:
            print(text, flush=True)
        except OSError as exc:
            # stdout was closed early, as by `| head`: what is left in its
            # buffer goes to devnull, so the interpreter's flush at exit
            # neither fails nor prints
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError(f"cannot write to stdout: {exc.strerror}")


def _emit_point(args, q: complex, w: WeightSeq, payload: dict) -> int:
    """Write what matrix, gram or spectrum computed at (l, q, w).

    JSON: l, q and weights, then the payload's keys in order, with the matrix
    rows as [re, im] pairs.  CSV: the rows as re,im pairs, then one key,values
    line for every other key but basis; a string is written as it is, a number
    by repr and a dict by its values."""
    if "rows" in payload:
        payload = {**payload, "rows": [[_complex_pair(z) for z in row]
                                       for row in payload["rows"]]}
    if args.format == "json":
        _emit(json.dumps({"l": args.l, "q": _complex_pair(q), "weights": list(w.w),
                          **payload}), args.output)
        return 0
    lines = [",".join(repr(x) for pair in row for x in pair)
             for row in payload.get("rows", ())]
    for key, value in payload.items():
        if key in ("basis", "rows"):
            continue
        values = (value.values() if isinstance(value, dict)
                  else value if isinstance(value, list) else (value,))
        lines.append(",".join([key] + [v if isinstance(v, str) else repr(v) for v in values]))
    _emit("\n".join(lines), args.output)
    return 0


def _symbol(args, ctx: AlgebraCtx):
    """The --symbol text as an element of the algebra."""
    if args.symbol is None:
        raise ConfigError(f"--symbol is required for --which {args.which}")
    g = from_free_expr(parse(args.symbol), ctx)
    _finite("the symbol", g.coeffs)
    return g


# The --which kinds in usage-line order: the basis label of the matrix and its
# builder from (g, w, ctx), where g is the --symbol element; pk ignores it.  A
# builder looks its function up when it runs, so a rebound function is used.
MATRIX_KINDS = {
    "toeplitz": (MONOMIAL, lambda g, w, ctx: toeplitz(g, w, ctx).matrix),
    "toeplitz-on": (ORTHONORMAL, lambda g, w, ctx: toeplitz_orthonormal(g, w, ctx).matrix),
    "coherent": (ORTHONORMAL, lambda g, w, ctx: coherent_quantization(g, w, ctx)),
    "flat": (ORTHONORMAL, lambda g, w, ctx: toeplitz_flat(g, w, ctx)),
    "pk": ("aw", lambda g, w, ctx: pk_operator(w)),
    "mult-left": ("aw", lambda g, w, ctx: mult_operator(g, "left", ctx)),
    "mult-right": ("aw", lambda g, w, ctx: mult_operator(g, "right", ctx)),
}


def cmd_matrix(args) -> int:
    q = parse_complex(args.q)
    ctx = AlgebraCtx(args.l, q)
    w = parse_weights(args.weights, args.l, q)
    basis, build = MATRIX_KINDS[args.which]
    # a given --symbol is parsed and checked for every kind, pk included, which
    # then drops it; a missing one is an error for every kind but pk
    g = None if args.symbol is None and args.which == "pk" else _symbol(args, ctx)
    M = _finite(f"the {args.which} matrix", build(g, w, ctx))
    return _emit_point(args, q, w, {"basis": basis, "rows": M})


def cmd_gram(args) -> int:
    q = parse_complex(args.q)
    w = parse_weights(args.weights, args.l, q)
    G = gram_matrix(w)
    det = _finite("the Gram determinant", float(np.linalg.det(G)))
    return _emit_point(args, q, w, {"basis": "aw", "determinant": det, "rows": G})


def cmd_spectrum(args) -> int:
    l = args.l
    q = parse_complex(args.q)
    ctx = AlgebraCtx(l, q)
    w = parse_weights(args.weights, l, q)
    lad = ladder_set(w, ctx)
    # the ladder matrices hold the deformed integers, so once those are finite
    # the norm's SVD sees a finite matrix
    ints = _finite("the deformed integers", lad.deformed_ints)
    facts = _finite("the deformed factorials", lad.deformed_factorials)
    eigenvalues = _finite("the number operator eigenvalues",
                          sorted(float(np.real(x)) for x in np.diag(lad.number.matrix)))
    norm = _finite("the creation operator norm", operator_norm_bh(lad.creation, w))
    try:
        rank = wick_rank_probe(w, ctx)
    except np.linalg.LinAlgError:
        # the rank's SVD fails to converge on products of ladder powers that
        # overflowed
        raise ConfigError("the ladder operator products of the wick order rank probe "
                          "are not finite for these inputs")
    return _emit_point(args, q, w, {
        "deformed_integers": list(ints),
        "deformed_factorials": list(facts),
        "number_operator_eigenvalues": eigenvalues,
        "creation_operator_norm": norm,
        "wick_order_rank_probe": {"rank": rank, "label": "informational"},
    })


def cmd_verify(args) -> int:
    seed, source = args.seed, "--seed"
    if os.environ.get("PG_SEED"):
        source = "PG_SEED"
        try:
            seed = int(os.environ["PG_SEED"])
        except ValueError:
            raise ConfigError("PG_SEED must be an integer")
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed}")
    if not 0 < args.tolerance < math.inf:
        raise ConfigError(f"--tolerance must be finite and > 0, got {args.tolerance!r}")
    ls = (args.l,) if args.l else verify_mod.GRID_LS
    qs = ((args.q, parse_complex(args.q)),) if args.q else verify_mod.GRID_QS
    if args.weights:
        w_id = "custom" if "," in args.weights else args.weights

        def weights(l, q):
            return [(w_id, parse_weights(args.weights, l, q))]
    else:
        weights = verify_mod.grid_point_weights
    results = verify_mod.run_grid(ls, qs, weights, seed=seed, tol=args.tolerance)
    for r in results:
        _finite(f"the residual of {r.check} at l={r.l} q={r.q_id} w={r.w_id}", r.residual)

    failures = [r for r in results if r.status == "fail"]
    if args.format == "json":
        payload = {
            "records": [{"check": r.check, "l": r.l, "q": r.q_id, "weights": r.w_id,
                         "max_residual": r.residual, "status": r.status,
                         "note": r.note} for r in results],
            "summary": {"total": len(results), "failed": len(failures)},
        }
        _emit(json.dumps(payload), args.output)
    else:
        lines = []
        for name in verify_mod.CHECK_NAMES:
            recs = [r for r in results if r.check == name]
            if not recs:
                continue
            worst = max(recs, key=lambda r: r.residual)
            statuses = {r.status for r in recs}
            if "fail" in statuses:
                overall = "FAIL"
            elif verify_mod.EXPECTED_FAIL in statuses:
                overall = verify_mod.EXPECTED_FAIL
            else:
                overall = "pass"
            lines.append(f"{name}: max residual {worst.residual:.3e} "
                         f"over {len(recs)} grid points [{overall}]")
            for r in recs:
                if r.status == "fail":
                    lines.append(f"  FAIL at l={r.l} q={r.q_id} w={r.w_id} "
                                 f"residual={r.residual:.3e} {r.note}")
        lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
        _emit("\n".join(lines), args.output)
    return VERIFY_ERROR if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pgquant",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    q_help = "deformation parameter, a+bi text or grid id: " + "|".join(
        q_id for q_id, _ in verify_mod.GRID_QS)
    weights_help = "comma list or preset: " + "|".join(WEIGHT_PRESETS)

    def common(p):
        p.add_argument("--l", type=int, required=True,
                       help=f"algebra order, 2..{MAX_L}")
        p.add_argument("--q", default="1", help=q_help)
        p.add_argument("--weights", required=True, help=weights_help)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write here instead of stdout")

    p_matrix = sub.add_parser("matrix", help="emit one operator matrix")
    common(p_matrix)
    p_matrix.add_argument("--which", required=True, choices=MATRIX_KINDS)
    p_matrix.add_argument("--symbol", default=None, help="symbol expression text")
    p_matrix.set_defaults(fn=cmd_matrix)

    p_gram = sub.add_parser("gram", help="emit the Gram matrix and determinant")
    common(p_gram)
    p_gram.set_defaults(fn=cmd_gram)

    p_spec = sub.add_parser("spectrum", help="ladder spectra and norms")
    common(p_spec)
    p_spec.set_defaults(fn=cmd_spectrum)

    p_verify = sub.add_parser("verify", help="run the identity checks over a grid")
    p_verify.add_argument("--l", type=int, default=None)
    p_verify.add_argument("--q", default=None, help=q_help)
    p_verify.add_argument("--weights", default=None, help=weights_help)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance", type=float, default=verify_mod.DEFAULT_TOL,
                          help="pass a check whose residual is below this; finite and > 0")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    return ap


def _glue_signed_values(argv: list) -> list:
    """Write "--q -i" as "--q=-i".

    argparse reads a separate token that starts with '-' as an option unless
    it is a plain negative number, but always reads what follows '=' as the
    value; tokens starting with "--" stay options.
    """
    out, k = [], 0
    while k < len(argv):
        token = argv[k]
        value = argv[k + 1] if k + 1 < len(argv) else ""
        if (token in _SIGNED_VALUE_OPTIONS and value.startswith("-")
                and not value.startswith("--")):
            out.append(f"{token}={value}")
            k += 2
        else:
            out.append(token)
            k += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_glue_signed_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if args.l is not None and not 2 <= args.l <= MAX_L:
            raise ConfigError(f"--l must be between 2 and {MAX_L}, got {args.l}")
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
