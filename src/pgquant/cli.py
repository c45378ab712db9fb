"""Command-line front end: operator matrices, verification sweeps, spectra.

Exit status: 0 success, 1 verification failure, 2 usage or configuration
error.  Complex numbers serialize as [re, im] pairs in JSON.
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
from .quantization import (coherent_quantization, ladder_set, mult_operator,
                           operator_norm_bh, pk_operator, toeplitz,
                           toeplitz_flat, toeplitz_orthonormal, wick_rank_probe)
from .symbols import ParseError, parse
from . import verify as verify_mod

USAGE_ERROR = 2
VERIFY_ERROR = 1


class ConfigError(Exception):
    pass


# the imaginary unit i, but not the i of an inf, infinity or nan spelling
_IMAGINARY_UNIT = re.compile(r"(?i:inf(?:inity)?|nan)|i")


def parse_complex(text: str) -> complex:
    """Accept 'a+bi' style text ('1', '-1', '0.5', '0+1i', 'i')."""
    cleaned = _IMAGINARY_UNIT.sub(lambda m: "j" if m.group() == "i" else m.group(),
                                  text.strip().replace(" ", ""))
    if cleaned in ("j", "+j"):
        cleaned = "1j"
    elif cleaned == "-j":
        cleaned = "-1j"
    try:
        value = complex(cleaned)
    except ValueError:
        raise ConfigError(f"cannot parse complex number {text!r}")
    if not cmath.isfinite(value):
        raise ConfigError(f"complex number {text!r} is not finite")
    return value


def parse_weights(text: str, l: int, q: complex) -> WeightSeq:
    if text in WEIGHT_PRESETS:
        try:
            return preset_weights(text, l, q)
        except ValueError as exc:
            raise ConfigError(str(exc))
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse weights {text!r}")
    if len(values) != l:
        raise ConfigError(f"expected {l} weights, got {len(values)}")
    if not all(0 < v < math.inf for v in values):
        raise ConfigError("weights must be finite and strictly positive")
    return WeightSeq(l, values)


def _complex_pair(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_rows(M: np.ndarray):
    return [[_complex_pair(z) for z in row] for row in M]


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _matrix_csv(M: np.ndarray) -> str:
    lines = []
    for row in M:
        cells = []
        for z in row:
            cells.append(repr(float(np.real(z))))
            cells.append(repr(float(np.imag(z))))
        lines.append(",".join(cells))
    return "\n".join(lines)


def cmd_matrix(args) -> int:
    l = args.l
    q = parse_complex(args.q)
    ctx = AlgebraCtx(l, q)
    w = parse_weights(args.weights, l, q)
    which = args.which
    if which == "pk":
        M = pk_operator(w)
        basis = "aw"
    else:
        if args.symbol is None:
            raise ConfigError(f"--symbol is required for --which {which}")
        try:
            expr = parse(args.symbol)
        except ParseError as exc:
            raise ConfigError(str(exc))
        g = from_free_expr(expr, ctx)
        if which == "toeplitz":
            M, basis = toeplitz(g, w, ctx).matrix, "monomial"
        elif which == "toeplitz-on":
            M, basis = toeplitz_orthonormal(g, w, ctx).matrix, "orthonormal"
        elif which == "coherent":
            M, basis = coherent_quantization(g, w, ctx), "orthonormal"
        elif which == "flat":
            M, basis = toeplitz_flat(g, w, ctx), "orthonormal"
        elif which == "mult-left":
            M, basis = mult_operator(g, "left", ctx), "aw"
        elif which == "mult-right":
            M, basis = mult_operator(g, "right", ctx), "aw"
        else:
            raise ConfigError(f"unknown matrix kind {which!r}")
    if args.format == "json":
        payload = {"l": l, "q": _complex_pair(q), "weights": list(w.w),
                   "basis": basis, "rows": _matrix_rows(M)}
        _emit(json.dumps(payload), args.output)
    else:
        _emit(_matrix_csv(M), args.output)
    return 0


def cmd_gram(args) -> int:
    l = args.l
    q = parse_complex(args.q)
    w = parse_weights(args.weights, l, q)
    G = gram_matrix(w)
    det = float(np.linalg.det(G))
    if args.format == "json":
        payload = {"l": l, "q": _complex_pair(q), "weights": list(w.w),
                   "basis": "aw", "determinant": det, "rows": _matrix_rows(G)}
        _emit(json.dumps(payload), args.output)
    else:
        _emit(_matrix_csv(G) + f"\ndeterminant,{det!r}", args.output)
    return 0


def cmd_spectrum(args) -> int:
    l = args.l
    q = parse_complex(args.q)
    ctx = AlgebraCtx(l, q)
    w = parse_weights(args.weights, l, q)
    lad = ladder_set(w, ctx)
    eigenvalues = sorted(float(np.real(x)) for x in np.diag(lad.number.matrix))
    norm = operator_norm_bh(lad.creation, w)
    payload = {
        "l": l,
        "q": _complex_pair(q),
        "weights": list(w.w),
        "deformed_integers": list(lad.deformed_ints),
        "deformed_factorials": list(lad.deformed_factorials),
        "number_operator_eigenvalues": eigenvalues,
        "creation_operator_norm": norm,
        "wick_order_rank_probe": {"rank": wick_rank_probe(w, ctx),
                                  "label": "informational"},
    }
    if args.format == "json":
        _emit(json.dumps(payload), args.output)
    else:
        lines = []
        for key in ("deformed_integers", "deformed_factorials",
                    "number_operator_eigenvalues"):
            lines.append(",".join([key] + [repr(v) for v in payload[key]]))
        lines.append(f"creation_operator_norm,{norm!r}")
        lines.append(f"wick_order_rank_probe,{payload['wick_order_rank_probe']['rank']},informational")
        _emit("\n".join(lines), args.output)
    return 0


def cmd_verify(args) -> int:
    seed = args.seed
    if os.environ.get("PG_SEED"):
        try:
            seed = int(os.environ["PG_SEED"])
        except ValueError:
            raise ConfigError("PG_SEED must be an integer")
    ls = (args.l,) if args.l else verify_mod.GRID_LS
    if args.q:
        qs = ((args.q, parse_complex(args.q)),)
    else:
        qs = verify_mod.GRID_QS

    results = []
    for l in ls:
        for q_id, q in qs:
            if args.weights:
                points = [("custom" if "," in args.weights else args.weights,
                           parse_weights(args.weights, l, q))]
            else:
                points = [(w_id, verify_mod.grid_weights(w_id, l))
                          for w_id in verify_mod.GRID_WEIGHT_IDS]
            for w_id, w in points:
                results.extend(verify_mod.run_point(
                    l, q_id, q, w_id, w, seed=seed, tol=args.tolerance))
    results.sort(key=lambda r: (r.check, r.l, r.q_id, r.w_id))

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
            elif any(s.startswith("expected-fail") for s in statuses):
                overall = "expected-fail (q not real)"
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

    def common(p, need_weights=True):
        p.add_argument("--l", type=int, required=True, help="algebra order (>= 2)")
        p.add_argument("--q", default="1", help="deformation parameter, a+bi text")
        p.add_argument("--weights", required=need_weights,
                       help="comma list or preset: ones|factorial|qfactorial")
        p.add_argument("--tolerance", type=float, default=1e-9)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write here instead of stdout")

    p_matrix = sub.add_parser("matrix", help="emit one operator matrix")
    common(p_matrix)
    p_matrix.add_argument("--which", required=True,
                          choices=("toeplitz", "toeplitz-on", "coherent", "flat",
                                   "pk", "mult-left", "mult-right"))
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
    p_verify.add_argument("--q", default=None)
    p_verify.add_argument("--weights", default=None)
    p_verify.add_argument("--grid", choices=("default",), default="default")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance", type=float, default=1e-9)
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
