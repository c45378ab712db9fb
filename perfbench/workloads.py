"""Inputs, operations and correctness gates of the benchmark's workloads.

Each workload turns a seed and a worker's segment number into the worker's
*units*. A unit is a list of op inputs, and every op is timed on its own. A
worker runs all its units, so every worker of a workload does the same kind
of work from the same fresh start: one whole grid sweep for verify-grid, a
fixed number of five-op blocks for large-structure.

This module imports pgquant, so only the worker and the CLI probe import it:
their fresh interpreter is the one whose set-up is timed.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from pgquant import (AlgebraCtx, PGElement, WeightSeq, adjoint_wrt_form,
                     form, from_free_expr, gram_matrix, mult_operator,
                     multiply, parse, pk_operator, toeplitz)
from pgquant import verify

TOL = 1e-9
EXPECTED_FAIL = "expected-fail (q not real)"
COMPLEX_Q_ID = "exp(i*pi/3)"
GRID_POINTS = len(verify.GRID_LS) * len(verify.GRID_QS) * len(verify.GRID_WEIGHT_IDS)
SWEEP_RECORDS = GRID_POINTS * len(verify.CHECKS)
SWEEP_EXPECTED_FAIL = len(verify.GRID_LS) * len(verify.GRID_WEIGHT_IDS)


class GateError(Exception):
    """An op's output failed its correctness gate."""


# --- verify-grid -------------------------------------------------------------
# One op is verify.run_point with all checks at one grid point; one unit is the
# whole default grid. The seed is the verify seed, which draws every random
# sample the checks use, and it also shuffles the points: each order l then
# runs spread over the whole sweep, so the latency percentiles do not hinge on
# the few seconds in which one l would otherwise run. Caches are unbounded, so
# the order changes no work: each weight sequence is still built once.

class VerifyGrid:
    name = "verify-grid"

    def __init__(self, seed: int, segment: int):
        self.seed = seed
        points = []
        for l in verify.GRID_LS:
            for q_id, q in verify.GRID_QS:
                for w_id in verify.GRID_WEIGHT_IDS:
                    points.append((l, q_id, q, w_id, verify.grid_weights(w_id, l)))
        order = np.random.default_rng([seed, segment, 0x6121D]).permutation(len(points))
        self.units = [[points[i] for i in order]]

    def op(self, point):
        l, q_id, q, w_id, w = point
        return verify.run_point(l, q_id, q, w_id, w, seed=self.seed)

    @staticmethod
    def gate(point, records) -> None:
        """One grid point: every check reports once, none fails, and only the
        star criterion at the complex q is an expected failure."""
        l, q_id = point[0], point[1]
        if [r.check for r in records] != list(verify.CHECK_NAMES):
            raise GateError(f"l={l} q={q_id}: checks reported {len(records)}")
        for r in records:
            if r.l != l or r.q_id != q_id:
                raise GateError(f"{r.check}: record labelled l={r.l} q={r.q_id}")
            if not math.isfinite(r.residual):
                raise GateError(f"{r.check} at l={l} q={q_id}: residual {r.residual}")
            expect = EXPECTED_FAIL if (r.check == "star_criterion"
                                       and q_id == COMPLEX_Q_ID) else "pass"
            if r.status != expect:
                raise GateError(f"{r.check} at l={l} q={q_id} w={r.w_id}: "
                                f"status {r.status!r}, expected {expect!r}")

    @staticmethod
    def gate_unit(outputs) -> None:
        """A whole sweep: 3,375 records, 0 fail, exactly 25 expected failures."""
        records = [r for out in outputs for r in out]
        if len(records) != SWEEP_RECORDS:
            raise GateError(f"sweep gave {len(records)} records, not {SWEEP_RECORDS}")
        if any(r.status == "fail" for r in records):
            raise GateError("sweep has failing records")
        n_expected = sum(r.status == EXPECTED_FAIL for r in records)
        if n_expected != SWEEP_EXPECTED_FAIL:
            raise GateError(f"sweep has {n_expected} expected failures, "
                            f"not {SWEEP_EXPECTED_FAIL}")

    @staticmethod
    def digest(point, records) -> str:
        return repr([(r.check, r.l, r.q_id, r.w_id, r.residual, r.status, r.note)
                     for r in records])

    @staticmethod
    def op_span(point) -> str:
        return f"verify.l{point[0]}"

    @staticmethod
    def extra(pairs) -> dict:
        records = [r for _, out in pairs for r in out]
        return {"records": len(records),
                "failed_records": sum(r.status == "fail" for r in records),
                "expected_fail": sum(r.status == EXPECTED_FAIL for r in records)}

    @staticmethod
    def sizes() -> dict:
        return {"ls": list(verify.GRID_LS), "qs": [q for q, _ in verify.GRID_QS],
                "weights": list(verify.GRID_WEIGHT_IDS), "checks": len(verify.CHECKS),
                "ops_per_unit": GRID_POINTS}


# --- large-structure ---------------------------------------------------------
# One op is one dual-route structure check at a large order, with fresh random
# weights (so every cached function misses) and a dense random symbol. The
# weights stay within a factor 1.25 of the flat ones. The grid's
# uniform(0.25, 4) law is not used: at l = 24 it makes the Gram matrix so
# ill-conditioned that adjoint_wrt_form loses every digit or returns NaN, a
# defect recorded by test_known_defect_adjoint_at_l24. With consecutive weight
# ratios in [0.64, 1.5625] the dense LU stays accurate to ~1e-14 at l = 24.

# One unit holds one op at each of these orders. l = 16 appears twice so that
# the median op falls inside one size group, not on the edge between two.
LARGE_LS = (8, 12, 16, 16, 24)
# Ops get slower as a worker's caches grow, so every worker runs the same
# number of blocks; it also bounds that growth (~20 MB per l = 24 op).
BLOCKS_PER_WORKER = 10


def large_inputs(seed: int, segment: int, blocks: int) -> list:
    """`blocks` units; each unit holds one op per entry of LARGE_LS, in a
    seeded order, so that every run has the same mix of sizes."""
    rng = np.random.default_rng([seed, segment, 0x1A26E])
    qs = [q for _, q in verify.GRID_QS]
    units = []
    for _ in range(blocks):
        unit = []
        for l in rng.permutation(LARGE_LS):
            l = int(l)
            q = qs[int(rng.integers(len(qs)))]
            weights = tuple(rng.uniform(0.8, 1.25, l))
            g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
            f = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
            unit.append((l, q, weights, g, f))
        units.append(unit)
    return units


def _rel(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def structure_outputs(l, q, weights, g_table, f_table) -> dict:
    """Call every structure route under test and return what it computed."""
    ctx = AlgebraCtx(l, q)
    w = WeightSeq(l, weights)
    g = PGElement(l, g_table)
    f = PGElement(l, f_table)
    G = gram_matrix(w)
    P = pk_operator(w)
    return {
        "f": f.vector(), "g": g.vector(), "gram": G, "pk": P,
        "pk_adjoint": adjoint_wrt_form(P, w),
        "toeplitz_projection": toeplitz(g, w, ctx, mode="projection").matrix,
        "toeplitz_closed": toeplitz(g, w, ctx).matrix,
        "form_closed": form(f, g, w),
        "form_definitional": form(f, g, w, mode="definitional"),
        "mult_left_operator": mult_operator(g, "left", ctx) @ f.vector(),
        "mult_left_product": multiply(g, f, ctx).vector(),
        "mult_right_operator": mult_operator(g, "right", ctx) @ f.vector(),
        "mult_right_product": multiply(f, g, ctx).vector(),
    }


def structure_residuals(o: dict) -> dict:
    """Relative disagreement of the two routes of every identity."""
    G, P = o["gram"], o["pk"]
    return {
        "gram_symmetric": _rel(G, G.T),
        "gram_form": _rel(np.conj(o["f"]) @ G @ o["g"], o["form_closed"]),
        "pk_idempotent": _rel(P @ P, P),
        "pk_self_adjoint": _rel(o["pk_adjoint"], P),
        "toeplitz": _rel(o["toeplitz_projection"], o["toeplitz_closed"]),
        "form": _rel(o["form_definitional"], o["form_closed"]),
        "mult_left": _rel(o["mult_left_operator"], o["mult_left_product"]),
        "mult_right": _rel(o["mult_right_operator"], o["mult_right_product"]),
    }


class LargeStructure:
    name = "large-structure"

    def __init__(self, seed: int, segment: int):
        self.units = large_inputs(seed, segment, BLOCKS_PER_WORKER)

    @staticmethod
    def op(inp):
        return structure_residuals(structure_outputs(*inp))

    @staticmethod
    def gate(inp, residuals) -> None:
        """Both routes of every identity agree within 1e-9 relative."""
        bad = {k: v for k, v in residuals.items() if not v <= TOL}
        if bad:
            raise GateError(f"l={inp[0]} q={inp[1]}: routes disagree {bad}")

    @staticmethod
    def gate_unit(outputs) -> None:
        pass

    @staticmethod
    def digest(inp, residuals) -> str:
        return repr(sorted(residuals.items()))

    @staticmethod
    def op_span(inp) -> str:
        return f"large.l{inp[0]}"

    @staticmethod
    def extra(pairs) -> dict:
        return {}

    @staticmethod
    def sizes() -> dict:
        return {"ls_per_unit": list(LARGE_LS), "qs": [q for q, _ in verify.GRID_QS],
                "weights": "uniform(0.8, 1.25) per op", "symbol": "dense complex normal",
                "ops_per_unit": len(LARGE_LS), "units_per_worker": BLOCKS_PER_WORKER}


WORKLOADS = {cls.name: cls for cls in (VerifyGrid, LargeStructure)}


# --- CLI probe -----------------------------------------------------------------
# Cold `python -m pgquant` calls made only by the traced run, for the cli and
# symbols layer metrics. Arguments mix `matrix` (every --which kind), `gram` and
# `spectrum` at l = 2..6, grid q values, preset or random weights and generated
# symbol text.

MATRIX_KINDS = ("toeplitz", "toeplitz-on", "coherent", "flat", "pk",
                "mult-left", "mult-right")
_Q_TEXT = ("1", "-1", "0.5", "2", "0.5+0.8660254037844386i")


def _coeff_text(rng) -> str:
    kind = int(rng.integers(3))
    re, im = (float(x) for x in np.round(rng.uniform(0.1, 3.0, 2), 4))
    if kind == 0:
        return repr(re)
    if kind == 1:
        return f"{im!r}i"
    return f"({re!r}{'+' if rng.integers(2) else '-'}{im!r}i)"


def symbol_text(rng, l: int) -> str:
    """A random polynomial in th, thb with words in any order, e.g.
    "1.5*th^2*thb - (0.3+2.1i)*thb*th + 0.7i"."""
    text = ""
    for k in range(int(rng.integers(1, 5))):
        factors = [_coeff_text(rng)]
        for _ in range(int(rng.integers(0, l + 1))):
            gen = "thb" if rng.integers(2) else "th"
            power = int(rng.integers(1, 3))
            factors.append(gen if power == 1 else f"{gen}^{power}")
        sign = " - " if rng.integers(2) else " + "
        text += ("-" if sign == " - " else "") if k == 0 else sign
        text += "*".join(factors)
    return text


def cli_argvs(seed: int, n: int) -> list:
    rng = np.random.default_rng([seed, 0xC11])
    argvs = []
    for _ in range(n):
        l = int(rng.integers(2, 7))
        q = _Q_TEXT[int(rng.integers(len(_Q_TEXT)))]
        pick = int(rng.integers(3))
        weights = ("ones", "factorial")[pick] if pick < 2 else ",".join(
            repr(float(x)) for x in np.round(rng.uniform(0.25, 4.0, l), 6))
        command = int(rng.integers(len(MATRIX_KINDS) + 2))
        argv = ["--l", str(l), "--q", q, "--weights", weights, "--format", "json"]
        if command < len(MATRIX_KINDS):
            argv = ["matrix", *argv, "--which", MATRIX_KINDS[command]]
            if MATRIX_KINDS[command] != "pk":
                # one token, so that a leading minus is not read as an option
                argv.append(f"--symbol={symbol_text(rng, l)}")
        else:
            argv = [("gram", "spectrum")[command - len(MATRIX_KINDS)], *argv]
        argvs.append(argv)
    return argvs


def _arg(argv, flag):
    for k, token in enumerate(argv):
        if token == flag:
            return argv[k + 1]
        if token.startswith(flag + "="):
            return token[len(flag) + 1:]
    return None


def cli_reference(argv) -> dict:
    """The library's answer to one CLI call, computed in this process."""
    from pgquant import (coherent_quantization, ladder_set, operator_norm_bh,
                         preset_weights, toeplitz_flat, toeplitz_orthonormal,
                         wick_rank_probe)
    l = int(_arg(argv, "--l"))
    q = complex(_arg(argv, "--q").replace("i", "j"))
    wtext = _arg(argv, "--weights")
    w = (preset_weights(wtext, l) if wtext in ("ones", "factorial")
         else WeightSeq(l, tuple(float(x) for x in wtext.split(","))))
    ctx = AlgebraCtx(l, q)
    if argv[0] == "gram":
        G = gram_matrix(w)
        return {"rows": G, "determinant": float(np.linalg.det(G))}
    if argv[0] == "spectrum":
        lad = ladder_set(w, ctx)
        return {"deformed_integers": list(lad.deformed_ints),
                "deformed_factorials": list(lad.deformed_factorials),
                "number_operator_eigenvalues": sorted(
                    float(np.real(x)) for x in np.diag(lad.number.matrix)),
                "creation_operator_norm": operator_norm_bh(lad.creation, w),
                "wick_order_rank_probe": {"rank": wick_rank_probe(w, ctx),
                                          "label": "informational"}}
    which = _arg(argv, "--which")
    if which == "pk":
        return {"rows": pk_operator(w)}
    g = from_free_expr(parse(_arg(argv, "--symbol")), ctx)
    build = {
        "toeplitz": lambda: toeplitz(g, w, ctx).matrix,
        "toeplitz-on": lambda: toeplitz_orthonormal(g, w, ctx).matrix,
        "coherent": lambda: coherent_quantization(g, w, ctx),
        "flat": lambda: toeplitz_flat(g, w, ctx),
        "mult-left": lambda: mult_operator(g, "left", ctx),
        "mult-right": lambda: mult_operator(g, "right", ctx),
    }
    return {"rows": build[which]()}


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def cli_gate(argv, exit_code: int, payload) -> None:
    """Exit 0, valid JSON, every number finite, and equal to the in-process
    library call on the same inputs."""
    if exit_code != 0:
        raise GateError(f"{argv[0]}: exit {exit_code}")
    if not isinstance(payload, dict) or not _finite(payload):
        raise GateError(f"{argv[0]}: output is not finite JSON")
    for key, want in cli_reference(argv).items():
        got = payload.get(key)
        if isinstance(want, np.ndarray):
            got = np.asarray(got, dtype=float)
            want = np.stack([want.real, want.imag], axis=-1)
            if got.shape != want.shape or not np.array_equal(got, want):
                raise GateError(f"{argv[0]}: {key} differs from the library")
        elif got != want:
            raise GateError(f"{argv[0]}: {key} is {got!r}, library gives {want!r}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
