"""Acceptance gate: one test and one printed pass/fail line per criterion.

Criteria 1-8 sweep the full verification grid (5 orders x 5 deformation
values x 5 weight choices); 9 exercises the parser corpus; 10 compares CLI
output byte-for-byte against frozen golden files.
"""
import json
import pathlib
import numpy as np
import pytest

from pgquant import (AlgebraCtx, PGElement, WeightSeq, form, format_element,
                     from_free_expr, parse)
from pgquant.cli import main
from pgquant import verify as verify_mod

from test_symbols import ACCEPT, REJECT, build

GOLDEN = pathlib.Path(__file__).parent / "golden"
TOL = 1e-9


@pytest.fixture
def report(capsys):
    """Emit one verdict line per criterion past pytest's output capture."""
    def _report(criterion: int, label: str, ok: bool):
        with capsys.disabled():
            print(f"acceptance criterion {criterion:2d} ({label}): "
                  f"{'pass' if ok else 'FAIL'}", flush=True)
        assert ok, f"criterion {criterion} ({label}) failed"
    return _report


@pytest.fixture(scope="module")
def grid():
    """One full-grid sweep shared by criteria 1-8, keyed by check name."""
    results = verify_mod.run_grid(seed=0, tol=TOL)
    by_check = {}
    for r in results:
        by_check.setdefault(r.check, []).append(r)
    return by_check


def _all_ok(records, tol=TOL):
    return all(r.ok for r in records) and max(r.residual for r in records) < tol


def test_criterion_1_projection(grid, report):
    recs = grid["pk_projection"]
    assert len(recs) == 125
    report(1, "reproducing projection idempotent and form-self-adjoint",
           _all_ok(recs))


def test_criterion_2_toeplitz_dual_path(grid, report):
    recs = grid["toeplitz_dual_path"]
    assert len(recs) == 125
    report(2, "closed-form vs projection-route Toeplitz matrices", _all_ok(recs))


def test_criterion_3_rank_checks(grid, report):
    ok = (_all_ok(grid["toeplitz_iso_rank"])
          and _all_ok(grid["operator_basis_rank"])
          and _all_ok(grid["quantization_equivalences"]))
    report(3, "T-map, anti-Wick operator set, coherent-map ranks all l^2", ok)


def test_criterion_4_quantization_equivalences(grid, report):
    report(4, "coherent/orthonormal-Toeplitz/flat agreement",
           _all_ok(grid["quantization_equivalences"]))


def test_criterion_5_adjoint_and_multiplicativity(grid, report):
    ok = _all_ok(grid["adjoint_symbol_rule"]) and _all_ok(grid["multiplicativity"])
    report(5, "adjoint symbol rule and one-sided multiplicativity", ok)


def test_criterion_6_form_dual_path(grid, report):
    recs = grid["form_mode_agreement"]
    ok = all(r.ok for r in recs) and max(r.residual for r in recs) < 1e-12
    ok = ok and _all_ok(grid["gram_properties"])
    w = WeightSeq(2, (1.0, 2.0))
    iso = PGElement.basis(2, 1, 1)
    neg = PGElement.basis(2, 1, 1) - PGElement.one(2)
    for mode in ("closed", "definitional"):
        ok = ok and form(iso, iso, w, mode) == 0.0
        ok = ok and form(neg, neg, w, mode) == -3.0
    report(6, "form dual-path < 1e-12 and exact witnesses", ok)


def test_criterion_7_ladder_facts(grid, report):
    ok = _all_ok(grid["ladder_facts"]) and _all_ok(grid["number_operator"])
    report(7, "ladder spectrum, nilpotency, kernels, Dirichlet identity", ok)


def test_criterion_8_star_criterion(grid, report):
    recs = grid["star_criterion"]
    real_recs = [r for r in recs if r.q_id != "exp(i*pi/3)"]
    complex_recs = [r for r in recs if r.q_id == "exp(i*pi/3)"]
    ok = _all_ok(real_recs)
    ok = ok and all(r.status == "expected-fail (q not real)" for r in complex_recs)
    # the criterion names q = i explicitly
    at_i = verify_mod.run_point(3, "i", 1j, "ones",
                                verify_mod.grid_weights("ones", 3),
                                checks=("star_criterion",))
    ok = ok and at_i[0].status == "expected-fail (q not real)"
    report(8, "conjugation product rule iff q real", ok)


def test_criterion_9_parser(report):
    ok = len(ACCEPT) == 30 and len(REJECT) == 10
    ctx = AlgebraCtx(3, 2.0)
    for text, entries in ACCEPT:
        out = from_free_expr(parse(text), ctx)
        ok = ok and np.allclose(out.coeffs, build(3, entries).coeffs, atol=1e-12)
    for text in REJECT:
        try:
            parse(text)
            ok = False
        except Exception:
            pass
    for l in (2, 3, 4, 5, 6):
        rng = np.random.default_rng(900 + l)
        rt_ctx = AlgebraCtx(l, 1.0)
        for _ in range(100):
            f = PGElement(l, rng.standard_normal((l, l))
                          + 1j * rng.standard_normal((l, l)))
            back = from_free_expr(parse(format_element(f)), rt_ctx)
            ok = ok and np.allclose(back.coeffs, f.coeffs, atol=1e-9)
    report(9, "parser corpus and format round-trip", ok)


def test_criterion_10_cli_golden(capsys, report):
    cases = [
        (["matrix", "--l", "2", "--q", "1", "--weights", "1,2",
          "--which", "toeplitz", "--symbol", "th"], "matrix_toeplitz_th.json"),
        (["matrix", "--l", "2", "--q", "1", "--weights", "1,2",
          "--which", "toeplitz", "--symbol", "th*thb"], "matrix_toeplitz_th_thb.json"),
        (["matrix", "--l", "2", "--q", "1", "--weights", "1,2",
          "--which", "pk"], "matrix_pk.json"),
        (["spectrum", "--l", "3", "--q", "1", "--weights", "1,1,2"],
         "spectrum_l3.json"),
        (["spectrum", "--l", "2", "--q", "1", "--weights", "1,2"],
         "spectrum_l2.json"),
    ]
    ok = True
    for argv, golden in cases:
        code = main(argv)
        out = capsys.readouterr().out
        ok = ok and code == 0 and out == (GOLDEN / golden).read_text()
        # sanity: the payload is valid single-line JSON
        ok = ok and isinstance(json.loads(out), dict)
    report(10, "CLI golden files byte-for-byte", ok)


@pytest.mark.parametrize("argv,golden", [
    (["gram", "--l", "3", "--q", "1", "--weights", "1,2,6"], "gram_l3.csv"),
    (["spectrum", "--l", "3", "--q", "2", "--weights", "factorial"], "spectrum_l3_q2.csv"),
    (["matrix", "--l", "4", "--q", "0+1i", "--weights", "factorial", "--which", "coherent",
      "--symbol", "th^2+i*thb"], "matrix_coherent_qi.csv"),
])
def test_cli_csv_golden(capsys, argv, golden):
    """The CSV layout of matrix, gram and spectrum, byte for byte."""
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
