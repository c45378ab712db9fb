"""The verify sweep's bytes on every numpy SIMD path and OpenBLAS kernel.

`pgquant verify --seed 0 --format json` runs in fresh processes, side by side:
a reference with PYTHONHASHSEED=1, and one process for each of SETTINGS.  Each
sweep exits 0, so every record passes, and writes nothing to stderr, and no
setting moves a status.  Another hash seed moves no byte.
Another BLAS kernel, or numpy without its AVX2 and AVX-512 loops, may move the
residuals of the checks in CPU_PATH_DEPENDENT, and no other record's bytes.

The tests marked cpu_path pin the kernels, the checks' loops and the CLI's
golden files on whatever path their own process runs; CI runs them under each
of the CPU_SETTINGS, which it reads from this module, for example
`OPENBLAS_CORETYPE=Haswell python -m pytest -m cpu_path`.
"""
import json
import platform
import subprocess
import sys

import pytest

from test_cli import fresh_env

# the checks whose residuals sum in numpy's SIMD loops or in BLAS, so that
# their last digits depend on the CPU path
CPU_PATH_DEPENDENT = frozenset({
    "adjoint_wrt_form", "associativity", "compression_identity", "defining_relation",
    "free_expr_linearity", "mixed_products", "multiplicativity", "number_operator",
    "pk_projection", "q_commute_compression", "quantization_equivalences",
    "star_criterion"})

SETTINGS = {
    "hash-seed": {"PYTHONHASHSEED": "2"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "no-avx2": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
}
# OPENBLAS_CORETYPE selects among x86 kernels, and the features numpy drops
# are x86 ones
X86 = platform.machine() in ("x86_64", "AMD64")
CPU_SETTINGS = ("haswell", "prescott", "no-avx2")


@pytest.fixture(scope="module")
def sweeps():
    """The (exit code, stdout, stderr) of the reference and of each setting
    that this machine runs, each sweep in its own process.  The reference and
    the hash-seed sweep run on the BLAS threads a user gets by default; each
    CPU setting runs on one, so that the concurrent sweeps do not oversubscribe
    the cores."""
    run = {"reference": {}, **{name: env for name, env in SETTINGS.items()
                               if X86 or name not in CPU_SETTINGS}}
    argv = [sys.executable, "-m", "pgquant", "verify", "--seed", "0", "--format", "json"]
    procs, done = {}, {}
    try:
        for name, env in run.items():
            threads = {"OPENBLAS_NUM_THREADS": "1"} if name in CPU_SETTINGS else {}
            procs[name] = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=fresh_env(**{"PYTHONHASHSEED": "1", **threads, **env}))
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=600)
            done[name] = proc.returncode, out, err
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return done


def records(stdout: str) -> list:
    return json.loads(stdout)["records"]


def test_the_reference_sweep_is_quiet_and_its_toeplitz_routes_agree_exactly(sweeps):
    """Both Toeplitz routes sum the same terms in the same order without BLAS,
    so every toeplitz_dual_path residual is 0.0."""
    code, out, err = sweeps["reference"]
    assert (code, err) == (0, "")
    dual = [r for r in records(out) if r["check"] == "toeplitz_dual_path"]
    assert len(dual) == 125
    assert {(r["max_residual"], r["status"]) for r in dual} == {(0.0, "pass")}


@pytest.mark.parametrize("setting", [
    pytest.param(name, marks=pytest.mark.skipif(
        name in CPU_SETTINGS and not X86, reason="an x86 kernel or SIMD path"))
    for name in SETTINGS])
def test_a_setting_moves_no_status_and_only_cpu_path_dependent_bytes(sweeps, setting):
    code, out, err = sweeps[setting]
    assert (code, err) == (0, "")
    want, got = records(sweeps["reference"][1]), records(out)
    status = lambda r: (r["check"], r["l"], r["q"], r["weights"], r["status"])
    assert list(map(status, got)) == list(map(status, want))
    # json.dumps keeps every bit of a residual, the sign of a zero too
    moved = {r["check"] for r, s in zip(want, got) if json.dumps(r) != json.dumps(s)}
    assert moved <= (CPU_PATH_DEPENDENT if setting in CPU_SETTINGS else set())
