import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgquant import (MONOMIAL, ORTHONORMAL, AlgebraCtx, PGElement, WeightSeq, gram_matrix,
                     ladder_set, operator_norm_bh, toeplitz, wick_rank_probe)
from pgquant.forms import WEIGHT_PRESETS
from pgquant import verify as verify_mod
from pgquant.cli import MATRIX_KINDS, MAX_L, main, parse_complex, parse_weights, ConfigError

GOLDEN = pathlib.Path(__file__).parent / "golden"
GRID_Q_IDS = [q_id for q_id, _ in verify_mod.GRID_QS]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(results):
    """CheckResults as `pgquant verify --format json` lists its records."""
    return [{"check": r.check, "l": r.l, "q": r.q_id, "weights": r.w_id,
             "max_residual": r.residual, "status": r.status, "note": r.note}
            for r in results]


def fresh_env(**env):
    """The environment with env added and this checkout's src first on the
    path."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_fresh(*argv, **env):
    """`python -m pgquant argv` in a new interpreter, with env added to the
    environment."""
    return subprocess.run([sys.executable, "-m", "pgquant", *argv],
                          capture_output=True, text=True, env=fresh_env(**env))


class TestParseHelpers:
    def test_complex_forms(self):
        assert parse_complex("1") == 1
        assert parse_complex("-1") == -1
        assert parse_complex("0.5") == 0.5
        assert parse_complex("0+1i") == 1j
        assert parse_complex("i") == 1j
        assert parse_complex("-i") == -1j
        assert parse_complex("2-3i") == 2 - 3j

    def test_bare_imaginary_unit_has_the_bits_of_one_i(self):
        # repr tells a signed zero apart, which == ignores
        for text in ("i", "+i", " i "):
            assert repr(parse_complex(text)) == repr(parse_complex("1i")) == "1j"
        assert repr(parse_complex("-i")) == repr(parse_complex("-1i")) == "-1j"

    @pytest.mark.parametrize("q_id,q", verify_mod.GRID_QS, ids=GRID_Q_IDS)
    def test_a_grid_q_id_is_the_grid_value_bit_for_bit(self, q_id, q):
        z = parse_complex(q_id)
        assert (float.hex(z.real), float.hex(z.imag)) == (float.hex(q.real), float.hex(q.imag))

    def test_complex_rejects(self):
        with pytest.raises(ConfigError):
            parse_complex("one")

    def test_weights_list_and_presets(self):
        assert parse_weights("1,2", 2, 1.0).w == (1.0, 2.0)
        assert parse_weights("ones", 3, 1.0).w == (1.0, 1.0, 1.0)
        assert parse_weights("factorial", 3, 1.0).w == (1.0, 1.0, 2.0)
        # the seeded draws of the verify grid
        assert [parse_weights(f"rand{k}", 2, 1.0).w for k in (1, 2, 3)] == [
            (2.294116535007638, 3.952126658574083),
            (3.172547930499495, 2.0523619018907917),
            (1.3355691389684907, 1.5361041814670569)]

    @pytest.mark.parametrize("w_id", verify_mod.GRID_WEIGHT_IDS)
    def test_a_grid_weight_id_is_the_grid_weights(self, w_id):
        for l in verify_mod.GRID_LS:
            for _, q in verify_mod.GRID_QS:
                assert parse_weights(w_id, l, q) == verify_mod.grid_weights(w_id, l)

    def test_weights_rejects(self):
        with pytest.raises(ConfigError):
            parse_weights("1,2,3", 2, 1.0)
        with pytest.raises(ConfigError):
            parse_weights("1,0,2", 3, 1.0)
        with pytest.raises(ConfigError):
            parse_weights("qfactorial", 3, 1.0)  # undefined at q = 1


class TestGoldenFiles:
    @pytest.mark.parametrize("argv,golden", [
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
    ])
    def test_byte_for_byte(self, capsys, argv, golden):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()


class TestMatrixCommand:
    def test_json_round_trips_to_recomputation(self, capsys):
        code, out, _ = run(capsys, "matrix", "--l", "3", "--q", "0.5",
                           "--weights", "1,2,6", "--which", "toeplitz",
                           "--symbol", "th*thb")
        assert code == 0
        payload = json.loads(out)
        assert payload["basis"] == "monomial"
        got = np.array([[complex(re, im) for re, im in row]
                        for row in payload["rows"]])
        want = toeplitz(PGElement.basis(3, 1, 1), WeightSeq(3, (1.0, 2.0, 6.0)),
                        AlgebraCtx(3, 0.5)).matrix
        assert np.array_equal(got, want)

    def test_deterministic(self, capsys):
        argv = ("matrix", "--l", "4", "--q", "0+1i", "--weights", "factorial",
                "--which", "coherent", "--symbol", "th^2 + i*thb")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "matrix", "--l", "2", "--q", "1",
                           "--weights", "1,2", "--which", "toeplitz",
                           "--symbol", "th", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert [[float(x) for x in row] for row in rows] == [
            [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "m.json"
        code, out, _ = run(capsys, "matrix", "--l", "2", "--q", "1",
                           "--weights", "1,2", "--which", "toeplitz",
                           "--symbol", "th", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == (GOLDEN / "matrix_toeplitz_th.json").read_text()

    def test_bad_symbol_exit_2(self, capsys):
        code, _, err = run(capsys, "matrix", "--l", "2", "--q", "1",
                           "--weights", "1,2", "--which", "toeplitz",
                           "--symbol", "th^-1")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize("symbol,message", [
        ("$$", "parse error at position 0: unknown token '$'"),
        ("1e300*1e300*th", "the symbol overflowed to inf or NaN"),
    ], ids=["malformed", "overflowing"])
    def test_every_kind_rejects_a_bad_symbol(self, capsys, symbol, message):
        """For every kind: pk reads no symbol, but a given one is still checked."""
        for which in MATRIX_KINDS:
            code, out, err = run(capsys, "matrix", "--l", "2", "--q", "1", "--weights", "1,2",
                                 "--which", which, "--symbol", symbol)
            assert (code, out) == (2, "") and message in err, which

    def test_pk_drops_a_well_formed_symbol(self, capsys):
        argv = ("matrix", "--l", "3", "--weights", "factorial", "--which", "pk")
        assert run(capsys, *argv, "--symbol", "th*thb - 2i") == run(capsys, *argv)

    @pytest.mark.parametrize("which", [k for k in MATRIX_KINDS if k != "pk"])
    def test_missing_symbol_exit_2(self, capsys, which):
        assert run(capsys, "matrix", "--l", "2", "--q", "1", "--weights", "1,2",
                   "--which", which) == (2, "", f"error: --symbol is required for --which {which}\n")

    def test_bad_weights_exit_2(self, capsys):
        code, _, err = run(capsys, "matrix", "--l", "3", "--q", "1",
                           "--weights", "1,0,2", "--which", "pk")
        assert code == 2
        assert "strictly positive" in err

    @pytest.mark.parametrize("command,weights,reason", [
        ("gram", "1,2", "expected 3 weights, got 2"),
        ("gram", "1,0,1", "weights must be finite and strictly positive"),
        ("gram", "1,nan,1", "weights must be finite and strictly positive"),
        ("gram", "1,inf,2", "weights must be finite and strictly positive"),
        ("gram", "1,2,x", "cannot parse weights '1,2,x'"),
        ("verify", "1,2", "expected 3 weights, got 2"),
    ])
    def test_bad_weight_lists_name_their_reason(self, capsys, command, weights, reason):
        assert run(capsys, command, "--l", "3", "--weights", weights) == (2, "", f"error: {reason}\n")


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [
        ("gram", "--l", "2", "--q", "1", "--weights", "nan,1"),
        ("gram", "--l", "2", "--q", "1", "--weights", "1e400,1"),
        ("matrix", "--l", "3", "--q", "nan", "--weights", "ones", "--which", "pk"),
        ("gram", "--l", "2", "--q", "nan", "--weights", "1,2"),
        ("verify", "--l", "2", "--q", "1", "--weights", "1,nan"),
    ])
    def test_non_finite_input_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_infinite_q_is_reported_as_not_finite(self, capsys):
        code, out, err = run(capsys, "gram", "--l", "2", "--q", "inf", "--weights", "1,1")
        assert code == 2 and out == ""
        assert err == "error: complex number 'inf' is not finite\n"

    @pytest.mark.parametrize("text", ["inf", "-inf", "Infinity", "nan", "1+infi", "nan-2i"])
    def test_non_finite_spellings(self, text):
        with pytest.raises(ConfigError, match="not finite"):
            parse_complex(text)


@pytest.mark.parametrize("argv", [
    ("verify", "--l", "2", "--grid", "default"),
    ("matrix", "--l", "2", "--weights", "ones", "--which", "pk", "--tolerance", "1e-9"),
    ("gram", "--l", "2", "--weights", "ones", "--tolerance", "1e-9"),
    ("spectrum", "--l", "2", "--weights", "ones", "--tolerance", "1e-9"),
])
def test_removed_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["matrix", "gram", "spectrum", "verify"])
def test_help_exits_0_and_lists_the_which_kinds_in_order(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: pgquant {command} ")
    kinds = "{toeplitz,toeplitz-on,coherent,flat,pk,mult-left,mult-right}"
    assert (kinds in out) == (command == "matrix")
    # every command reads the grid's q ids and every weight preset
    assert "|".join(GRID_Q_IDS) in out
    assert "|".join(WEIGHT_PRESETS) in out


@pytest.mark.parametrize("command", ["matrix", "gram", "spectrum"])
def test_point_commands_read_a_verify_grid_point(capsys, command):
    """matrix, gram and spectrum read verify's q ids and weight presets as
    verify does, so a verify record can be inspected at its exact inputs."""
    l, q = 4, dict(verify_mod.GRID_QS)["exp(i*pi/3)"]
    w, ctx = verify_mod.grid_weights("rand2", l), AlgebraCtx(l, q)
    extra = {"matrix": ("--which", "toeplitz", "--symbol", "th*thb")}.get(command, ())
    code, out, err = run(capsys, command, "--l", str(l), "--q", "exp(i*pi/3)",
                         "--weights", "rand2", *extra)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["q"] == [q.real, q.imag] and payload["weights"] == list(w.w)
    if command == "spectrum":
        lad = ladder_set(w, ctx)
        assert payload["deformed_integers"] == list(lad.deformed_ints)
        assert payload["deformed_factorials"] == list(lad.deformed_factorials)
        assert payload["number_operator_eigenvalues"] == sorted(
            float(np.real(x)) for x in np.diag(lad.number.matrix))
        assert payload["creation_operator_norm"] == operator_norm_bh(lad.creation, w)
        assert payload["wick_order_rank_probe"]["rank"] == wick_rank_probe(w, ctx)
        return
    want = (toeplitz(PGElement.basis(l, 1, 1), w, ctx).matrix if command == "matrix"
            else gram_matrix(w))
    assert np.array_equal([[complex(re, im) for re, im in row] for row in payload["rows"]], want)
    if command == "gram":
        assert payload["determinant"] == float(np.linalg.det(want))


@pytest.mark.parametrize("command", ["matrix", "gram", "spectrum"])
def test_point_commands_run_at_every_verify_grid_point(capsys, command):
    """At every point of the default verify grid the command exits 0 and reads
    the grid's own q and weights, so any verify record can be pasted into it."""
    extra = {"matrix": ("--which", "toeplitz", "--symbol", "th*thb")}.get(command, ())
    for l in verify_mod.GRID_LS:
        for q_id, q in verify_mod.GRID_QS:
            q = complex(q)
            for w_id in verify_mod.GRID_WEIGHT_IDS:
                code, out, err = run(capsys, command, "--l", str(l), "--q", q_id,
                                     "--weights", w_id, *extra)
                assert (code, err) == (0, ""), (l, q_id, w_id)
                payload = json.loads(out)
                assert payload["q"] == [q.real, q.imag], (l, q_id, w_id)
                assert payload["weights"] == list(verify_mod.grid_weights(w_id, l).w)


def test_matrix_kind_labels_are_the_library_bases():
    assert {basis for basis, _ in MATRIX_KINDS.values()} <= {MONOMIAL, ORTHONORMAL, "aw"}


class TestSignedValues:
    """A value that starts with '-' may follow its option as a separate token."""

    @pytest.mark.parametrize("option,value,rest", [
        ("--q", "-i", ("gram", "--l", "2", "--weights", "1,1")),
        ("--q", "-0.5+0.8i", ("gram", "--l", "2", "--weights", "1,1")),
        ("--q", "-0.5+0.8i", ("verify", "--l", "2", "--weights", "ones")),
        ("--symbol", "-th", ("matrix", "--l", "3", "--weights", "1,2,3",
                             "--which", "toeplitz")),
        ("--symbol", "-(th + 1)*thb", ("matrix", "--l", "3", "--q", "-1",
                                       "--weights", "ones", "--which", "coherent")),
    ])
    def test_separate_and_glued_forms_agree(self, capsys, option, value, rest):
        code, out, err = run(capsys, *rest, option, value)
        assert (code, err) == (0, "")
        assert run(capsys, *rest, f"{option}={value}") == (code, out, err)

    @pytest.mark.parametrize("option,value,rest,reason", [
        ("--weights", "-1e-3,1,1", ("gram", "--l", "3"),
         "weights must be finite and strictly positive"),
        ("--tolerance", "-1e-3", ("verify", "--l", "2"),
         "--tolerance must be finite and > 0, got -0.001"),
    ])
    def test_rejected_negative_values_give_their_reason_in_both_forms(
            self, capsys, option, value, rest, reason):
        want = (2, "", f"error: {reason}\n")
        assert run(capsys, *rest, option, value) == want
        assert run(capsys, *rest, f"{option}={value}") == want

    def test_a_following_option_is_not_taken_as_the_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gram", "--l", "2", "--q", "--weights", "1,1"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestOrderBound:
    @given(command=st.sampled_from([
               ("gram", "--weights", "ones"),
               ("spectrum", "--weights", "ones"),
               ("matrix", "--weights", "ones", "--which", "pk"),
               ("matrix", "--weights", "ones", "--which", "mult-right", "--symbol", "th"),
               ("verify",)]),
           l=st.one_of(st.integers(max_value=1), st.integers(min_value=MAX_L + 1)))
    @settings(max_examples=60, deadline=None)
    def test_out_of_range_order_exits_2_before_any_work(self, command, l):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], "--l", str(l), *command[1:]])
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue() == f"error: --l must be between 2 and {MAX_L}, got {l}\n"

    @pytest.mark.parametrize("l", [2, 6])
    def test_in_range_orders_run(self, capsys, l):
        code, out, _ = run(capsys, "gram", "--l", str(l), "--weights", "ones")
        assert code == 0 and len(json.loads(out)["rows"]) == l * l


class TestUsageErrorsInAFreshProcess:
    """Inputs that once ended in a traceback, NaN output or numpy warnings: each
    must exit 2 with one error line, as seen from outside the process."""

    @pytest.mark.parametrize("argv", [
        ("matrix", "--l", "2", "--q", "1", "--weights", "ones", "--which", "toeplitz",
         "--symbol", "(" * 3000 + "th" + ")" * 3000),
        ("matrix", "--l", "6", "--q", "1e-30", "--weights", "ones",
         "--which", "mult-right", "--symbol", "thb*th"),
        ("gram", "--l", "2", "--q", "inf", "--weights", "1,1"),
        ("gram", "--l", "12", "--q", "1", "--weights", "factorial"),
        ("verify", "--l", "2", "--q", "1", "--weights", "1,1e308"),
        ("verify", "--l", "2", "--q", "1", "--weights", "1e-308,1"),
        ("matrix", "--l", "2", "--q", "1", "--weights", "1e-300,1e300", "--which", "pk"),
        ("matrix", "--l", "2", "--q", "1", "--weights", "1e-300,1e300",
         "--which", "toeplitz", "--symbol", "th"),
        ("matrix", "--l", "2", "--q", "1", "--weights", "1,1",
         "--which", "toeplitz", "--symbol", "1e300*1e300*th"),
        ("spectrum", "--l", "2", "--q", "1", "--weights", "1e-300,1e300"),
        # the kernel projection holds inf: LAPACK once printed to stdout on it
        ("verify", "--l", "3", "--q", "1", "--weights",
         "3.4488931673893593e-181,4.539171560614011e-244,1.4763542313330543e+300",
         "--format", "json"),
        # the charge blocks' inverse once summed inf and -inf with math.fsum,
        # which ended the sweep with "-inf + inf in fsum"
        ("verify", "--l", "3", "--q", "1", "--weights", "1.9563811440276517e-308,1.0,5e-324",
         "--format", "json"),
    ], ids=["deep-parentheses", "tiny-q", "infinite-q", "gram-determinant-overflow",
            "verify-huge-weight", "verify-tiny-weight", "pk-overflow", "toeplitz-overflow",
            "symbol-overflow", "spectrum-overflow", "verify-svd-of-inf",
            "verify-fsum-of-both-infinities"])
    def test_exit_2_with_one_error_line(self, argv):
        proc = run_fresh(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        if argv[0] == "verify":
            # a sweep that ends early names the residual that overflowed
            assert proc.stderr.startswith("error: the residual of ")

    @pytest.mark.parametrize("argv", [
        ("matrix", "--l", "2", "--weights", "ones", "--which", "pk"),
        ("gram", "--l", "2", "--weights", "ones"),
        ("spectrum", "--l", "2", "--weights", "ones"),
        ("verify", "--l", "2", "--q", "1", "--weights", "ones"),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("target,reason", [
        (".", "Is a directory"),
        ("no-such-directory/out", "No such file or directory"),
    ], ids=["directory", "missing-parent"])
    def test_a_failed_output_write_exits_2(self, tmp_path, argv, target, reason):
        output = tmp_path / target
        proc = run_fresh(*argv, "--output", str(output))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: cannot write --output {output}: {reason}\n"

    @pytest.mark.parametrize("argv,read", [
        (("gram", "--l", "2", "--weights", "ones"), 0),
        (("verify", "--l", "2", "--q", "1", "--weights", "ones"), 0),
        # about 1 MB of CSV, more than a pipe buffer holds, so the write is
        # still under way when the reader goes
        (("matrix", "--l", "12", "--weights", "ones", "--which", "mult-left",
          "--symbol", "th", "--format", "csv"), 10),
    ], ids=["gram-without-reader", "verify-without-reader", "matrix-closed-mid-write"])
    def test_a_closed_stdout_exits_2(self, argv, read):
        """stdout is a pipe whose reader takes `read` bytes and goes, or is gone
        before the start when `read` is 0."""
        # stdout block-buffered, as it is by default, so that bytes are left
        # for the interpreter's flush at exit
        env = fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        reader, writer = os.pipe()
        if not read:
            os.close(reader)
        proc = subprocess.Popen([sys.executable, "-m", "pgquant", *argv], stdout=writer,
                                stderr=subprocess.PIPE, text=True, env=env)
        os.close(writer)
        if read:
            assert len(os.read(reader, read)) == read
            os.close(reader)
        err = proc.stderr.read()
        assert (proc.wait(), err) == (2, "error: cannot write to stdout: Broken pipe\n")


class TestFiniteOutputGate:
    """A command prints only finite numbers; otherwise its one error line
    names the quantity that overflowed."""

    @pytest.mark.parametrize("argv,quantity", [
        (("matrix", "--l", "2", "--q", "1", "--weights", "1e-300,1e300", "--which", "pk"),
         "the pk matrix"),
        (("matrix", "--l", "2", "--q", "1", "--weights", "1e-300,1e300",
          "--which", "coherent", "--symbol", "th"), "the coherent matrix"),
        (("matrix", "--l", "2", "--q", "1", "--weights", "1,1",
          "--which", "toeplitz", "--symbol", "1e300*1e300*th"), "the symbol"),
        (("gram", "--l", "12", "--q", "1", "--weights", "factorial"), "the Gram determinant"),
        (("spectrum", "--l", "2", "--q", "1", "--weights", "1e-300,1e300"),
         "the deformed integers"),
        (("spectrum", "--l", "3", "--q", "1", "--weights", "1e-300,1,1e300"),
         "the deformed factorials"),
        (("verify", "--l", "2", "--q", "1", "--weights", "1,1e308"),
         "the residual of adjoint_symbol_rule at l=2 q=1 w=custom"),
    ])
    def test_names_the_quantity(self, capsys, argv, quantity):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {quantity} overflowed to inf or NaN for these inputs\n"

    def test_finite_output_is_unchanged(self, capsys):
        code, out, _ = run(capsys, "matrix", "--l", "2", "--q", "1", "--weights", "1e-100,1e100",
                           "--which", "pk")
        assert code == 0
        assert json.loads(out)["rows"][0][3] == [1e200, 0.0]


LOG_UNIFORM = st.floats(min_value=-308.0, max_value=308.0).map(lambda e: 10.0 ** e)


def log_uniform_weights(l):
    """l weights drawn log-uniform over 1e-308..1e308, about one in four of
    them subnormal instead."""
    subnormal = st.floats(min_value=5e-324, max_value=2e-308)
    weight = st.one_of(LOG_UNIFORM, LOG_UNIFORM, LOG_UNIFORM, subnormal)
    return st.lists(weight, min_size=l, max_size=l).map(
        lambda ws: ",".join(repr(x) for x in ws))


SYMBOLS = st.one_of(
    st.sampled_from(["1e300*th*thb", "(1e308+thb)^2", "1e300*1e300*th", "th", "thb*th"]),
    st.lists(st.tuples(LOG_UNIFORM, st.sampled_from(["1", "th", "thb", "th*thb", "thb^2",
                                                      "q*th"])),
             min_size=1, max_size=3).map(
        lambda terms: "+".join(f"{c!r}*{mono}" for c, mono in terms)))


def any_weights(l):
    """A log-uniform list of l weights, or a preset name."""
    return st.one_of(log_uniform_weights(l), st.sampled_from(WEIGHT_PRESETS))


@st.composite
def any_command(draw):
    command = draw(st.sampled_from(["matrix", "gram", "spectrum", "verify"]))
    if command == "verify":
        l = draw(st.integers(2, 3))
        return ["verify", "--l", str(l), "--q", draw(st.sampled_from(GRID_Q_IDS)),
                "--weights", draw(any_weights(l)), "--format", "json"]
    l = draw(st.integers(2, 5))
    q = draw(st.sampled_from(GRID_Q_IDS + ["0.5+0.8660254037844386i"]))
    argv = [command, "--l", str(l), "--q", q, "--weights", draw(any_weights(l)),
            "--format", "json"]
    if command == "matrix":
        which = draw(st.sampled_from(["toeplitz", "toeplitz-on", "coherent", "flat", "pk",
                                      "mult-left", "mult-right"]))
        argv += ["--which", which, f"--symbol={draw(SYMBOLS)}"]
    return argv


def finite_numbers_only(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(finite_numbers_only, value.values()))
    if isinstance(value, list):
        return all(map(finite_numbers_only, value))
    return True


class TestCliContract:
    """Every argv exits 0, 1 or 2.  On 0 or 1, stdout is JSON holding only
    finite numbers; on 2, stdout is empty and stderr one error line.  This
    capture cannot see output that LAPACK writes from C; the fresh-process
    tests above cover that."""

    @given(argv=any_command())
    @settings(max_examples=40, deadline=None)
    def test_exit_code_and_output(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
            payload = json.loads(out.getvalue(), parse_constant=lambda name: math.nan)
            assert finite_numbers_only(payload)


class TestGramCommand:
    def test_l2_values(self, capsys):
        code, out, _ = run(capsys, "gram", "--l", "2", "--q", "1",
                           "--weights", "1,2")
        assert code == 0
        payload = json.loads(out)
        got = np.array([[re for re, _ in row] for row in payload["rows"]])
        want = [[1, 0, 0, 2], [0, 2, 0, 0], [0, 0, 2, 0], [2, 0, 0, 0]]
        assert np.array_equal(got, want)
        assert payload["determinant"] == pytest.approx(-16.0)


class TestSpectrumCommand:
    def test_ones_preset_constant_ratios(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--l", "4", "--q", "1",
                           "--weights", "ones")
        payload = json.loads(out)
        assert code == 0
        assert payload["deformed_integers"] == [0.0, 1.0, 1.0, 1.0]


class TestVerifyCommand:
    def test_single_point_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--l", "2", "--q", "1",
                           "--weights", "ones")
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--l", "2", "--q", "1",
                           "--weights", "1,2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["total"] == len(payload["records"])

    def test_expected_fail_marking(self, capsys):
        code, out, _ = run(capsys, "verify", "--l", "3", "--q", "0+1i",
                           "--weights", "ones")
        assert code == 0
        assert "expected-fail (q not real)" in out

    def test_bad_weights_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--l", "2", "--q", "1",
                           "--weights", "1,0")
        assert code == 2
        assert "strictly positive" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tolerance):
        # at q = i an infinite tolerance would turn the expected conjugation
        # violation into a pass
        code, out, err = run(capsys, "verify", "--l", "2", "--q", "0+1i",
                             "--weights", "ones", "--tolerance", tolerance)
        assert code == 2 and out == ""
        assert err.startswith("error: --tolerance") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,ls,qs,weights", [
        (("--l", "3", "--q", "0.5", "--weights", "1,2,3"), (3,), (("0.5", 0.5),),
         lambda l, q: [("custom", WeightSeq(3, (1.0, 2.0, 3.0)))]),
        (("--q", "2", "--weights", "factorial"), verify_mod.GRID_LS, (("2", 2.0),),
         lambda l, q: [("factorial", verify_mod.grid_weights("factorial", l))]),
    ], ids=["custom-weights", "preset-at-every-grid-order"])
    def test_records_equal_run_grid(self, capsys, argv, ls, qs, weights):
        code, out, _ = run(capsys, "verify", *argv, "--seed", "4", "--format", "json")
        want = verify_mod.run_grid(ls, qs, weights, seed=4)
        assert json.loads(out)["records"] == json_records(want)
        assert code == (1 if any(r.status == "fail" for r in want) else 0)

    @pytest.mark.parametrize("l,q_id,q", [(3, "0.5", 0.5), (5, "-1", -1.0),
                                          (4, "exp(i*pi/3)", np.exp(1j * np.pi / 3))])
    def test_single_point_records_equal_grid_records(self, capsys, l, q_id, q):
        grid = verify_mod.run_grid((l,), ((q_id, q),), seed=3)
        for w_id in verify_mod.GRID_WEIGHT_IDS:
            code, out, _ = run(capsys, "verify", "--l", str(l), "--q", q_id,
                               "--weights", w_id, "--seed", "3", "--format", "json")
            assert code == 0
            assert json.loads(out)["records"] == json_records(r for r in grid if r.w_id == w_id)

    def test_env_seed_override(self, capsys, monkeypatch):
        argv = ("verify", "--l", "2", "--q", "1", "--weights", "ones",
                "--format", "json")
        monkeypatch.setenv("PG_SEED", "11")
        _, out_env, _ = run(capsys, *argv)
        monkeypatch.delenv("PG_SEED")
        _, out_seed, _ = run(capsys, *argv, "--seed", "11")
        assert out_env == out_seed
        monkeypatch.setenv("PG_SEED", "nope")
        code, _, err = run(capsys, *argv)
        assert code == 2 and "PG_SEED" in err

    @pytest.mark.parametrize("env,option,source", [
        ({}, ("--seed", "-1"), "--seed"),
        ({"PG_SEED": "-1"}, (), "PG_SEED"),
    ], ids=["option", "variable"])
    def test_negative_seed_names_its_source(self, capsys, monkeypatch, env, option, source):
        monkeypatch.delenv("PG_SEED", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert run(capsys, "verify", "--l", "2", "--q", "1", "--weights", "ones", *option) == (
            2, "", f"error: {source} must be a non-negative integer, got -1\n")
