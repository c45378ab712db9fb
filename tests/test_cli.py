import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from pgquant import AlgebraCtx, PGElement, WeightSeq, toeplitz
from pgquant.cli import main, parse_complex, parse_weights, ConfigError

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseHelpers:
    def test_complex_forms(self):
        assert parse_complex("1") == 1
        assert parse_complex("-1") == -1
        assert parse_complex("0.5") == 0.5
        assert parse_complex("0+1i") == 1j
        assert parse_complex("i") == 1j
        assert parse_complex("-i") == -1j
        assert parse_complex("2-3i") == 2 - 3j

    def test_complex_rejects(self):
        with pytest.raises(ConfigError):
            parse_complex("one")

    def test_weights_list_and_presets(self):
        assert parse_weights("1,2", 2, 1.0).w == (1.0, 2.0)
        assert parse_weights("ones", 3, 1.0).w == (1.0, 1.0, 1.0)
        assert parse_weights("factorial", 3, 1.0).w == (1.0, 1.0, 2.0)

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

    def test_missing_symbol_exit_2(self, capsys):
        code, _, err = run(capsys, "matrix", "--l", "2", "--q", "1",
                           "--weights", "1,2", "--which", "toeplitz")
        assert code == 2 and "symbol" in err

    def test_bad_weights_exit_2(self, capsys):
        code, _, err = run(capsys, "matrix", "--l", "3", "--q", "1",
                           "--weights", "1,0,2", "--which", "pk")
        assert code == 2
        assert "strictly positive" in err


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


class TestUsageErrorsInAFreshProcess:
    """Inputs that once ended in a traceback, NaN output or numpy warnings: each
    must exit 2 with one error line, as seen from outside the process."""

    @pytest.mark.parametrize("argv", [
        ("matrix", "--l", "2", "--q", "1", "--weights", "ones", "--which", "toeplitz",
         "--symbol", "(" * 3000 + "th" + ")" * 3000),
        ("matrix", "--l", "6", "--q", "1e-30", "--weights", "ones",
         "--which", "mult-right", "--symbol", "thb*th"),
        ("gram", "--l", "2", "--q", "inf", "--weights", "1,1"),
    ], ids=["deep-parentheses", "tiny-q", "infinite-q"])
    def test_exit_2_with_one_error_line(self, argv):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "pgquant", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


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

    def test_seed_determinism(self, capsys):
        argv = ("verify", "--l", "3", "--q", "0.5", "--weights", "rand1",
                "--format", "json", "--seed", "7")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

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
