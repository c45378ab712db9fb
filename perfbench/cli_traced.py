"""`python -m pgquant ARGS` under the tracer, for the benchmark's CLI probe.

    python perfbench/cli_traced.py matrix --l 3 --q 1 --weights ones ...

Prints one JSON line: the CLI's exit code and captured stdout, the time to
import pgquant and its CLI, the time inside cli.main, and the span summary.
"""
import contextlib
import io
import json
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import pgquant.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer().install()
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = pgquant.cli.main(sys.argv[1:])
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
    main_s = time.perf_counter() - t0
    tracer.uninstall()
    print(json.dumps({"exit": code, "stdout": out.getvalue(), "import_s": import_s,
                      "main_s": main_s, "trace": tracer.summary()}))


if __name__ == "__main__":
    main()
