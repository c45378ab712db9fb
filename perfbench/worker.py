"""One fresh interpreter of the benchmark: set up, run timed units, report.

    python perfbench/worker.py '<job json>'

run.py starts this with the checkout's `src` on PYTHONPATH and BLAS pools
pinned to one thread. The worker imports pgquant, builds its inputs from the
seed, prints `ready`, runs its units (all of them, or the first
`max_units`), then checks every output and prints one JSON result line. A job
with `max_units` 0 only sets up; run.py uses it to sample set-up time.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_pgquant() -> None:
    import pgquant
    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(pgquant.__file__).startswith(src):
        raise SystemExit(f"pgquant imported from {pgquant.__file__}, not from {src}")


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def gate_outputs(wl, done) -> tuple:
    """Gate every op of every finished unit, then each unit as a whole. An op
    that raised counts as failed, and its unit is gated without it. Returns
    the failed count, the error texts (unit-level ones start with "unit:"),
    the digests of passing ops and the (input, output) pairs that returned."""
    import workloads

    failed, errors, digests, pairs = 0, [], [], []
    for unit, outs in done:
        returned = []
        for inp, out in zip(unit, outs):
            if isinstance(out, Exception):
                failed += 1
                errors.append(f"raised {out!r}")
                continue
            returned.append(out)
            pairs.append((inp, out))
            try:
                wl.gate(inp, out)
            except workloads.GateError as exc:
                failed += 1
                errors.append(str(exc))
                continue
            digests.append(wl.digest(inp, out))
        try:
            wl.gate_unit(returned)
        except workloads.GateError as exc:
            errors.append(f"unit: {exc}")
    return failed, errors, digests, pairs


def run_workload(job: dict) -> dict:
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[job["workload"]](job["seed"], job["segment"])
    units = wl.units[:job.get("max_units")]
    print("ready", flush=True)

    tracer = Tracer().install() if job["trace"] else None
    latencies, done = [], []
    for unit in units:
        outs = []
        for inp in unit:
            call = wl.op if tracer is None else tracer.span(wl.op_span(inp), wl.op)
            t0 = time.perf_counter()
            try:
                out = call(inp)
            except Exception as exc:  # an op that raises counts as failed
                out = exc
            latencies.append(time.perf_counter() - t0)
            outs.append(out)
        done.append((unit, outs))
    if tracer is not None:
        tracer.uninstall()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed, errors, digests, pairs = gate_outputs(wl, done)
    result = {
        "latencies": latencies, "units": len(done),
        "failed": failed, "errors": errors[:5], "unit_ok": not any(
            e.startswith("unit:") for e in errors),
        "digest": workloads.sha256("\n".join(digests)), "rss_kb": rss_kb,
        "extra": wl.extra(pairs), "sizes": wl.sizes(), "versions": _versions(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    return result


def run_cli_probe(job: dict) -> dict:
    """Cold `python -m pgquant` calls through the traced shim, for the cli and
    symbols layer metrics; each output is gated against the library."""
    import workloads
    from tracer import merge

    argvs = workloads.cli_argvs(job["seed"], job["calls"])
    print("ready", flush=True)
    interp = []
    for _ in range(job["calls"]):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        interp.append(time.perf_counter() - t0)
    shim = os.path.join(HERE, "cli_traced.py")
    imports, mains, traces = [], [], []
    failed, errors = 0, []
    for argv in argvs:
        proc = subprocess.run([sys.executable, shim, *argv], capture_output=True,
                              text=True)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            workloads.cli_gate(argv, res["exit"], json.loads(res["stdout"]))
        except (ValueError, IndexError, KeyError, workloads.GateError) as exc:
            failed += 1
            errors.append(f"{' '.join(argv)}: {exc!r} {proc.stderr[-300:]}")
            continue
        imports.append(res["import_s"])
        mains.append(res["main_s"])
        traces.append(res["trace"])
    return {
        "calls": len(argvs), "failed": failed,
        "errors": errors[:5], "interp_ms": 1e3 * statistics.median(interp),
        "cli_import_ms": 1e3 * statistics.median(imports) if imports else None,
        "cli_main_ms": 1e3 * statistics.median(mains) if mains else None,
        "trace": merge(traces),
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    _import_pgquant()
    run = run_cli_probe if job["workload"] == "cli-probe" else run_workload
    print(json.dumps(run(job)), flush=True)


if __name__ == "__main__":
    main()
