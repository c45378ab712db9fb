"""The pgquant benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports pgquant from `src/` there and
exits with status 2 if that is missing. Every workload is a closed loop with
one client. The timed work runs in fresh worker interpreters (worker.py) with
BLAS thread pools pinned to one thread; this process only starts them, times
their set-up and folds their results together. It never imports pgquant.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with --trace 1
the run replays the same units under the tracer and reports per-layer metrics.
The line before it is {"meta": ...}: versions, sizes, settings and samples.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
WORKLOADS = ("verify-grid", "large-structure")
SETUP_SAMPLES = 9     # set-up is sampled at least this often per run
CLI_PROBE_CALLS = 4   # cold CLI calls in a traced run, for cli/symbols metrics
RUN_LIMIT_S = 170     # workers still running past this are killed

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

CHECK_NAMES = (
    "normal_order_oracle", "associativity", "defining_relation", "star_criterion",
    "holomorphic_conjugation", "free_expr_linearity", "form_mode_agreement",
    "gram_properties", "adjoint_wrt_form", "orthonormal_basis", "pk_projection",
    "toeplitz_dual_path", "compression_identity", "toeplitz_iso_rank",
    "column_structure", "adjoint_symbol_rule", "multiplicativity",
    "anti_wick_factorization", "operator_basis_rank", "quantization_equivalences",
    "mixed_products", "q_commute_compression", "number_operator",
    "diagonal_symbols", "ladder_facts", "norm_bound", "reproducing_truncation",
)
GRID_LS = (2, 3, 4, 5, 6)
# spans whose call count and self time are reported, named as the tracer names them
CALL_SPANS = (
    "algebra.multiply", "algebra.from_free_expr",
    "forms.form.closed", "forms.form.definitional", "forms.adjoint_wrt_form",
    "quantization.mult_operator", "quantization.project_pk",
    "quantization.toeplitz.closed", "quantization.toeplitz.projection",
    "quantization.coherent_quantization.closed",
    "quantization.coherent_quantization.berezin", "quantization.toeplitz_flat",
    "quantization.ladder_set", "quantization.matrix_rank",
)
CACHED_SPANS = ("forms.gram_matrix", "quantization.pk_operator")


def per_layer_names() -> list:
    """Every per-layer metric a traced run prints, with its unit."""
    names = [("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main_ms", "ms"),
             ("symbols.parse.calls", "count"), ("symbols.parse.self_s", "s")]
    for span in CALL_SPANS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
        if span == "algebra.multiply":
            names.append(("algebra.multiply.dense_frac", "ratio"))
    for span in CACHED_SPANS:
        names += [(f"{span}.misses", "count"), (f"{span}.self_s", "s")]
    names += [(f"verify.check.{name}.s", "s") for name in CHECK_NAMES]
    names += [(f"verify.l{l}.s", "s") for l in GRID_LS]
    names += [("verify.records", "count"), ("verify.failed", "count"),
              ("verify.expected_fail", "count"),
              ("trace.overhead_frac", "ratio"), ("trace.spans", "count")]
    return names


class WorkerError(Exception):
    pass


def run_worker(job: dict, root: str, deadline: float) -> dict:
    """Start one worker, time its set-up (start to `ready`), return its result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **BLAS_THREADS)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(job)], cwd=root,
                            env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        raise WorkerError(f"worker {job} exited {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def timed_phase(args, root, deadline, after=None) -> list:
    """Fresh workers, each running all its units, while the op time spent so
    far leaves room for one more mean worker within --seconds. `after(i)`
    runs once worker i has finished."""
    workers, timed = [], 0.0
    while True:
        res = run_worker({"workload": args.workload, "seed": args.seed,
                          "segment": len(workers), "trace": False}, root, deadline)
        workers.append(res)
        if after is not None:
            after(len(workers) - 1)
        timed += sum(res["latencies"])
        if args.seconds - timed < timed / len(workers):
            return workers


def end_to_end(workers, setups) -> tuple:
    lat = sorted(t for w in workers for t in w["latencies"])
    k = max(0, len(lat) - 11)  # the sample with exactly ten beyond it
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[k],
        "peak_rss_mb": max(w["rss_kb"] for w in workers) / 1024,
    }, {"samples": len(lat), "tail_percentile": 100.0 * (k + 1) / len(lat),
        "tail_samples_beyond": len(lat) - 1 - k}


def _sum_extra(results) -> dict:
    out = {}
    for res in results:
        for key, val in res["extra"].items():
            out[key] = out.get(key, 0) + val
    return out


def per_layer(base, traced, probe) -> dict:
    """cli.* and symbols.* come from the CLI probe; the rest from the traced
    replay of the workload's own units."""
    work = tracer.merge(w["trace"] for w in traced)
    cli = probe["trace"]
    row = lambda tr, name: tr["spans"].get(name, [0, 0.0, 0.0])
    extra = _sum_extra(traced)
    values = {
        "cli.interp_ms": probe["interp_ms"], "cli.import_ms": probe["cli_import_ms"],
        "cli.main_ms": probe["cli_main_ms"],
        "symbols.parse.calls": row(cli, "symbols.parse")[0],
        "symbols.parse.self_s": row(cli, "symbols.parse")[2],
        "verify.records": extra.get("records", 0),
        "verify.failed": extra.get("failed_records", 0),
        "verify.expected_fail": extra.get("expected_fail", 0),
        "trace.overhead_frac": (sum(sum(w["latencies"]) for w in traced)
                                / sum(sum(w["latencies"]) for w in base) - 1.0),
        "trace.spans": sum(r[0] for r in work["spans"].values()),
    }
    for span in CALL_SPANS:
        values[f"{span}.calls"] = row(work, span)[0]
        values[f"{span}.self_s"] = row(work, span)[2]
    calls = row(work, "algebra.multiply")[0]
    values["algebra.multiply.dense_frac"] = (
        work["counters"].get("algebra.multiply.dense_sum", 0.0) / calls if calls else 0.0)
    for span in CACHED_SPANS:
        values[f"{span}.misses"] = int(work["counters"].get(f"{span}.misses", 0))
        values[f"{span}.self_s"] = row(work, span)[2]
    for name in CHECK_NAMES:
        values[f"verify.check.{name}.s"] = row(work, f"verify.check.{name}")[1]
    for l in GRID_LS:
        values[f"verify.l{l}.s"] = row(work, f"verify.l{l}")[1]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_names()}


def _source_id(root: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "pgquant")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run(args, root: str) -> tuple:
    deadline = time.perf_counter() + RUN_LIMIT_S
    traced = []

    def replay(segment):
        # each traced worker runs right after its untraced twin, so that the
        # machine's speed drift biases the overhead as little as possible
        traced.append(run_worker({
            "workload": args.workload, "seed": args.seed, "segment": segment,
            "trace": True, "spans_path": os.path.join(
                OUT_DIR, f"spans-{args.workload}-s{args.seed}-{segment}.txt.gz")},
            root, deadline))

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
    base = timed_phase(args, root, deadline, replay if args.trace else None)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **_source_id(root), "versions": base[0]["versions"],
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "clients": 1, "loop": "closed",
            "sizes": base[0]["sizes"], "workers": len(base),
            "units": sum(w["units"] for w in base), "extra": _sum_extra(base)}
    runs = list(base)
    if args.trace:
        probe = run_worker({"workload": "cli-probe", "seed": args.seed,
                            "calls": CLI_PROBE_CALLS}, root, deadline)
        runs += traced + [probe]
        metrics = per_layer(base, traced, probe)
        same = all(t["digest"] == b["digest"] for t, b in zip(base, traced))
        meta["traced_outputs_identical"] = same
    else:
        setups = [w["setup_s"] for w in base]
        while len(setups) < SETUP_SAMPLES:
            probe = run_worker({"workload": args.workload, "seed": args.seed,
                                "segment": len(setups), "max_units": 0,
                                "trace": False},
                               root, deadline)
            setups.append(probe["setup_s"])
        values, tail = end_to_end(base, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        meta.update(tail, setup_samples=setups)
        same = True
    attempted = sum(len(r.get("latencies", ())) + r.get("calls", 0) for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    correct = same and failed == 0 and all(r.get("unit_ok", True) for r in runs)
    meta.update(failed_frac=failed / attempted, errors=errors[:5])
    return meta, {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pgquant", "__init__.py")):
        print("error: run from the root of a pgquant checkout (src/pgquant is missing)",
              file=sys.stderr)
        return 2
    try:
        meta, result = run(args, root)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
