"""knotsig benchmark: one workload for a fixed time, metrics on stdout.

    python3 perfbench/run.py --workload sig-ladder --seed 1 --seconds 15 --trace 0

Run from the repository root. One closed-loop client: batches run one
after another, each in a fresh interpreter (perfbench/worker.py), so the
module-level caches of knotsig start empty as on every `knotsig` command.
Batch i of seed s draws its inputs from random.Random(1000 * s + i). The
run starts with SETUP_SAMPLES set-up-only workers, then runs batches until
--seconds have passed and at least MIN_BATCHES have run, and finishes the
batch in flight.

Every time reported is in reference seconds (calib.py): wall time scaled
by a fixed pure-Python slice timed next to it, so that the shared
machine's changes of speed do not show as changes of the program. The
worker scales each op by the slices around it; set-up is scaled by slices
this process times just before the spawn and just after the worker exits.
The human-readable lines also give the unscaled median run time.

--trace 0 prints the end-to-end metrics; --trace 1 runs every batch twice,
untraced and traced on the same inputs, prints the per-layer self times and
counts from the spans, and the tracing overhead (traced minus untraced
run_s). The spans are written to perfbench/out/trace-WORKLOAD-seedSEED.json.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exits 1 without that line if a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("sig-ladder", "circle-integral", "cover-reps", "kernels")
SETUP_SAMPLES = 5
MIN_BATCHES = 4
WORKER_TIMEOUT_S = 170
# Candidate tail percentiles in per mille, highest first. A workload reports
# the highest one with at least TAIL_BEYOND of MIN_BATCHES batches' op
# samples above it, so the percentile stays the same whatever number of
# batches a run completes.
TAIL_GRID = (999, 990, 950, 900, 750, 500)
TAIL_BEYOND = 10

LAYERS = ("seifert.validate", "seifert.alexander", "seifert.arf",
          "seifert.metabolizer", "signature.charpoly", "signature.sigfn",
          "signature.eta", "signature.l2", "alexmod.cyclic_quotient",
          "alexmod.resultant", "alexmod.linking", "mbreps.enumerate",
          "mbreps.table", "mbreps.hom_check", "resolve.build",
          "polyz.cyclotomic", "polyz.isolate", "polyz.resultant", "intmat.det",
          "intmat.smith", "realalg.cos_bounds", "realalg.refine")
COUNTS = ("signature.breakpoints", "signature.irrational_breakpoints",
          "alexmod.smith_dim", "mbreps.group_order", "mbreps.products_checked",
          "resolve.witnesses")


class WorkerFailed(RuntimeError):
    pass


def spawn(workload, seed, mode):
    """Run one worker; return its result with setup_s, the wall time from
    spawn to its READY line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), workload, str(seed), mode],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker for {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(rest.splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


def setup_time(workload, seed):
    """Set-up time of one set-up-only worker, in reference seconds. The
    slices run while no worker does, so they do not compete with it for
    the machine."""
    before = calib.slice_s()
    setup_s = spawn(workload, seed, "setup")["setup_s"]
    return setup_s * calib.scale(before, calib.slice_s())


def _rank(per_mille, n):
    """Nearest rank of a percentile among n samples: ceil(p * n), at least 1."""
    return max(1, -(-per_mille * n // 1000))


def tail(samples, ops_per_batch):
    """(percentile, value) of the op latencies at the workload's tail
    percentile."""
    base = MIN_BATCHES * ops_per_batch
    per_mille = next((p for p in TAIL_GRID if base - _rank(p, base) >= TAIL_BEYOND),
                     TAIL_GRID[-1])
    ordered = sorted(samples)
    return per_mille / 10, ordered[_rank(per_mille, len(ordered)) - 1]


def measure(workload, seed, seconds, trace):
    start = time.perf_counter()
    calib.warm_up()
    setups = [setup_time(workload, 1000 * seed + i) for i in range(SETUP_SAMPLES)]
    plain, traced = [], []
    i = 0
    min_batches = 2 if trace else MIN_BATCHES  # traced runs report no tail
    while len(plain) < min_batches or time.perf_counter() - start < seconds:
        plain.append(spawn(workload, 1000 * seed + i, "run"))
        if trace:
            traced.append(spawn(workload, 1000 * seed + i, "trace"))
        i += 1
    return setups, plain, traced


def report(args, setups, plain, traced):
    batches = plain + traced
    attempted = sum(len(b["ops"]) for b in batches)
    failed = sum(len(b["failed"]) for b in batches)
    median = statistics.median
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} batches"
          f"{' untraced + %d traced' % len(traced) if traced else ''}, one closed-loop client, "
          f"one process per batch, no threads")
    print(f"failed_ops {failed} of {attempted} = {failed / attempted:.4f}")
    print("wait_s 0 for every layer: one client and no queue, so no call ever waits")
    metrics = {}
    if not args.trace:
        latencies = [lat for b in plain for _, lat in b["ops"]]
        p, tail_value = tail(latencies, len(plain[0]["ops"]))
        metrics = {
            "run_s": (median(b["run_s"] for b in plain), "s"),
            "op_p50_s": (median(latencies), "s"),
            "op_tail_s": (tail_value, "s"),
            "peak_rss_mb": (median(b["rss_mb"] for b in plain), "MB"),
            "setup_s": (median(setups), "s"),
        }
        print(f"op_tail_s is p{p:g} of {len(latencies)} op samples")
        print(f"unscaled: run_s {median(b['raw_run_s'] for b in plain):.6f} s, "
              f"reference slice {median(b['slice_s'] for b in plain) * 1000:.3f} ms "
              f"(nominal {calib.NOMINAL_SLICE_S * 1000:g} ms)")
    else:
        for layer in LAYERS:
            metrics[layer + "_s"] = (median(b["self_s"].get(layer, 0.0) for b in traced), "s")
        for name in COUNTS:
            metrics[name] = (median(b["counts"].get(name, 0) for b in traced), "count")
        metrics["tracing_overhead_s"] = (
            median(t["run_s"] - u["run_s"] for u, t in zip(plain, traced)), "s")
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"span": ["name", "start", "end", "parent", "op"],
                                    "batches": [t["spans"] for t in traced]}))
        print(f"spans of {len(traced)} traced batches written to {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/knotsig/__init__.py", "tests/conftest.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    try:
        setups, plain, traced = measure(args.workload, args.seed, args.seconds, args.trace)
    except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, setups, plain, traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
