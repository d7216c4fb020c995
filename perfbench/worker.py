"""One batch of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is `setup` (import and build the inputs, then exit), `run` (also time
the batch) or `trace` (time it with spans recorded). The worker prints
READY once knotsig is imported and the inputs are built, then, unless
MODE is `setup`, one JSON line with the batch result. A fresh interpreter
starts with every module-level cache of knotsig empty, as each `knotsig`
command does.

Every op is timed on its own. Between ops, whenever at least CALIB_GAP_S
of op time has passed since the last one, the worker times the reference
slice of calib.py; each op's latency is scaled to reference seconds by the
slices on either side of its segment, and run_s is the sum of the scaled
latencies. The slices run outside the op timings, and raw_run_s keeps the
unscaled sum.
"""

import json
import random
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
CALIB_GAP_S = 0.1  # about 5 % of the batch goes to reference slices


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import calib
    import spans
    import workloads

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        ops = workloads.build(workload, random.Random(seed), Path(scratch))
        print("READY", flush=True)
        if mode == "setup":
            return 0
        tracer = spans.Tracer() if mode == "trace" else spans.NoTracer()
        raw, scales, results, errors = [], [], [], {}
        calib.warm_up()
        before, segment = calib.slice_s(), 0.0
        slices = [before]
        for i, op in enumerate(ops):
            tracer.op = i
            t0 = perf_counter()
            try:
                with tracer.span("op"):
                    results.append(op.run(tracer))
            except Exception:  # a failing op is counted, never skipped
                results.append(None)
                errors[op.label] = traceback.format_exc()
            raw.append(perf_counter() - t0)
            segment += raw[-1]
            if segment >= CALIB_GAP_S or i == len(ops) - 1:
                after = calib.slice_s()
                slices.append(after)
                scales += [calib.scale(before, after)] * (len(raw) - len(scales))
                before, segment = after, 0.0
        latencies = [t * f for t, f in zip(raw, scales)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        for op, res in zip(ops, results):
            if op.label not in errors:
                try:
                    op.check(res)
                except Exception:
                    errors[op.label] = traceback.format_exc()
    for label, trace in errors.items():
        print(f"op {label} failed:\n{trace}", file=sys.stderr)

    out = {"run_s": sum(latencies), "raw_run_s": sum(raw), "rss_mb": rss_mb,
           "slice_s": statistics.median(slices),
           "failed": list(errors),
           "ops": [[op.label, lat] for op, lat in zip(ops, latencies)]}
    if tracer.enabled:
        out["self_s"] = spans.self_times(tracer.spans, scales)
        out["counts"] = tracer.counts
        out["spans"] = tracer.spans
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
