"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload join-clustered --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from
``src/`` next to this directory.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run
(spans are written to ``perfbench/out/``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines above it give the host fingerprint, a table of
every metric with its unit, raw and normalised reading and sample
count, and a ``detail`` JSON line that ``steady.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOAD_NAMES = ("join-clustered", "join-highdim", "serve-point",
                  "index-churn")
#: The knobs that would change what is measured, cleared or pinned
#: before numpy or the program is imported.
CLEARED_ENV = ("REPRO_SCHED_MODEL", "REPRO_WORKERS", "REPRO_POOL")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_environment():
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)


def _table(rows):
    print("%-26s %14s %-9s %14s %14s %7s  %s"
          % ("metric", "value", "unit", "raw", "normalised", "n", "tail"))
    for name, info in rows.items():
        tail = info.get("tail")
        print("%-26s %14.6g %-9s %14s %14s %7s  %s" % (
            name, info["value"], info["unit"],
            "-" if info.get("raw") is None else "%.6g" % info["raw"],
            "-" if info.get("normalised") is None
            else "%.6g" % info["normalised"],
            info.get("n", "-"),
            "" if not tail else "p%g=%.4g ms" % (tail["pct"], tail["ms"])))


def main(argv=None):
    args = _parse(argv)
    _pin_environment()
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print("perfbench: the program's source (src/repro) is not next to "
              "the benchmark; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    import host
    import metrics
    from spans import SpanLog
    from workloads import WORKLOADS, Layers

    from repro.obs import use_tracer

    workload = WORKLOADS[args.workload](args.seed)
    layers = Layers() if args.trace else None
    gc.collect()
    rss_before = host.peak_rss_mb()

    setup = host.Meter(chunk_s=0.0)
    setup.start()
    identical = None   # composed join == one-call join (traced joins)
    meter = host.Meter()
    try:
        for _ in range(workload.setup_repeats):
            workload.before_setup()
            tracing = (use_tracer(layers.tracer) if layers
                       else contextlib.nullcontext())
            with tracing:
                started = time.perf_counter()
                workload.setup()
                setup.record("setup", time.perf_counter() - started)
        workload.prepare()
        gc.collect()
        meter.start()
        if layers:
            layers.spans = SpanLog()
            identical = workload.trace(meter, args.seconds, layers)
        else:
            workload.run(meter, args.seconds)
    finally:
        workload.close()
    rss_mb = host.peak_rss_mb() - rss_before

    env = host.fingerprint()
    env["probe_ms_median"] = sorted(meter.probes)[len(meter.probes) // 2]
    env["probe_blocks"] = len(meter.probes)
    env["steal_ticks"] = sum(s.steal for s in meter.samples)
    print("env " + json.dumps(env, sort_keys=True))

    attempted = len(meter.samples)
    failed = sum(1 for s in meter.samples if not s.ok)
    if layers:
        values = layers.metrics()
        unmeasured = sorted(layers.unmeasured)
        for name in values:
            if name.split(".")[0] in unmeasured:
                values[name] = -1
        out = {name: {"value": value, "unit": UNITS.get(name, "count")}
               for name, value in values.items()}
        detail = {"per_layer": values, "unmeasured": unmeasured,
                  "composed_identical": identical}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / ("spans-%s-%d.jsonl"
                                % (args.workload, args.seed))
        layers.spans.write(spans_path)
        with open(spans_path, "a") as handle:
            for span in layers.tracer.finished_spans():
                record = span.to_dict()
                record["source"] = "repro.obs"
                handle.write(json.dumps(record, default=str) + "\n")
        _table(out)
        correct = failed == 0 and identical is not False
        if unmeasured:
            print("unmeasured layers: %s" % ", ".join(unmeasured))
    else:
        out, detail = metrics.compute(workload, setup.samples, meter, rss_mb)
        _table(detail)
        correct = failed == 0
    print("oracle: %d of %d operations failed the check%s"
          % (failed, len(meter.samples),
             "" if identical is None else
             "; composed public-call join %s knn_join bit for bit"
             % ("matches" if identical else "DOES NOT match")))
    detail["env"] = env
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


#: Units of the per-layer metrics; the ``sched.engine.*`` counters
#: are counts.
UNITS = {
    "native.scan_ms": "ms", "native.exact_distances": "count",
    "native.level2_survivors": "count",
    "core.level1_ms": "ms", "core.candidate_pairs": "count",
    "core.level1_survivors": "count", "core.saved_fraction": "fraction",
    "index.build_ms": "ms", "index.join_plan_ms": "ms", "index.add_ms": "ms",
    "index.remove_ms": "ms", "index.rebuilds": "count",
    "index.rebuild_ms": "ms",
    "sched.decide_ms": "ms", "sched.clusterability_ms": "ms",
    "engine.plan_ms": "ms", "engine.execute_ms": "ms",
    "engine.batches": "count",
    "serve.overhead_ms": "ms", "serve.queue_ms": "ms",
    "serve.batch_rows": "count", "serve.store_hit_rate": "fraction",
    "baselines.cublas_ms": "ms", "baselines.gap": "ratio",
    "parallel.shards": "count", "obs.trace_overhead": "ratio",
    "host.probe_ms": "ms",
}


if __name__ == "__main__":
    sys.exit(main())
