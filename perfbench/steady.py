"""Steadiness self-check: run a workload over several seeds, show spreads.

    python3 perfbench/steady.py --workload serve-point --seeds 1-5 \\
        --seconds 20

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median and the spread of the raw, normalised and
reported readings beside the metric's bound from ``BENCHMARK.json``.
Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
Every bound, and the choice to report timings normalised, rests on
this output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def spread(values):
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return None, None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, ((q3 - q1) / median if median else 0.0)


def _seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def _bounds():
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace",
               "0"]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("seed %d failed:\n%s" % (seed, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return detail, json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    bounds = _bounds()
    details = []
    for seed in _seeds(args.seeds):
        detail, result = run_once(args.workload, seed, args.seconds)
        details.append(detail)
        print("seed %d: correct=%s failed=%d/%d probe=%.3f ms steal=%d %s"
              % (seed, result["correct"], result["failed"],
                 result["attempted"], detail["env"]["probe_ms_median"],
                 detail["env"]["steal_ticks"],
                 " ".join("%s=%.5g" % (name, info["value"])
                          for name, info in result["metrics"].items())),
              flush=True)

    print("\n%-14s %12s %9s %9s %9s %8s %s" % (
        "metric", "median", "raw", "norm", "spread", "bound",
        "within bound/3"))
    for name in details[0]:
        if name == "env":
            continue
        rows = [d[name] for d in details]
        median, reported = spread([r["value"] for r in rows])
        _, raw = spread([r["raw"] for r in rows])
        _, norm = spread([r["normalised"] for r in rows])
        bound = bounds.get(name)
        fmt = lambda x: "-" if x is None else "%.4f" % x  # noqa: E731
        print("%-14s %12.6g %9s %9s %9s %8s %s" % (
            name, median, fmt(raw), fmt(norm),
            fmt(reported), fmt(bound),
            "-" if bound is None else
            ("yes" if reported <= bound / 3 else
             "within bound" if reported <= bound else "NO")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
