"""End-to-end metrics of one untraced run, raw and probe-normalised.

Every timing is reported probe-normalised (``host.py``), with its raw
reading beside it.  ``steady.py`` decided this (NOTES.md,
"Steadiness"): while the host's speed drifted between runs,
normalising cut timing spreads by up to a factor of three; while it
held still, it widened some by a few points.
"""

from __future__ import annotations

import statistics

import numpy as np

from host import PROBE_REF_MS

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ok_rate", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("p50_ms", "ms", "lower"),
    ("p90_ms", "ms", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("write_p50_ms", "ms", "lower"),
    ("ops_per_s", "ops/s", "higher"),
)

#: Percentiles considered for the tail report, highest first.
_TAILS = (99.9, 99.0, 90.0)


def _tail(values_ms):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values_ms)
    for pct in _TAILS:
        if n * (1.0 - pct / 100.0) >= 10:
            return {"pct": pct, "ms": float(np.percentile(values_ms, pct))}
    return None


#: Operations per block for the tail and the rates.
BLOCK = 100


def _pair(samples, reduce):
    raw = reduce([s.raw_s for s in samples])
    norm = reduce([s.norm_s for s in samples])
    return raw, norm


def _quiet(blocks):
    """The third of ``blocks`` with the least steal, ties kept: all of
    them while the hypervisor leaves the machine alone."""
    steal = [sum(s.steal for s in block) for block in blocks]
    cut = sorted(steal)[(len(blocks) + 2) // 3 - 1]
    return [block for block, ticks in zip(blocks, steal) if ticks <= cut]


def _blocked(samples, reduce):
    """``reduce`` per consecutive block of ``BLOCK`` operations, then
    the median over the quiet blocks.

    Steal lengthens the operations it hits by several ms, so it sets
    the tail of short operations; a burst of it moves only the blocks
    it falls in.  The normalised reading divides by the median probe
    next to the quiet blocks' operations, one figure per run: short
    operations do not follow the probe from chunk to chunk, so
    per-chunk normalisation would only widen the distribution that
    ``reduce`` reads.  A run shorter than one block has long
    operations, each bracketed by probes of its own; it is reduced
    whole, each operation normalised by its own chunk's probes.
    """
    blocks = [samples[i:i + BLOCK]
              for i in range(0, len(samples) - BLOCK + 1, BLOCK)]
    if not blocks:
        return _pair(samples, reduce)
    quiet = _quiet(blocks)
    probe = statistics.median(s.raw_s * PROBE_REF_MS / s.norm_s
                              for block in quiet for s in block)
    raw = [reduce([s.raw_s for s in block]) for block in quiet]
    norm = [reduce([s.raw_s * PROBE_REF_MS / probe for s in block])
            for block in quiet]
    return statistics.median(raw), statistics.median(norm)


def compute(workload, setup_samples, meter, rss_mb):
    """Returns ``(metrics, detail)``.

    ``metrics`` maps each end-to-end name to ``{"value", "unit"}``;
    ``detail`` adds the raw and normalised readings, the sample count
    and the tail percentile of each.
    """
    every = meter.samples
    primary = meter.of("primary")
    writes = meter.of("write")
    mix = meter.of("primary", "write") if workload.writes_in_mix else primary
    rows = primary[0].rows
    ms = lambda times: 1e3 * statistics.median(times)  # noqa: E731
    p90 = lambda times: 1e3 * float(np.percentile(times, 90))  # noqa: E731
    rate = lambda times: len(times) / sum(times)  # noqa: E731
    readings = {
        "setup_s": (_pair(setup_samples, statistics.median),
                    len(setup_samples)),
        "p50_ms": (_pair(primary, ms), len(primary)),
        "p90_ms": (_blocked(primary, p90), len(primary)),
        "rows_per_s": (_blocked(primary, lambda t: rows * rate(t)),
                       len(primary)),
        "write_p50_ms": (_pair(writes, ms), len(writes)),
        "ops_per_s": ((_pair(mix, rate) if workload.writes_in_mix
                       else _blocked(primary, rate)), len(mix)),
    }
    ok = sum(1 for s in every if s.ok)
    metrics, detail = {}, {}
    for name, unit, better in END_TO_END:
        if name == "ok_rate":
            value, raw, norm, n = ok / len(every), None, None, len(every)
        elif name == "peak_rss_mb":
            value, raw, norm, n = rss_mb, None, None, 1
        else:
            (raw, value), n = readings[name]
            norm = value
        metrics[name] = {"value": value, "unit": unit}
        detail[name] = {"value": value, "unit": unit, "better": better,
                        "raw": raw, "normalised": norm, "n": n}
    detail["p50_ms"]["tail"] = _tail([1e3 * s.raw_s for s in primary])
    detail["write_p50_ms"]["tail"] = _tail([1e3 * s.raw_s for s in writes])
    return metrics, detail

