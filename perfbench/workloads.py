"""The four workloads: inputs, set-up, the measured loop, the traced loop.

Every workload runs in this one process with at most two threads (the
client and, for ``serve-point``, the server's scheduler thread), with
``workers=1`` and the serial pool.  See NOTES.md for why each exists
and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time

import numpy as np

from repro import Index, KNNServer, SweetKNN, UpdatePolicy, knn_join, sched
from repro.baselines import cublas_knn
from repro.core.landmarks import (determine_landmark_count,
                                  select_landmarks_random_spread)
from repro.core.result import JoinStats
from repro.datasets import DATASETS, synthetic
from repro.engine import get_engine
from repro.engine.executor import execute
from repro.native import ENGINES as NATIVE_ENGINES
from repro.native import native_knn_join
from repro.obs import Tracer, funnel_from_stats, use_tracer

import oracle
from host import probe_ms

SERIAL = {"workers": 1, "pool": "serial"}
#: Engines the scheduler may pick today, each with its own
#: ``sched.engine.<name>`` counter; anything else counts as ``other``.
SCHED_ENGINES = ("sweet", "ti-gpu", "ti-cpu", "cublas", "brute", "kdtree",
                 "ti-flat", "sweet-flat")
NATIVE_NAMES = {spec.name for spec in NATIVE_ENGINES}
_COUNTERS = tuple(f.name for f in dataclasses.fields(JoinStats)
                  if f.name != "extra")


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def _median(values):
    return statistics.median(values) if values else 0.0


def _same_join(a, b):
    """Bit-identical neighbours, distances and work counters."""
    return (np.array_equal(a.indices, b.indices)
            and np.array_equal(a.distances, b.distances)
            and all(getattr(a.stats, name) == getattr(b.stats, name)
                    for name in _COUNTERS)
            and funnel_from_stats(a.stats) == funnel_from_stats(b.stats))


def _program_span_ms(tracer, name):
    return [span.duration_s * 1e3 for span in tracer.finished_spans(name)]


class Layers:
    """Per-layer observations of a traced run, reduced to metrics."""

    def __init__(self):
        self.spans = None        # the benchmark's SpanLog
        self.tracer = Tracer()   # the program's own repro.obs spans
        self.results = []        # composed-path KNNResults
        self.engines = []        # the scheduler's choice per composed op
        self.primary_s = []      # one-call primary op, untraced
        self.traced_s = []       # the same op under the repro.obs tracer
        self.cublas_s = []
        self.probes = []
        self.serve_overhead_ms = []
        self.serve_queue_ms = []
        self.serve_batch_rows = 0.0
        self.serve_hit_rate = 0.0
        self.unmeasured = set()

    def metrics(self):
        spans = self.spans

        def mean(getter):
            return (sum(getter(r) for r in self.results)
                    / max(1, len(self.results)))

        def funnel(stage):
            return mean(lambda r: funnel_from_stats(r.stats)[stage])

        def program_median(name):
            return _median(_program_span_ms(self.tracer, name))

        metrics = {
            "native.scan_ms": spans.median_ms("native.scan"),
            "native.exact_distances": mean(
                lambda r: r.stats.level2_distance_computations
                + r.stats.center_distance_computations),
            "native.level2_survivors": funnel("level2_survivors"),
            "core.level1_ms": spans.median_ms("core.level1"),
            "core.candidate_pairs": mean(
                lambda r: r.stats.candidate_cluster_pairs),
            "core.level1_survivors": funnel("level1_survivors"),
            "core.saved_fraction": mean(lambda r: r.stats.saved_fraction),
            "index.build_ms": program_median("index.build"),
            "index.join_plan_ms": spans.median_ms("index.join_plan"),
            "index.add_ms": spans.median_ms("index.add"),
            "index.remove_ms": spans.median_ms("index.remove"),
            "index.rebuilds": len(self.tracer.finished_spans(
                "index.rebuild")),
            "index.rebuild_ms": program_median("index.rebuild"),
            "sched.decide_ms": spans.median_ms("sched.decide"),
            "sched.clusterability_ms": spans.median_ms(
                "sched.clusterability"),
            "engine.plan_ms": sum(_program_span_ms(
                self.tracer, "planner.plan")) / max(1, len(self.traced_s)),
            "engine.execute_ms": spans.median_ms("engine.execute"),
            "engine.batches": mean(
                lambda r: r.stats.extra.get("query_batches", 1)),
            "serve.overhead_ms": _median(self.serve_overhead_ms),
            "serve.queue_ms": _median(self.serve_queue_ms),
            "serve.batch_rows": self.serve_batch_rows,
            "serve.store_hit_rate": self.serve_hit_rate,
            "baselines.cublas_ms": _median(self.cublas_s) * 1e3,
            "baselines.gap": (_median(self.primary_s) / _median(self.cublas_s)
                              if self.cublas_s else 0.0),
            "parallel.shards": mean(lambda r: r.stats.extra.get("shards", 1)),
            "obs.trace_overhead": (_median(self.traced_s)
                                   / _median(self.primary_s)
                                   if self.traced_s else 0.0),
            "host.probe_ms": _median(self.probes),
        }
        for name in SCHED_ENGINES + ("other",):
            metrics["sched.engine." + name] = 0
        for engine in self.engines:
            key = engine if engine in SCHED_ENGINES else "other"
            metrics["sched.engine." + key] += 1
        return metrics


def _scan_call(engine, queries, targets, k, plan):
    """The native tier's level-2 scan + k-select on a prepared plan."""
    family, tier = engine.rsplit("-", 1)
    strength = "partial" if family == "sweet" else "full"
    return native_knn_join(queries, targets, k, None, plan=plan,
                           filter_strength=strength, tier=tier)


def composed_join(queries, targets, k, layers, seed=0):
    """``knn_join(method="auto")`` spelled as its public calls.

    Returns the result; the landmark stream is aligned with the
    one-call path so the answer and counters can match it bit for bit.
    """
    spans = layers.spans
    with spans.span("sched.clusterability"):
        clusterability = sched.estimate_clusterability(targets)
    with spans.span("sched.decide"):
        decision = sched.decide(len(queries), len(targets), k,
                                queries.shape[1], method="auto",
                                clusterability=clusterability, **SERIAL)
    layers.engines.append(decision.engine)
    spec = get_engine(decision.engine)
    if not spec.caps.supports_prepared_index:
        layers.unmeasured.update(("index", "core", "native"))
        with spans.span("engine.execute"):
            return execute(spec, queries, targets, k,
                           rng=np.random.default_rng(seed),
                           decision=decision, **SERIAL)
    # knn_join draws query landmarks before target landmarks from one
    # stream; replay the query draw so Index() sees the same state.
    rng = np.random.default_rng(seed)
    select_landmarks_random_spread(
        queries, determine_landmark_count(len(queries)), rng)
    with spans.span("index.build"), use_tracer(layers.tracer):
        index = Index(targets, rng=rng)
    return _execute_on_index(index, queries, k, layers, decision,
                             np.random.default_rng(seed))


def composed_point(index, point, k, layers, method, rng):
    """A prepared-index point query spelled as its public calls."""
    spans = layers.spans
    queries = point[np.newaxis, :]
    with spans.span("index.join_plan"):
        plan = index.join_plan(queries, rng=rng)
    with spans.span("sched.clusterability"):
        clusterability = sched.clusterability_from_plan(plan)
    with spans.span("sched.decide"):
        decision = sched.decide(1, len(index.targets), k, index.dim,
                                method=method, clusterability=clusterability,
                                **SERIAL)
    layers.engines.append(decision.engine)
    return _execute_on_index(index, queries, k, layers, decision, rng,
                             plan=plan)


def _execute_on_index(index, queries, k, layers, decision, rng, plan=None):
    spans = layers.spans
    if plan is None:
        with spans.span("index.join_plan"):
            plan = index.join_plan(queries, rng=rng)
    with spans.span("core.level1"):
        plan.level1(k)
    spec = get_engine(decision.engine)
    with spans.span("engine.execute"):
        result = execute(spec, queries, index.targets, k, rng=rng, plan=plan,
                         index=index, decision=decision, **SERIAL)
    if decision.engine in NATIVE_NAMES:
        with spans.span("native.scan"):
            scanned = _scan_call(decision.engine, queries, index.targets, k,
                                 plan)
        if not _same_join(scanned, result):
            layers.unmeasured.add("native")
    else:
        layers.unmeasured.add("native")
    layers.results.append(result)
    return result


class Ledger:
    """The benchmark's own record of an index's rows and which are live.

    The oracle reads only this, never the program's state.
    """

    def __init__(self, points):
        self.rows = np.array(points)
        self.live = np.ones(len(self.rows), dtype=bool)

    def live_rows(self):
        return self.rows[self.live]

    def replace(self, index, added, rng, layers=None):
        """One write: ``Index.add`` of ``added``, then ``Index.remove``
        of as many live rows.  Returns ``(seconds, ok)``: ``add`` must
        hand out the next row ids in order and ``remove`` must leave
        exactly the live count the ledger expects."""
        first = len(self.rows)
        ids, add_s = _write(layers, "index.add", index.add, added)
        ok = np.array_equal(ids, np.arange(first, first + len(added)))
        self.rows = np.concatenate([self.rows, added])
        self.live = np.concatenate([self.live,
                                    np.ones(len(added), dtype=bool)])
        victims = rng.choice(np.flatnonzero(self.live), len(added),
                             replace=False)
        _, remove_s = _write(layers, "index.remove", index.remove, victims)
        self.live[victims] = False
        ok = ok and index.n_active == int(self.live.sum())
        return add_s + remove_s, ok


class WriteProbe:
    """Writes for the workloads whose measured mix has none.

    Each write is ``Index.add`` of ``batch`` fresh rows then
    ``Index.remove`` of as many live rows, on a prepared index of the
    workload's own targets that the primary operation never reads.
    Writes are interleaved with the primary operations, so no single
    stretch of host speed decides ``write_p50_ms``.
    """

    batch = 4

    def __init__(self, index, targets, fresh, rng):
        self.index = index
        self.ledger = Ledger(targets)
        self.fresh = fresh
        self.rng = rng
        self.count = 0

    def write(self, meter, layers=None):
        start = (self.count * self.batch) % len(self.fresh)
        seconds, ok = self.ledger.replace(
            self.index, self.fresh[start:start + self.batch], self.rng,
            layers)
        meter.record("write", seconds, rows=self.batch, ok=ok)
        self.count += 1


def _write(layers, name, fn, arg):
    if layers is None:
        return _timed(fn, arg)
    with use_tracer(layers.tracer), layers.spans.span(name):
        return _timed(fn, arg)


class Workload:
    """Shared shape: inputs from a seed, repeated set-up, a timed loop."""

    name = None
    k = None
    setup_repeats = 3
    #: Whether writes are part of the measured operation mix (else they
    #: come from an interleaved WriteProbe).
    writes_in_mix = False

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.ops_rng = np.random.default_rng([seed, 1])

    def before_setup(self):
        """Untimed preparation of one set-up repetition."""

    def setup(self):
        """One timed set-up repetition; the last one is kept."""
        raise NotImplementedError

    def prepare(self):
        """Untimed preparation after set-up, before the measured loop."""

    def close(self):
        """Stop whatever the workload started."""


class JoinWorkload(Workload):
    """Closed-loop ``knn_join(method="auto")`` calls over ``self.pairs``.

    Subclasses fill ``pairs`` (a list of ``(queries, targets)``),
    ``expected`` (the oracle's sorted distances per pair) and
    ``fresh`` (rows for the write probe); calls cycle through the pairs.
    When ``probe_tombstone_fraction`` is set, the write probe's index
    rebuilds under that update policy, so the rebuild path runs too.
    """

    probe_tombstone_fraction = None

    def before_setup(self):
        queries, targets = self.pairs[0]
        self._targets = targets.copy()
        self._queries = (self._targets if queries is targets
                         else queries.copy())

    def setup(self):
        policy = (UpdatePolicy(
            max_tombstone_fraction=self.probe_tombstone_fraction)
            if self.probe_tombstone_fraction else None)
        self.index = Index(self._targets, policy=policy)
        knn_join(self._queries, self._targets, self.k, method="auto",
                 **SERIAL)

    def prepare(self):
        self.probe = WriteProbe(self.index, self.pairs[0][1], self.fresh,
                                self.ops_rng)

    def _call(self, i):
        b = i % len(self.pairs)
        queries, targets = self.pairs[b]
        result, elapsed = _timed(knn_join, queries, targets, self.k,
                                 method="auto", **SERIAL)
        bad = oracle.bad_rows(queries, targets, result.distances,
                              result.indices, self.expected[b])
        return result, elapsed, not bad.any()

    def run(self, meter, seconds):
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            _, elapsed, ok = self._call(i)
            meter.record("primary", elapsed, rows=self.rows_per_call, ok=ok)
            for _ in range(self.writes_per_call):
                self.probe.write(meter)
            i += 1
        meter.flush()

    def trace(self, meter, seconds, layers):
        deadline = time.perf_counter() + seconds
        i = 0
        identical = True
        while i == 0 or time.perf_counter() < deadline:
            layers.spans.op = i
            layers.probes.append(probe_ms())
            one_call, elapsed, ok = self._call(i)
            meter.record("primary", elapsed, rows=self.rows_per_call, ok=ok)
            layers.primary_s.append(elapsed)
            queries, targets = self.pairs[i % len(self.pairs)]
            with use_tracer(layers.tracer):
                _, elapsed = _timed(knn_join, queries, targets, self.k,
                                    method="auto", **SERIAL)
            layers.traced_s.append(elapsed)
            composed = composed_join(queries, targets, self.k, layers)
            identical = identical and _same_join(composed, one_call)
            _, elapsed = _timed(cublas_knn, queries, targets, self.k)
            layers.cublas_s.append(elapsed)
            for _ in range(self.writes_per_call):
                self.probe.write(meter, layers)
            i += 1
        if not identical:
            layers.unmeasured.update(("index", "core", "engine", "native"))
        meter.flush()
        return identical


class JoinClustered(JoinWorkload):
    """Self-joins of the kegg stand-in (4096 x 29), k = 20.

    The stand-in is the repository's own, in its own row order, so
    every call does the same work (auto picks ``sweet-flat``, which
    saves 96.8% of distances).  Row order moves the landmark draw, and
    with it the work by up to 2x, which made the tail unsteady across
    seeds (NOTES.md); ``--seed`` draws the write-probe rows only.
    """

    name = "join-clustered"
    k = 20
    writes_per_call = 8
    probe_tombstone_fraction = 0.02

    def __init__(self, seed):
        super().__init__(seed)
        points = DATASETS["kegg"].generate()
        self.pairs = [(points, points)]
        self.expected = [oracle.knn_distances(points, points, self.k)]
        picks = self.rng.choice(len(points), 256, replace=False)
        self.fresh = points[picks] + self.rng.normal(
            scale=0.05, size=(256, points.shape[1]))
        self.rows_per_call = len(points)


class JoinHighDim(JoinWorkload):
    """Held-out 64-row batches against a 2000 x 200 arcene-like set."""

    name = "join-highdim"
    k = 20
    writes_per_call = 3
    n_targets, dim, batch_rows, n_batches = 2000, 200, 64, 8

    def __init__(self, seed):
        super().__init__(seed)
        n_queries = self.batch_rows * self.n_batches
        points = synthetic.high_dim_weakly_clustered(
            self.n_targets + n_queries + 256, self.dim, self.rng,
            intrinsic_dim=40)
        targets = points[:self.n_targets]
        held_out = points[self.n_targets:self.n_targets + n_queries]
        self.pairs = [(queries, targets)
                      for queries in np.split(held_out, self.n_batches)]
        self.expected = [oracle.knn_distances(q, targets, self.k)
                         for q, _ in self.pairs]
        self.fresh = points[self.n_targets + n_queries:]
        self.rows_per_call = self.batch_rows


class ServePoint(Workload):
    """One closed-loop client, single-row k=10 requests to a KNNServer."""

    name = "serve-point"
    k = 10
    setup_repeats = 5
    n_targets, dim, pool_rows = 20000, 16, 4096
    requests_per_write = 32

    def __init__(self, seed):
        super().__init__(seed)
        points = synthetic.gaussian_mixture(
            self.n_targets + self.pool_rows + 256, self.dim, self.rng)
        self.targets = points[:self.n_targets]
        self.pool = points[self.n_targets:self.n_targets + self.pool_rows]
        self.fresh = points[self.n_targets + self.pool_rows:]
        self.server = None

    def _server(self, **overrides):
        return KNNServer(method="sweet-flat", **SERIAL, **overrides)

    def before_setup(self):
        self.close()
        self._targets = self.targets.copy()

    def setup(self):
        self.server = self._server().start()
        self.server.query(self.pool[0], self._targets, self.k)

    def prepare(self):
        self.probe = WriteProbe(Index(self.targets.copy()), self.targets,
                                self.fresh, self.ops_rng)

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _request(self, server, i):
        point = self.pool[i % len(self.pool)]
        response, elapsed = _timed(server.query, point, self._targets,
                                   self.k)
        expected = oracle.knn_distances(point, self.targets, self.k)
        bad = oracle.bad_rows(point, self.targets, response.distances,
                              response.indices, expected)
        return point, elapsed, not bad.any()

    def _index(self):
        index, _ = self.server.store.get(self._targets,
                                         seed=self.server.config.seed)
        return index

    def run(self, meter, seconds):
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            _, elapsed, ok = self._request(self.server, i)
            meter.record("primary", elapsed, ok=ok)
            if i % self.requests_per_write == 0:
                self.probe.write(meter)
            i += 1
        meter.flush()

    def trace(self, meter, seconds, layers):
        # Untraced and traced servers take turns in blocks of requests;
        # only one runs at a time, so the process keeps two threads.
        index = self._index()
        direct = SweetKNN.from_index(index, method="sweet-flat")
        private = np.random.default_rng(0)
        servers = (self.server, self._server(tracer=layers.tracer))
        deadline = time.perf_counter() + seconds
        i = active = 0
        try:
            while i == 0 or time.perf_counter() < deadline:
                layers.spans.op = i
                block = (i // 16) % 2
                if block != active:
                    servers[active].stop()
                    servers[block].start()
                    active = block
                    layers.probes.append(probe_ms())
                if i % self.requests_per_write == 0:
                    self.probe.write(meter, layers)
                if block:
                    with use_tracer(layers.tracer):
                        _, elapsed, ok = self._request(servers[1], i)
                    meter.record("primary", elapsed, ok=ok)
                    layers.traced_s.append(elapsed)
                    i += 1
                    continue
                point, elapsed, ok = self._request(servers[0], i)
                meter.record("primary", elapsed, ok=ok)
                layers.primary_s.append(elapsed)
                _, direct_s = _timed(direct.query_one, point, self.k)
                layers.serve_overhead_ms.append((elapsed - direct_s) * 1e3)
                composed_point(index, point, self.k, layers, "sweet-flat",
                               private)
                _, elapsed = _timed(cublas_knn, point[np.newaxis, :],
                                    self.targets, self.k)
                layers.cublas_s.append(elapsed)
                i += 1
            meter.flush()
            layers.serve_queue_ms = _program_span_ms(layers.tracer,
                                                     "serve.queue")
            layers.serve_batch_rows = servers[1].stats().mean_batch_rows
            layers.serve_hit_rate = servers[0].stats().cache_hit_rate
        finally:
            servers[1].stop()


class IndexChurn(Workload):
    """Mostly single-row reads plus add/remove writes on one index.

    The op sequence is drawn from the seed: ``reads_per_write`` reads
    through ``SweetKNN.query_one`` (method ``sweet-flat``), then one
    write that adds ``batch`` fresh rows and removes ``batch`` live
    ones.  The update policy rebuilds once removed rows pass
    ``tombstone_fraction`` of the set, so a run is a series of whole
    rebuild cycles; the clock is checked only when a cycle ends.
    """

    name = "index-churn"
    k = 10
    setup_repeats = 5
    writes_in_mix = True
    n_targets, dim, pool_rows, fresh_rows = 20000, 16, 4096, 16384
    reads_per_write, batch, tombstone_fraction = 18, 8, 0.01

    def __init__(self, seed):
        super().__init__(seed)
        points = synthetic.gaussian_mixture(
            self.n_targets + self.pool_rows + self.fresh_rows, self.dim,
            self.rng)
        self.targets = points[:self.n_targets]
        self.pool = points[self.n_targets:self.n_targets + self.pool_rows]
        self.fresh = points[self.n_targets + self.pool_rows:]
        self.ledger = Ledger(self.targets)

    def before_setup(self):
        self._targets = self.targets.copy()

    def setup(self):
        policy = UpdatePolicy(max_tombstone_fraction=self.tombstone_fraction)
        self.index = Index(self._targets, policy=policy)
        self.knn = SweetKNN.from_index(self.index, method="sweet-flat")
        self.knn.query_one(self.pool[0], self.k)

    def _read(self, meter, point, tracer=None):
        with use_tracer(tracer) if tracer else contextlib.nullcontext():
            answer, elapsed = _timed(self.knn.query_one, point, self.k)
        rows, live = self.ledger.rows, self.ledger.live
        expected = oracle.knn_distances(point, rows, self.k, live)
        bad = oracle.bad_rows(point, rows, answer.distances, answer.indices,
                              expected, live)
        meter.record("primary", elapsed, ok=not bad.any())
        return elapsed

    def _cycles(self, meter, seconds, read, layers=None):
        deadline = time.perf_counter() + seconds
        hard_stop = deadline + seconds
        builds = self.index.build_count
        writes = reads = 0
        while True:
            for _ in range(self.reads_per_write):
                read(self.pool[self.ops_rng.integers(len(self.pool))], reads)
                reads += 1
            start = (writes * self.batch) % len(self.fresh)
            elapsed, ok = self.ledger.replace(
                self.index, self.fresh[start:start + self.batch],
                self.ops_rng, layers)
            meter.record("write", elapsed, rows=self.batch, ok=ok)
            writes += 1
            now = time.perf_counter()
            if self.index.build_count != builds:
                builds = self.index.build_count
                if now >= deadline:
                    break
            if now >= hard_stop:
                break
        meter.flush()

    def run(self, meter, seconds):
        self._cycles(meter, seconds,
                     lambda point, i: self._read(meter, point))

    def trace(self, meter, seconds, layers):
        private = np.random.default_rng(0)

        def read(point, i):
            layers.spans.op = i
            if i % 16 == 0:
                layers.probes.append(probe_ms())
            if i % 2:
                layers.traced_s.append(
                    self._read(meter, point, tracer=layers.tracer))
                return
            layers.primary_s.append(self._read(meter, point))
            composed_point(self.index, point, self.k, layers, "sweet-flat",
                           private)
            _, elapsed = _timed(cublas_knn, point[np.newaxis, :],
                                self.ledger.live_rows(), self.k)
            layers.cublas_s.append(elapsed)

        self._cycles(meter, seconds, read, layers)


WORKLOADS = {cls.name: cls for cls in
             (JoinClustered, JoinHighDim, ServePoint, IndexChurn)}
