"""``ingest`` workload: the one-monitors-multiple case at in-process speed.

A seeded, arrival-ordered stream from 1000 nodes (jittered 1 s beats over
150 s, so about 150 beats each; every 37th node crashes after beat 100)
is fed into :meth:`ShardedMembershipTable.heartbeat_batch` in batches of
128 as a closed loop, with one ``summary()`` query after each batch.
Families are assigned round-robin over the seven registry families at
window 50.  It runs every family's streaming ``observe``, the heartbeat
window, the deadline wheel and the snapshot, and no socket, kernel or
cache.

End-to-end: ``work_s`` is the mean time of one pass over the whole
stream (the sustained feed rate), ``p50_ms`` the median time of one batch
plus its summary once every detector has warmed up (its 99th percentile is
reported, not gated), ``setup_s`` the stream generation.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from common import FAMILIES, Outcome, peak_rss_mb, quantiles_ms, timed_setup
from tracing import Tracer

from repro.cluster.membership import NodeStatus
from repro.cluster.sharded import ShardedMembershipTable
from repro.detectors import registry

NODES = 1000
SPAN_S = 150.0
CRASH_EVERY = 37
CRASH_AFTER = 100
WINDOW = 50
BATCH = 128
#: Every detector's window is full once each node has sent WINDOW beats;
#: batch latencies before that (cheap, not-yet-ready detectors) are left
#: out of the statistics.
WARMUP_S = WINDOW + 1.0
FLAGGED = (NodeStatus.SUSPECT, NodeStatus.DEAD)

Heartbeat = tuple[str, int, float, None]


def make_stream(seed: int) -> tuple[list[Heartbeat], list[str]]:
    """Arrival-ordered ``(node, seq, arrival, None)`` tuples and node ids."""
    rng = np.random.default_rng(seed)
    names = [f"n{i:04d}" for i in range(NODES)]
    beats = np.arange(int(SPAN_S) + 1)
    node = np.repeat(np.arange(NODES), len(beats))
    seq = np.tile(beats, NODES)
    send = rng.random(NODES).repeat(len(beats)) + seq + rng.normal(0.0, 0.02, node.size)
    arrival = send + 0.005 + rng.exponential(0.02, node.size)
    keep = (send < SPAN_S) & ((node % CRASH_EVERY != 0) | (seq < CRASH_AFTER))
    node, seq, arrival = node[keep], seq[keep], arrival[keep]
    order = np.argsort(arrival, kind="stable")
    stream = [
        (names[n], s, a, None)
        for n, s, a in zip(node[order].tolist(), seq[order].tolist(), arrival[order].tolist())
    ]
    return stream, names


def _families(names: list[str]) -> tuple[dict[str, str], object]:
    """Family of each node (round-robin) and the per-node detector factory."""
    family_of = {node: FAMILIES[i % len(FAMILIES)] for i, node in enumerate(names)}
    by_family = {
        name: registry.detector_factory(registry.get(name).parse(f"window={WINDOW}"))
        for name in FAMILIES
    }
    return family_of, lambda node: by_family[family_of[node]](node)


def _feed(stream, factory, *, single: bool = False, tracer: Tracer | None = None, on_transition=None):
    """One pass: a fresh table fed the whole stream, batch by batch, with
    a ``summary()`` after each batch.  ``single`` feeds each batch one
    ``heartbeat()`` at a time instead.  Returns (table, accepted, seconds,
    per-batch seconds)."""
    table = ShardedMembershipTable(factory, on_transition=on_transition)
    feed = table.heartbeat_batch
    summary = table.summary
    if tracer is not None:
        feed = tracer.wrap("cluster.heartbeat_batch", feed)
        summary = tracer.wrap("cluster.summary", summary)
    elif single:
        beat = table.heartbeat

        def feed(batch):
            for hb in batch:
                beat(*hb)
            return len(batch)

    clock = time.perf_counter
    accepted = 0
    lat = []
    start = clock()
    for i in range(0, len(stream), BATCH):
        batch = stream[i : i + BATCH]
        t = clock()
        accepted += feed(batch)
        summary(batch[-1][2])
        lat.append(clock() - t)
    elapsed = clock() - start
    if tracer is not None:
        tracer.add("ingest.pass", start, start + elapsed)
    return table, accepted, elapsed, lat


def _traced(out: Outcome, stream, family_of, factory, check, tracer: Tracer) -> None:
    """Traced passes interleaved with untraced ones, then the per-family split."""
    transitions = [0]

    def count(*_edge):
        transitions[0] += 1

    plain, traced = [], []
    for _ in range(2):
        table, accepted, elapsed, _ = _feed(stream, factory)
        check(table, accepted)
        plain.append(elapsed)
        transitions[0] = 0
        table, accepted, elapsed, _ = _feed(stream, factory, tracer=tracer, on_transition=count)
        check(table, accepted)
        traced.append(elapsed)
    passes = [s for n, _d, s in tracer.self_by_root() if n == "ingest.pass"]
    layer = out.layer
    layer["cluster.batch_s"] = statistics.median(s["cluster.heartbeat_batch"] for s in passes)
    layer["cluster.summary_ms"] = 1e3 * statistics.median(s["cluster.summary"] for s in passes)
    layer["cluster.transitions"] = transitions[0]
    layer["trace.self_sum_s"] = statistics.median(sum(s.values()) for s in passes)
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out.check(
        abs(layer["trace.self_sum_s"] - statistics.median(plain))
        <= abs(layer["trace.overhead_s"]) + 1e-6,
        "trace: pass self times do not sum to the pass",
    )
    for name in FAMILIES:
        part = [hb for hb in stream if family_of[hb[0]] == name]
        table = ShardedMembershipTable(factory)
        start = time.perf_counter()
        for i in range(0, len(part), BATCH):
            table.heartbeat_batch(part[i : i + BATCH])
        end = time.perf_counter()
        tracer.add(f"cluster.family.{name}", start, end)
        layer[f"cluster.us_per_hb.{name}"] = 1e6 * (end - start) / len(part)


def run(seed: int, seconds: float, trace: bool, tracer: Tracer) -> Outcome:
    out = Outcome()
    (stream, names), setup_s = timed_setup(lambda i: make_stream(seed))
    family_of, factory = _families(names)
    now = stream[-1][2]
    crashed = [n for i, n in enumerate(names) if i % CRASH_EVERY == 0]
    # Reference: a second table fed one heartbeat() at a time (generic lane).
    expected = _feed(stream, factory, single=True)[0].statuses(now)

    def check(table, accepted: int) -> None:
        out.attempted += len(stream)
        out.failed += len(stream) - accepted
        got = table.statuses(now)
        out.check(got == expected, "ingest: batch-lane statuses differ from the single-heartbeat lane")
        missed = [n for n in crashed if got.get(n) not in FLAGGED]
        out.check(not missed, f"ingest: crashed nodes not flagged: {missed[:5]}")

    if trace:
        _traced(out, stream, family_of, factory, check, tracer)
        return out
    steady = next(i for i in range(0, len(stream), BATCH) if stream[i][2] >= WARMUP_S) // BATCH
    pass_s, lat = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(pass_s) < 2:
        table, accepted, elapsed, batch_s = _feed(stream, factory)
        check(table, accepted)
        pass_s.append(elapsed)
        lat += batch_s[steady:]
    p50, p99 = quantiles_ms(lat)
    # Sustained rate: the mean pass over the whole measured time.
    work = statistics.fmean(pass_s)
    out.e2e.update(setup_s=setup_s, work_s=work, p50_ms=p50, peak_rss_mb=peak_rss_mb())
    out.report += [
        ("ingest_hb_per_s", len(stream) / work, "1/s"),
        ("ingest_batch_p50_ms", p50, "ms"),
        ("ingest_batch_p99_ms", p99, "ms"),
        ("ingest_batches", len(lat), "count"),
    ]
    return out
