"""Section V-C / VI — one-monitors-multiple scalability.

"SFD has good scalability.  Because it is able to get acceptable
performance with very small window size, and it can save valuable memory
resources" — and the conclusion extends SFD to the "one monitors multiple"
case.  Two scales are exercised:

* a PlanetLab-sized DES scan (hundreds of nodes, one small-window
  detector each, lossy jittered links) judged against ground truth, and
* a 10k-node live-plane ingest run through the sharded membership table:
  batched heartbeats, a status query per batch, amortized cost per
  heartbeat, steady-state query latency at 1k vs 10k nodes, and a final
  verdict-for-verdict comparison against the flat ``MembershipTable``
  oracle from ``tests/flat_membership.py`` fed the identical stream.

The live-plane run deliberately uses the constant-time fixed-timeout
detector: the bound under test is the *plane* overhead (admission,
deadline wheel, snapshot maintenance), which must stay flat while
estimator cost — measured by the per-family throughput benches — is
whatever the chosen detector family costs per sample.
"""

import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.cluster import (
    ClusterScan,
    NodeSpec,
    NodeStatus,
    ShardedMembershipTable,
)
from repro.detectors import FixedTimeoutFD, PhiFD

from _common import emit

# The flat table is a test-suite oracle, not library code.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from flat_membership import MembershipTable  # noqa: E402

N_NODES = 200
HORIZON = 30.0

# ---- live-plane scale knobs (CI smoke sets REPRO_BENCH_NODES=500) ---- #
LIVE_NODES = int(os.environ.get("REPRO_BENCH_NODES", "10000"))
#: Amortized ingest budget, µs per heartbeat.  Shared CI runners can
#: raise it for headroom; the acceptance bound is the 2 µs default.
BUDGET_US = float(os.environ.get("REPRO_BENCH_BUDGET_US", "2.0"))
LIVE_BEATS = 20
INTERVAL = 1.0
TIMEOUT = 3.0
CHUNK = 2048
SHARDS = 32
#: Wheel bucket width: a tenth of the heartbeat period bounds how long a
#: lazily re-bucketed node can sit in an already-due bucket (each extra
#: advance in that window re-pops it for a cheap re-arm).
GRANULARITY = 0.1 * INTERVAL
#: Beats per node fed untimed before the measured run: the first beats
#: pay registration and detector warm-up, which is join cost, not the
#: sustained ingest the 2 µs budget is about.
WARM_BEATS = 2
CRASH_EVERY = 97
CRASH_AFTER_BEAT = 10


def build_and_run():
    specs = [
        NodeSpec(
            f"node-{i:03d}",
            interval=0.25,
            delay_mean=0.02 + 0.0004 * (i % 50),
            loss_rate=0.01 if i % 7 == 0 else 0.0,
            crash_time=(HORIZON / 2 if i % 10 == 0 else math.inf),
        )
        for i in range(N_NODES)
    ]
    scan = ClusterScan(specs, lambda nid: PhiFD(3.0, window_size=30), seed=1)
    report = scan.run(horizon=HORIZON)
    return scan, report


def test_cluster_scan_scalability(benchmark):
    scan, report = benchmark.pedantic(build_and_run, rounds=1, iterations=1)
    heartbeats = sum(st.heartbeats for st in scan.table.nodes())
    per_hb_us = benchmark.stats["mean"] / max(heartbeats, 1) * 1e6
    counts = {k.value: v for k, v in report.counts().items()}
    emit(
        "cluster_scan_des",
        f"one-monitors-multiple scan: {N_NODES} nodes, {heartbeats} heartbeats "
        f"in {benchmark.stats['mean']:.2f}s ({per_hb_us:.1f} us/heartbeat)\n"
        f"statuses: {counts}\n"
        f"accuracy vs ground truth: {report.accuracy:.3f} "
        f"(missed={sorted(report.missed)}, false={sorted(report.false_suspects)})",
        data={
            "nodes": N_NODES,
            "heartbeats": heartbeats,
            "wall_s": benchmark.stats["mean"],
            "us_per_heartbeat": per_hb_us,
            "statuses": counts,
            "accuracy": report.accuracy,
        },
    )
    assert report.accuracy > 0.95
    assert report.missed == set()
    assert per_hb_us < 500.0


# --------------------------------------------------------------------- #
# 10k-node live plane: batched ingest through the sharded table
# --------------------------------------------------------------------- #


def _sharded_table() -> ShardedMembershipTable:
    return ShardedMembershipTable(
        lambda nid: FixedTimeoutFD(TIMEOUT),
        shards=SHARDS,
        granularity=GRANULARITY,
        account_qos=False,
    )


def _live_stream(seed: int = 7):
    """Arrival-ordered heartbeat stream for LIVE_NODES nodes.

    Every node beats at INTERVAL with a random phase and jitter; every
    CRASH_EVERY-th node goes silent after CRASH_AFTER_BEAT beats (the
    ground truth the final statuses are checked against).
    """
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, INTERVAL, LIVE_NODES)
    jitter = rng.normal(0.0, 0.02, (LIVE_NODES, LIVE_BEATS))
    arrivals = (
        phases[:, None] + INTERVAL * np.arange(LIVE_BEATS)[None, :] + jitter
    )
    keep = np.ones((LIVE_NODES, LIVE_BEATS), dtype=bool)
    crashed_rows = np.arange(0, LIVE_NODES, CRASH_EVERY)
    keep[crashed_rows, CRASH_AFTER_BEAT:] = False
    flat_keep = keep.ravel()
    node_idx = np.repeat(np.arange(LIVE_NODES), LIVE_BEATS)[flat_keep]
    seqs = np.tile(np.arange(LIVE_BEATS), LIVE_NODES)[flat_keep]
    times = arrivals.ravel()[flat_keep]
    order = np.argsort(times, kind="stable")
    ids = [f"n{i:05d}" for i in range(LIVE_NODES)]
    stream = [
        (ids[n], int(s), float(t), None)
        for n, s, t in zip(node_idx[order], seqs[order], times[order])
    ]
    return stream, {ids[i] for i in crashed_rows}


def _summary_latency_us(nodes: int) -> float:
    """Steady-state ``summary()`` latency of a table holding ``nodes``."""
    table = _sharded_table()
    for beat in range(3):
        base = beat * INTERVAL
        table.heartbeat_batch(
            [(f"m{i:05d}", beat, base + i * 1e-7, None) for i in range(nodes)]
        )
    now = 2 * INTERVAL + nodes * 1e-7
    table.summary(now)  # settle: drain anything due, then time the rest
    reps = 2000
    t0 = time.perf_counter()
    for _ in range(reps):
        table.summary(now)
    return (time.perf_counter() - t0) / reps * 1e6


def test_live_plane_10k(benchmark):
    stream, crashed = _live_stream()
    warm = [hb for hb in stream if hb[1] < WARM_BEATS]
    rest = [hb for hb in stream if hb[1] >= WARM_BEATS]
    batches = [rest[i : i + CHUNK] for i in range(0, len(rest), CHUNK)]
    tables: list[ShardedMembershipTable] = []

    def fresh_warmed_table():
        table = _sharded_table()
        for i in range(0, len(warm), CHUNK):
            table.heartbeat_batch(warm[i : i + CHUNK])
        table.summary(warm[-1][2])
        tables.append(table)
        return (table,), {}

    def feed(table):
        for batch in batches:
            table.heartbeat_batch(batch)
            # A status query per batch — the consumer cadence the
            # O(changed) claim is about.
            table.summary(batch[-1][2])

    benchmark.pedantic(feed, setup=fresh_warmed_table, rounds=3, iterations=1)
    table = tables[-1]
    heartbeats = len(rest)
    # Min over rounds: the least-interference estimate of sustained cost.
    wall = benchmark.stats["min"]
    per_hb_us = wall / heartbeats * 1e6

    # Steady-state query latency must not scale with the node count.
    q_small = _summary_latency_us(1000)
    q_large = _summary_latency_us(10_000)
    ratio = q_large / max(q_small, 1e-9)

    # Verdict accuracy: identical to the flat table on the same stream.
    end = INTERVAL * LIVE_BEATS + 0.5
    flat = MembershipTable(
        lambda nid: FixedTimeoutFD(TIMEOUT), account_qos=False
    )
    for node_id, seq, at, send in stream:
        flat.heartbeat(node_id, seq, at, send)
    sharded_statuses = table.statuses(end)
    flat_statuses = flat.statuses(end)
    statuses_match = sharded_statuses == flat_statuses
    flagged = {
        nid
        for nid, st in sharded_statuses.items()
        if st is not NodeStatus.ACTIVE
    }
    counts = {s.value: 0 for s in NodeStatus}
    for st in sharded_statuses.values():
        counts[st.value] += 1

    emit(
        "cluster_scalability",
        f"live plane sustained ingest: {LIVE_NODES} nodes, {heartbeats} "
        f"heartbeats in {wall:.2f}s ({per_hb_us:.2f} us/heartbeat amortized; "
        f"{len(warm)} warm-up heartbeats fed untimed, "
        f"chunk={CHUNK}, shards={SHARDS}, wheel granularity={GRANULARITY})\n"
        f"summary() latency: {q_small:.1f} us @1k nodes vs "
        f"{q_large:.1f} us @10k nodes (ratio {ratio:.2f})\n"
        f"statuses at t={end}: { {k: v for k, v in counts.items() if v} }\n"
        f"flat-table parity: {statuses_match}; "
        f"crashed detected {len(flagged & crashed)}/{len(crashed)}, "
        f"false suspects {len(flagged - crashed)}",
        data={
            "nodes": LIVE_NODES,
            "heartbeats": heartbeats,
            "warmup_heartbeats": len(warm),
            "wall_s": wall,
            "us_per_heartbeat": per_hb_us,
            "chunk": CHUNK,
            "shards": SHARDS,
            "granularity_s": GRANULARITY,
            "summary_us_1k": q_small,
            "summary_us_10k": q_large,
            "summary_ratio": ratio,
            "statuses": counts,
            "flat_parity": statuses_match,
            "crashed_truth": len(crashed),
            "crashed_detected": len(flagged & crashed),
            "false_suspects": len(flagged - crashed),
        },
    )
    assert per_hb_us <= BUDGET_US
    # O(changed) query: a 10x bigger table may not cost 10x per query.
    assert ratio < 5.0
    assert statuses_match
    assert flagged == crashed
