"""``loopback_light`` / ``loopback_heavy``: the paper's detector behind a real socket.

``LiveMonitor`` running SFD listens on 127.0.0.1 UDP.  A separate
single-threaded generator process (``gen.py``, one socket) sends
pre-packed heartbeats, 10 Hz per node, on a fixed schedule that does not
slow when the monitor does (open loop); four seeded nodes crash between
40% and 60% of the run.  The offered rate is fixed per workload: ``light``
500 hb/s (50 nodes) and ``heavy`` 5000 hb/s (500 nodes), where the monitor
process is about half busy.  SFD's window of 10 beats ends warm-up within
the first fifth of the run, which is left out of the statistics.

Lag is sampled on a 2 ms tick as ``now - due(received)``: ``due(k)`` is
the scheduled send time of the k-th heartbeat and ``received`` the
monitor's public counter, so lag is how far the monitor's processed state
trails the schedule.

End-to-end: ``p50_ms`` is the median lag (its 99th percentile is
reported, not gated), ``work_s`` the CPU seconds
the monitor process spent over the measured window, ``setup_s`` the
schedule build and pack, socket bind and generator start-up.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import Outcome, peak_rss_mb, quantiles_ms, scratch_dir
from tracing import Tracer

from repro.cluster.membership import NodeStatus
from repro.runtime.monitor import LiveMonitor
from repro.runtime.udp import pack_heartbeat

RATES = {"light": 500, "heavy": 5000}
HZ = 10
SPEC = "sfd:window=10,slot=10"
CRASHES = 4
WARMUP_SHARE = 0.2
TICK_S = 0.002
#: A generator whose 99th-percentile send lateness exceeds this voids the lag.
LATE_LIMIT_MS = 20.0
SETUPS = 5
GEN = Path(__file__).resolve().parent / "gen.py"
FLAGGED = (NodeStatus.SUSPECT, NodeStatus.DEAD)


def make_schedule(nodes: int, seconds: float, seed: int):
    """Seeded open-loop schedule: send offsets, node index and sequence
    number of every heartbeat in send order, and the crashed nodes."""
    rng = np.random.default_rng(seed)
    # Nodes take evenly spaced, shuffled slots in the 100 ms period, so the
    # offered stream is smooth at every seed.
    phase = (rng.permutation(nodes) + rng.uniform(0.25, 0.75, nodes)) / (nodes * HZ)
    crashed = rng.choice(nodes, CRASHES, replace=False)
    crash_at = np.full(nodes, np.inf)
    crash_at[crashed] = seconds * rng.uniform(0.4, 0.6, CRASHES)
    beats = np.arange(int(seconds * HZ) + 1)
    node = np.repeat(np.arange(nodes), len(beats))
    seq = np.tile(beats, nodes)
    due = phase[node] + seq / HZ
    keep = (due < seconds) & (due < crash_at[node])
    order = np.argsort(due[keep], kind="stable")
    return due[keep][order], node[keep][order], seq[keep][order], crashed


@dataclass
class _Rig:
    """One started monitor plus one generator that has loaded its schedule."""

    monitor: LiveMonitor
    proc: subprocess.Popen
    due: np.ndarray
    crashed: list[str]


async def _setup(rate: str, seed: int, seconds: float, path: Path) -> _Rig:
    nodes = RATES[rate] // HZ
    due, node, seq, crashed = make_schedule(nodes, seconds, seed)
    names = [f"{rate[0]}{i:05d}" for i in range(nodes)]
    packed = b"".join(
        pack_heartbeat(names[n], s, d)
        for n, s, d in zip(node.tolist(), seq.tolist(), due.tolist())
    )
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", len(due), len(packed) // max(len(due), 1)))
        fh.write(due.astype("<f8").tobytes())
        fh.write(packed)
    monitor = LiveMonitor(SPEC)
    await monitor.start()
    host, port = monitor.address
    proc = subprocess.Popen(
        [sys.executable, str(GEN), str(path), host, str(port)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    rig = _Rig(monitor, proc, due, [names[i] for i in crashed])
    if proc.stdout.readline().strip() != "ready":
        await _close(rig)
        raise RuntimeError("loopback generator failed to start")
    return rig


async def _close(rig: _Rig) -> None:
    """Stop the generator (cancelling it if it never started) and the monitor."""
    try:
        if rig.proc.poll() is None:
            try:
                rig.proc.stdin.close()
                rig.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                rig.proc.kill()
                rig.proc.wait()
    finally:
        for pipe in (rig.proc.stdin, rig.proc.stdout):
            if not pipe.closed:
                pipe.close()
        await rig.monitor.stop()


async def _measure(out: Outcome, rig: _Rig, seconds: float, tracer: Tracer | None = None) -> dict:
    """Start the generator, sample lag on a fixed tick, then check the run."""
    loop = asyncio.get_running_loop()
    monitor = rig.monitor
    if tracer is not None:
        table = monitor.table
        for entry in ("heartbeat", "heartbeat_batch"):
            setattr(table, entry, tracer.wrap("cluster.table", getattr(table, entry)))
    t0 = time.monotonic() + 0.1
    rig.proc.stdin.write(f"{t0!r}\n")
    rig.proc.stdin.flush()
    window = (t0 + WARMUP_SHARE * seconds, t0 + seconds)
    check_at = t0 + seconds - 0.25
    samples: list[tuple[float, int, float, float]] = []
    verdicts: dict[str, NodeStatus] = {}
    done = loop.create_future()

    def tick() -> None:
        now = time.monotonic()
        if now >= check_at and not verdicts:
            verdicts.update((n, monitor.status(n)) for n in rig.crashed)
        if now >= window[0]:
            samples.append((now, monitor.received, time.process_time(), time.perf_counter()))
        if now < window[1]:
            loop.call_later(TICK_S, tick)
        else:
            done.set_result(None)

    loop.call_soon(tick)
    await done
    expected = len(rig.due)
    drain_until = t0 + seconds + 2.0
    while monitor.received < expected and time.monotonic() < drain_until:
        await asyncio.sleep(0.01)
    try:
        stdout, _ = rig.proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        rig.proc.kill()
        stdout, _ = rig.proc.communicate()
    gen = json.loads(stdout.strip().splitlines()[-1])

    out.attempted += expected
    out.failed += expected - monitor.received
    out.check(monitor.received == expected, f"loopback: monitor received {monitor.received} of {expected} heartbeats")
    out.check(gen["sent"] == expected, f"loopback: generator sent {gen['sent']} of {expected}")
    missed = [n for n in rig.crashed if verdicts.get(n) not in FLAGGED]
    out.check(not missed, f"loopback: crashed nodes not flagged before the stream ended: {missed}")
    out.check(
        gen["late_p99_ms"] <= LATE_LIMIT_MS,
        f"loopback: generator ran late (p99 {gen['late_p99_ms']:.2f} ms > {LATE_LIMIT_MS} ms); run invalid",
    )

    lags = [now - (t0 + rig.due[r - 1]) for now, r, _cpu, _perf in samples if r and now <= window[1]]
    first, last = samples[0], samples[-1]
    cpu = last[2] - first[2]
    heartbeats = max(last[1] - first[1], 1)
    if tracer is not None:
        tracer.add("loopback.window", first[3], last[3])
    return {
        "lag": lags,
        "cpu_s": cpu,
        "wall_s": last[0] - first[0],
        "heartbeats": heartbeats,
        "late_p99_ms": gen["late_p99_ms"],
    }


async def _run(rate: str, seed: int, seconds: float, trace: bool, tracer: Tracer) -> Outcome:
    out = Outcome()
    rigs: list[_Rig] = []
    with scratch_dir("loopback-") as tmp:
        try:
            times = []
            for i in range(SETUPS):
                start = time.perf_counter()
                rigs.append(await _setup(rate, seed, seconds, tmp / f"schedule-{i}.bin"))
                times.append(time.perf_counter() - start)
                if i < SETUPS - 1:
                    await _close(rigs[-1])
            plain = await _measure(out, rigs[-1], seconds)
            if trace:
                rigs.append(await _setup(rate, seed, seconds, tmp / "schedule-traced.bin"))
                traced = await _measure(out, rigs[-1], seconds, tracer)
                ((_name, _dur, window),) = [r for r in tracer.self_by_root() if r[0] == "loopback.window"]
                hb = traced["heartbeats"]
                table_us = 1e6 * window.get("cluster.table", 0.0) / hb
                cpu_us = 1e6 * traced["cpu_s"] / hb
                out.layer.update({
                    "cluster.table_us_per_hb": table_us,
                    "runtime.cpu_us_per_hb": cpu_us,
                    "runtime.busy_share": traced["cpu_s"] / traced["wall_s"],
                    "runtime.ingest_us_per_hb": cpu_us - table_us,
                    "gen.late_p99_ms": traced["late_p99_ms"],
                    "trace.self_sum_s": sum(window.values()),
                    "trace.overhead_s": traced["cpu_s"] - plain["cpu_s"],
                })
        finally:
            for rig in rigs:
                await _close(rig)
    if not trace:
        p50, p99 = quantiles_ms(plain["lag"])
        out.e2e.update(
            setup_s=statistics.median(times),
            work_s=plain["cpu_s"],
            p50_ms=p50,
            peak_rss_mb=peak_rss_mb(),
        )
        out.report += [
            (f"lag_p50_ms.{rate}", p50, "ms"),
            (f"lag_p99_ms.{rate}", p99, "ms"),
            (f"lag_samples.{rate}", len(plain["lag"]), "count"),
            (f"busy_share.{rate}", plain["cpu_s"] / plain["wall_s"], "ratio"),
            (f"gen.late_p99_ms.{rate}", plain["late_p99_ms"], "ms"),
        ]
    return out


def run(rate: str, seed: int, seconds: float, trace: bool, tracer: Tracer) -> Outcome:
    return asyncio.run(_run(rate, seed, seconds, trace, tracer))
