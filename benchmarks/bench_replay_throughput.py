"""Engineering bench — replay pipeline throughput, end to end.

Not a paper table, but the quantity that makes the paper's methodology
tractable in Python: the experiment engine must chew through
multi-million-heartbeat traces per parameter point.  Two layers are
timed here:

* **kernels in isolation** — the replay of every family (Chen, Bertier,
  φ, SFD, quantile, ml) on a pre-extracted in-memory view, each with a
  throughput floor, plus the per-event streaming reference on a slice;
* **the full pipeline** — open a multi-million-heartbeat *columnar
  store* from disk, replay it, and produce a QoS report, which is what
  one sweep grid point actually costs.  The columnar format's zero-copy
  contract is what makes load + replay + QoS clear 1M heartbeats/s end
  to end; that bound is asserted (``BENCH_replay_pipeline.json``),
  along with the streaming-vs-vectorized ratio that justifies the
  vectorized engine's existence.

``REPRO_BENCH_PIPELINE_N`` scales the pipeline trace (default 2M
heartbeats; CI smoke runs use a reduced count).
"""

import os
import time

import numpy as np
import pytest

from repro.core import SlotConfig
from repro.detectors import ChenFD
from repro.obs import Instruments
from repro.qos.spec import QoSRequirements
from repro.replay import (
    ChenSpec,
    BertierSpec,
    MLSpec,
    PhiSpec,
    QuantileSpec,
    SFDSpec,
    replay,
)
from repro.traces import TraceStore, WAN_JAIST, synthesize, synthesize_to

from _common import SEED, bench_stats, emit, interleaved_min, qos_dict

N = 200_000
PIPELINE_N = int(os.environ.get("REPRO_BENCH_PIPELINE_N", "2000000"))
REQ = QoSRequirements(
    max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
)


@pytest.fixture(scope="module")
def view():
    return synthesize(WAN_JAIST, n=N, seed=SEED).monitor_view()


@pytest.fixture(scope="module")
def pipeline_store(tmp_path_factory):
    """A multi-million-heartbeat columnar store on disk (synthesized once)."""
    path = tmp_path_factory.mktemp("pipeline") / "wan_jaist.bin"
    return synthesize_to(WAN_JAIST, path, n=PIPELINE_N, seed=SEED)


def test_vectorized_chen_throughput(benchmark, view):
    res = benchmark(lambda: replay(ChenSpec(alpha=0.1, window=1000), view))
    rate = len(view) / benchmark.stats["mean"]
    emit(
        "throughput_chen",
        f"vectorized Chen replay: {rate / 1e6:.2f} M heartbeats/s "
        f"({len(view)} heartbeats)",
        data={
            "detector": "chen",
            "heartbeats": len(view),
            "heartbeats_per_s": rate,
            "timing": bench_stats(benchmark),
            "qos": qos_dict(res.qos),
        },
    )
    assert rate > 1e6
    assert res.qos.samples > 0


def test_vectorized_bertier_throughput(benchmark, view):
    benchmark(lambda: replay(BertierSpec(window=1000), view))
    assert len(view) / benchmark.stats["mean"] > 5e5


def test_vectorized_phi_throughput(benchmark, view):
    benchmark(lambda: replay(PhiSpec(threshold=4.0, window=1000), view))
    assert len(view) / benchmark.stats["mean"] > 1e6


def test_vectorized_sfd_throughput(benchmark, view):
    spec = SFDSpec(
        requirements=REQ, sm1=0.1, window=1000, slot=SlotConfig(100)
    )
    benchmark(lambda: replay(spec, view))
    # The slot loop costs more than pure array code but must stay fast
    # enough for sweeps.
    assert len(view) / benchmark.stats["mean"] > 2e5


def test_vectorized_quantile_throughput(benchmark, view):
    # One pass of the sorted-window core per point (O(log W) search per
    # heartbeat); the floor sits well above the ~6e4 hb/s of an
    # np.quantile-per-window kernel, so a regression to one fails it.
    spec = QuantileSpec(quantile=0.99, window=1000)
    benchmark.pedantic(lambda: replay(spec, view), rounds=3, iterations=1)
    assert len(view) / benchmark.stats["mean"] > 2e5


def test_vectorized_ml_throughput(benchmark, view):
    # The NLMS recursion is sequential: one Python step per heartbeat.
    spec = MLSpec(margin=2.0)
    benchmark.pedantic(lambda: replay(spec, view), rounds=3, iterations=1)
    assert len(view) / benchmark.stats["mean"] > 1e5


def test_streaming_reference_for_scale(benchmark, view):
    """Streaming replay of a 20k slice — the per-event reference the
    vectorized engine is checked against (and the reason it exists)."""
    seq = view.seq[:20_000]
    arr = view.arrivals[:20_000]
    snd = view.send_times[:20_000]

    def run():
        fd = ChenFD(0.1, window_size=1000)
        for s, a, t in zip(seq, arr, snd):
            fd.observe(int(s), float(a), float(t))
        return fd

    benchmark(run)
    streaming_rate = 20_000 / benchmark.stats["mean"]
    emit(
        "throughput_streaming",
        f"streaming Chen reference: {streaming_rate / 1e3:.0f} k heartbeats/s",
        data={
            "detector": "chen-streaming",
            "heartbeats": 20_000,
            "heartbeats_per_s": streaming_rate,
            "timing": bench_stats(benchmark),
        },
    )
    assert streaming_rate > 2e4


def _min_of(n: int, fn) -> float:
    """Min-of-N wall time: the least-noise estimator for short runs."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_pipeline_end_to_end(benchmark, pipeline_store):
    """Full pipeline on a columnar store: open → mmap → replay → QoS.

    Every round re-opens the store from its path — the cost a pool
    worker pays per trace — so the measured rate covers header/meta
    parsing, memory mapping, the vectorized Chen kernel, and the fused
    freshness → QoS accounting.  The acceptance bound is the ROADMAP's
    ≥1M heartbeats/s for the *whole* path, not just the kernel.
    """
    path = str(pipeline_store.path)
    spec = ChenSpec(alpha=0.1, window=1000)

    def run():
        store = TraceStore(path)
        return store, replay(spec, store)

    store, res = benchmark(run)
    heartbeats = len(store.view())
    rate = heartbeats / benchmark.stats["mean"]

    # Streaming reference on a 20k slice of the same store, min-of-3:
    # the ratio is the justification for the vectorized engine.
    view = store.view()
    seq, arr, snd = view.seq[:20_000], view.arrivals[:20_000], view.send_times[:20_000]

    def stream():
        fd = ChenFD(0.1, window_size=1000)
        for s, a, t in zip(seq, arr, snd):
            fd.observe(int(s), float(a), float(t))

    streaming_rate = 20_000 / _min_of(3, stream)
    ratio = rate / streaming_rate
    emit(
        "replay_pipeline",
        f"columnar pipeline (load -> replay -> QoS): {rate / 1e6:.2f} M "
        f"heartbeats/s over {heartbeats} heartbeats "
        f"({pipeline_store.path.stat().st_size / 1e6:.1f} MB store); "
        f"{ratio:.0f}x the streaming reference "
        f"({streaming_rate / 1e3:.0f} k heartbeats/s)",
        data={
            "detector": "chen",
            "pipeline": "TraceStore -> replay -> QoSReport",
            "heartbeats": heartbeats,
            "total_sent": pipeline_store.total_sent,
            "store_bytes": pipeline_store.path.stat().st_size,
            "heartbeats_per_s": rate,
            "streaming_heartbeats_per_s": streaming_rate,
            "vectorized_vs_streaming_ratio": ratio,
            "timing": bench_stats(benchmark),
            "qos": qos_dict(res.qos),
        },
    )
    # The ROADMAP acceptance bound: ≥1M hb/s for the full pipeline.
    assert rate > 1e6
    assert res.qos.samples > 0


def test_instrumentation_overhead(view):
    """Replay instrumentation must cost < 5% vs a no-op registry.

    The hot path is untouched (metrics are recorded once per replay, not
    per heartbeat); this guards that property against regressions.

    Measurement: interleaved min-of-N CPU time (see
    ``_common.interleaved_min``), best of 3 rounds.  The fused QoS path
    made a 200k-heartbeat replay a ~12 ms operation, so back-to-back
    wall-clock minima no longer resolve a 5% bound on a noisy box — the
    noise floor alone exceeds it.
    """
    spec = ChenSpec(alpha=0.1, window=1000)
    live = Instruments()
    null = Instruments.null()
    for warm in range(2):  # touch both paths before timing
        replay(spec, view, instruments=live)
        replay(spec, view, instruments=null)
    overhead, base, instrumented = float("inf"), 0.0, 0.0
    for _ in range(3):
        b, lv = interleaved_min(
            11,
            (
                lambda: replay(spec, view, instruments=null),
                lambda: replay(spec, view, instruments=live),
            ),
        )
        if lv / b - 1.0 < overhead:
            overhead, base, instrumented = lv / b - 1.0, b, lv
        if overhead < 0.05:
            break
    emit(
        "throughput_obs_overhead",
        f"replay instrumentation overhead: {overhead * 100:+.2f}% "
        f"(null {len(view) / base / 1e6:.2f} M hb/s, "
        f"instrumented {len(view) / instrumented / 1e6:.2f} M hb/s)",
        data={
            "heartbeats": len(view),
            "null_registry_s": base,
            "instrumented_s": instrumented,
            "overhead_fraction": overhead,
        },
    )
    assert overhead < 0.05
