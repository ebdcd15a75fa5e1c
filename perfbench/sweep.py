"""``sweep`` workload: the paper's Section V method on the replay plane.

One :class:`~repro.exp.ExperimentPlan` over a seeded WAN-1 columnar store
(``synthesize_to``, 200k heartbeats) sweeps all seven registry families
at window 1000 — 20 jobs.  It runs with ``SerialExecutor`` into an empty
:class:`~repro.exp.SweepCache` (cold, repeated into a fresh cache for 60%
of ``--seconds``), then repeats warm passes against that cache for the
rest.  Each pass opens the store, builds the plan and runs
it, as a repeated ``repro run`` would.  This is the only workload that
runs the vectorized kernels, replay accounting and the cache.

End-to-end: ``work_s`` is the mean cold pass, ``p50_ms`` the median warm pass
(its 99th percentile is reported, not gated), ``setup_s`` the trace
synthesis and pack.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
import time

from common import FAMILIES, ROOT, Outcome, peak_rss_mb, quantiles_ms, scratch_dir, timed_setup
from tracing import Tracer

from repro.detectors import registry
from repro.exp import ExperimentPlan, FailurePolicy, SerialExecutor, SweepCache
from repro.exp.archive import curve_to_dict
from repro.obs import Instruments
from repro.replay import replay
from repro.traces.columnar import TraceStore
from repro.traces.synth import synthesize_to
from repro.traces.wan import WAN_1

HEARTBEATS = 200_000
WINDOW = 1000
#: 20 jobs: chen x4, bertier x1, phi x4, fixed x4, quantile x2, sfd x3, ml x2.
GRID = {
    "chen": (0.001, 0.01, 0.1, 0.9),
    "bertier": (0.0,),
    "phi": (1.0, 2.0, 4.0, 8.0),
    "fixed": (0.1, 0.3, 1.0, 2.0),
    "quantile": (0.9, 0.99),
    "sfd": (0.001, 0.03, 0.9),
    "ml": (1.0, 4.0),
}
JOBS = sum(len(g) for g in GRID.values())
#: Families whose freshness point only grows with the swept parameter, so
#: along the grid detection time cannot fall and mistakes cannot rise.
MONOTONE = ("chen", "phi", "quantile", "fixed", "ml")
#: Share of ``--seconds`` spent on cold passes; warm passes get the rest.
COLD_SHARE = 0.6
#: Quarantine instead of aborting, so failed jobs are counted.
POLICY = FailurePolicy(mode="continue")
GOLDEN = ROOT / "tests" / "data" / "golden_qos.json"


def _pass(path, cache, tracer: Tracer | None = None, instruments=None):
    """Open the store, build the 20-job plan and run it; (result, seconds)."""
    span = tracer.span if tracer is not None else _untraced
    start = time.perf_counter()
    with span("traces.open"):
        store = TraceStore(path) if tracer is None else _TimedStore(path, tracer)
    with span("exp.plan"):
        plan = ExperimentPlan().add_trace("wan1", store)
        for family, grid in GRID.items():
            plan.add_sweep("wan1", family, grid, window=WINDOW)
        result = plan.run(
            SerialExecutor(), cache=cache, policy=POLICY, instruments=instruments
        )
    return result, time.perf_counter() - start


def _untraced(_name: str):
    return contextlib.nullcontext()


def _curves(result) -> dict[str, str]:
    """Every curve as its lossless archive JSON (bit-exact comparison)."""
    return {
        name: json.dumps(curve_to_dict(curve), sort_keys=True)
        for _trace, name, curve in result.items()
    }


def _check_golden(out: Outcome) -> None:
    """Replay of the committed golden trace must reproduce its pinned QoS."""
    golden = json.loads(GOLDEN.read_text())
    store = TraceStore(GOLDEN.parent / golden["trace"])
    for family in FAMILIES:
        pin = golden["qos"].get(family)
        if pin is None:
            out.check(False, f"golden: no pin for {family}")
            continue
        qos = replay(registry.parse_spec(pin["spec"]), store).qos
        for key, want in pin.items():
            if key != "spec":
                out.check(
                    getattr(qos, key) == want,
                    f"golden: {family}.{key} = {getattr(qos, key)!r}, pinned {want!r}",
                )


def _check_cold(out: Outcome, result) -> None:
    out.attempted += JOBS
    out.failed += len(result.failures)
    for family, grid in GRID.items():
        curve = result.curve("wan1", family)
        out.check(
            len(curve) == len(grid),
            f"sweep: {family} curve has {len(curve)} of {len(grid)} points",
        )
        if family in MONOTONE and len(curve) == len(grid):
            td = [p.qos.detection_time for p in curve]
            mistakes = [p.qos.mistakes for p in curve]
            out.check(
                all(a <= b for a, b in zip(td, td[1:])),
                f"sweep: {family} detection time falls along the grid: {td}",
            )
            out.check(
                all(a >= b for a, b in zip(mistakes, mistakes[1:])),
                f"sweep: {family} mistakes rise along the grid: {mistakes}",
            )


class _TimedStore(TraceStore):
    def __init__(self, path, tracer: Tracer):
        super().__init__(path)
        self.tracer = tracer

    def fingerprint(self) -> str:
        with self.tracer.span("traces.fingerprint"):
            return super().fingerprint()


class _TimedCache(SweepCache):
    def __init__(self, directory, tracer: Tracer):
        super().__init__(directory)
        self.tracer = tracer

    def load(self, key):
        with self.tracer.span("exp.cache_load"):
            return super().load(key)

    def store(self, key, qos, *, meta=None):
        with self.tracer.span("exp.cache_store"):
            return super().store(key, qos, meta=meta)


class _ReplaySpans(Instruments):
    """Turns the replay engine's per-replay duration into a span."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def record_replay(self, detector, heartbeats, seconds, qos=None):
        end = time.perf_counter()
        self.tracer.add("replay", end - seconds, end)


@contextlib.contextmanager
def _timed_kernels(tracer: Tracer, counts: dict[str, int]):
    """Re-register each family with a timing wrapper around its kernel,
    restoring the original descriptors afterwards."""
    originals = {name: registry.get(name) for name in FAMILIES}
    try:
        for name, fam in originals.items():
            span = tracer.wrap(f"detectors.kernel.{name}", fam.kernel)

            def kernel(view, spec, _span=span, _name=name):
                counts[_name] += len(view)
                return _span(view, spec)

            registry.register(dataclasses.replace(fam, kernel=kernel), replace=True)
        yield
    finally:
        for fam in originals.values():
            registry.register(fam, replace=True)


def _warm(out: Outcome, path, cache, seconds: float, reference, tracer=None) -> list[float]:
    """Warm passes for ``seconds`` (at least 10); their durations."""
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < 10:
        start = time.perf_counter()
        warm, elapsed = _pass(path, cache, tracer)
        if tracer is not None:
            tracer.add("sweep.warm", start, time.perf_counter())
        times.append(elapsed)
        out.check(warm.cache.misses == 0, f"sweep: warm pass missed {warm.cache.misses} job(s)")
        if len(times) == 1:
            out.check(_curves(warm) == reference, "sweep: warm curves differ from cold")
    return times


def _traced(out: Outcome, path, cache_dir, seconds: float, untraced_cold: float, reference, tracer):
    """The traced pass: cold into a fresh cache, then warm passes."""
    counts = dict.fromkeys(FAMILIES, 0)
    cache = _TimedCache(cache_dir, tracer)
    with _timed_kernels(tracer, counts):
        start = time.perf_counter()
        cold, _ = _pass(path, cache, tracer, instruments=_ReplaySpans(tracer))
        tracer.add("sweep.cold", start, time.perf_counter())
    _check_cold(out, cold)
    out.check(_curves(cold) == reference, "sweep: traced cold curves differ from untraced")
    loads = (cache.hits, cache.misses)
    _warm(out, path, cache, seconds, reference, tracer)
    hits, misses = cache.hits - loads[0], cache.misses - loads[1]

    roots = tracer.self_by_root()
    ((cold_dur, cold_self),) = [(d, s) for n, d, s in roots if n == "sweep.cold"]
    warm = [s for n, _d, s in roots if n == "sweep.warm"]

    def warm_ms(name: str) -> float:
        return 1e3 * statistics.median(s.get(name, 0.0) for s in warm)

    layer = out.layer
    for name in FAMILIES:
        layer[f"detectors.kernel_s.{name}"] = cold_self.get(f"detectors.kernel.{name}", 0.0)
    layer["detectors.kernel_hb"] = sum(counts.values())
    layer["replay.account_s"] = cold_self.get("replay", 0.0)
    layer["exp.cache_store_ms"] = 1e3 * cold_self.get("exp.cache_store", 0.0)
    layer["exp.plan_self_ms"] = 1e3 * cold_self.get("exp.plan", 0.0)
    layer["traces.open_ms"] = warm_ms("traces.open")
    layer["traces.fingerprint_ms"] = warm_ms("traces.fingerprint")
    layer["exp.cache_load_ms"] = warm_ms("exp.cache_load")
    layer["exp.cache_hit_ratio"] = hits / max(hits + misses, 1)
    layer["trace.self_sum_s"] = sum(cold_self.values())
    layer["trace.overhead_s"] = cold_dur - untraced_cold
    out.check(
        abs(layer["trace.self_sum_s"] - untraced_cold) <= abs(layer["trace.overhead_s"]) + 1e-6,
        "trace: cold-pass self times do not sum to the cold pass",
    )


def run(seed: int, seconds: float, trace: bool, tracer: Tracer) -> Outcome:
    out = Outcome()
    with scratch_dir("sweep-") as tmp:
        store_path, setup_s = timed_setup(
            lambda i: synthesize_to(WAN_1, tmp / f"wan1-{i}.bin", n=HEARTBEATS, seed=seed).path
        )
        # Cold passes, each into its own empty cache, for COLD_SHARE of the
        # time (one in a traced run, as the untraced reference).
        cold_s: list[float] = []
        reference = None
        deadline = time.perf_counter() + COLD_SHARE * seconds
        while not cold_s or (not trace and time.perf_counter() < deadline):
            cache_dir = tmp / f"cache-{len(cold_s)}"
            cold, elapsed = _pass(store_path, SweepCache(cache_dir))
            cold_s.append(elapsed)
            if len(cold_s) == 1:
                # Each later pass raises the allocator's high-water mark by
                # a varying few percent; one cold run's peak is the figure
                # a user sees.
                rss = peak_rss_mb()
            _check_cold(out, cold)
            curves = _curves(cold)
            if reference is None:
                reference = curves
            out.check(curves == reference, "sweep: cold passes disagree")
        if trace:
            _traced(out, store_path, tmp / "traced-cache", (1 - COLD_SHARE) * seconds, cold_s[0], reference, tracer)
        else:
            warm_s = _warm(out, store_path, SweepCache(cache_dir), (1 - COLD_SHARE) * seconds, reference)
            work = statistics.fmean(cold_s)
            p50, p99 = quantiles_ms(warm_s)
            out.e2e.update(setup_s=setup_s, work_s=work, p50_ms=p50, peak_rss_mb=rss)
            out.report += [
                ("sweep_cold_s", work, "s"),
                ("sweep_cold_passes", len(cold_s), "count"),
                ("sweep_warm_ms", p50, "ms"),
                ("sweep_warm_p99_ms", p99, "ms"),
                ("sweep_warm_passes", len(warm_s), "count"),
            ]
    _check_golden(out)
    return out
