"""Command-line interface: regenerate the paper's experiments directly.

Everything the benchmark suite does is also reachable without pytest::

    python -m repro table1
    python -m repro table2 [--scale 64] [--seed 2012]
    python -m repro figure --case WAN-1 [--scale 64] [--jobs 4]
    python -m repro run experiments.toml [--jobs 4] [--output DIR]
                  [--timeout S] [--retries N] [--on-failure continue]
                  [--resume] [--shard I/N]
    python -m repro merge experiments.toml [--output DIR]
    python -m repro ablation-window [--scale 64]
    python -m repro convergence [--sm1 0.005 1.8]
    python -m repro synth --case WAN-3 -o wan3.npz [-n 100000]
    python -m repro scan [--nodes 120] [--horizon 60]
    python -m repro live [--detector "chen:alpha=0.5"] [--duration 5]
    python -m repro chaos [--duration 12] [--crash-at 6 --restart-at 8]
    python -m repro metrics http://127.0.0.1:9464/metrics [--json]
    python -m repro top --demo [--interval 1] [--iterations 5]

Each subcommand prints the same rows/series the corresponding benchmark
archives under ``benchmarks/results/``.

Runtime subcommands (``live``, ``chaos``, ``consensus``, ``scan``) take
``--detector <spec>`` where ``<spec>`` is a registry spec string —
``family:key=value,...`` over the families in
:mod:`repro.detectors.registry` (``chen``, ``bertier``, ``phi``, ``sfd``,
``fixed``, ``quantile``, ``ml``, plus anything registered at runtime),
e.g. ``"chen:alpha=0.5"``, ``"phi:threshold=4.0,window=10"``,
``"ml:lr=0.05,window=16,margin=2.0"``,
``"sfd:td=0.9,mr=0.35,qap=0.99,slot=100"``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import (
    default_setup,
    format_figure,
    format_table,
    run_figure,
    scaled_heartbeats,
    table1_rows,
    table2_rows,
    window_ablation,
)
from repro.core import SlotConfig
from repro.qos.spec import QoSRequirements
from repro.replay import SFDSpec, replay
from repro.traces import ALL_PROFILES, synthesize

__all__ = ["main"]

_PROFILES = {p.name: p for p in ALL_PROFILES}


def _profile(name: str):
    try:
        return _PROFILES[name]
    except KeyError:
        raise SystemExit(
            f"unknown case {name!r}; choose from {', '.join(_PROFILES)}"
        )


def _scaled(profile, scale: float | None) -> int:
    return scaled_heartbeats(profile, scale)


def cmd_table1(args: argparse.Namespace) -> None:
    print(format_table(table1_rows(), title="Table I: summary of the WAN experiments"))


def cmd_table2(args: argparse.Namespace) -> None:
    traces = [
        synthesize(p, n=_scaled(p, args.scale), seed=args.seed)
        for p in ALL_PROFILES
    ]
    print(
        format_table(
            table2_rows(traces), title="Table II (regenerated, scaled traces)"
        )
    )


def _executor(jobs: int | None):
    """Map a ``--jobs`` value onto an executor (None/1 → serial)."""
    if jobs is None or jobs == 1:
        return None
    from repro.exp import ProcessPoolExecutor

    return ProcessPoolExecutor(jobs=jobs)


def cmd_figure(args: argparse.Namespace) -> None:
    profile = _profile(args.case)
    setup = default_setup(profile, seed=args.seed)
    if args.scale is not None:
        import dataclasses

        setup = dataclasses.replace(
            setup, n_heartbeats=_scaled(profile, args.scale)
        )
    result = run_figure(setup, executor=_executor(args.jobs))
    print(
        format_figure(
            result.curves,
            title=f"{profile.name}: MR/QAP vs detection time "
            f"({setup.heartbeats()} heartbeats, seed {setup.seed})",
        )
    )
    if args.csv:
        from repro.analysis import export_figure_csv

        written = export_figure_csv(
            result.curves, args.csv, prefix=profile.name.lower()
        )
        print(f"\nwrote {len(written)} CSV series to {args.csv}/")


def _parse_shard(text: str) -> tuple[int, int]:
    """``"i/N"`` → ``(i, N)`` with ``0 <= i < N`` (0-based worker index)."""
    head, sep, tail = text.partition("/")
    try:
        if not sep:
            raise ValueError
        index, count = int(head), int(tail)
    except ValueError:
        raise SystemExit(
            f"bad --shard {text!r}: expected i/N (e.g. 0/3, 1/3, 2/3)"
        ) from None
    if count < 1 or not (0 <= index < count):
        raise SystemExit(f"bad --shard {text!r}: need 0 <= i < N")
    return index, count


def _policy_from_args(args: argparse.Namespace, base):
    """Merge --timeout/--retries/--backoff/--on-failure over the config's
    [run.failures] policy; None when no flag was given (config wins)."""
    overrides: dict[str, object] = {}
    if args.timeout is not None:
        overrides["timeout"] = args.timeout
    if args.retries is not None:
        overrides["max_retries"] = args.retries
    if args.backoff is not None:
        overrides["backoff"] = args.backoff
    if args.on_failure is not None:
        overrides["mode"] = args.on_failure.replace("-", "_")
    if not overrides:
        return None
    import dataclasses

    from repro.errors import ConfigurationError
    from repro.exp import FailurePolicy

    try:
        return dataclasses.replace(base or FailurePolicy(), **overrides)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None


def cmd_run(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.exp import (
        ExecutorBrokenError,
        JobFailedError,
        load_config,
        run_config,
    )

    try:
        config = load_config(args.config)
    except Exception as exc:
        raise SystemExit(f"cannot load {args.config}: {exc}")
    policy = _policy_from_args(args, config.policy)
    shard = _parse_shard(args.shard) if args.shard else None
    print(
        f"{config.path}: {len(config.traces)} trace(s), "
        f"{len(config.sweeps)} sweep(s), {len(config.plan)} replay jobs"
        + (f" (shard {shard[0]}/{shard[1]})" if shard else "")
    )
    try:
        outcome = run_config(
            config,
            jobs=args.jobs,
            output=args.output,
            archive=not args.no_archive,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            policy=policy,
            shard=shard,
            resume=args.resume,
        )
    except (JobFailedError, ExecutorBrokenError, ConfigurationError) as exc:
        raise SystemExit(str(exc))
    for trace_key in outcome.result.curves:
        print()
        print(
            format_figure(
                outcome.result.trace_curves(trace_key),
                title=f"{trace_key}: swept QoS curves",
            )
        )
    mode = "serial" if outcome.jobs == 1 else f"{outcome.jobs} worker processes"
    print(
        f"\nran {outcome.n_jobs} replay jobs in {outcome.elapsed:.2f}s ({mode})"
    )
    if outcome.cache is not None:
        label = "resume: " if outcome.resumed else "cache: "
        print(f"{label}{outcome.cache}")
    for path in outcome.written:
        print(f"archived {path}")
    if outcome.failures:
        print()
        print(outcome.failures.summary())
        if not args.allow_failures:
            print(
                "exiting 3: partial curves (pass --allow-failures to accept, "
                "or re-run to retry the quarantined jobs)"
            )
            return 3
    return 0


def cmd_merge(args: argparse.Namespace) -> None:
    from repro.errors import ConfigurationError
    from repro.exp import load_config, merge_config

    try:
        config = load_config(args.config)
    except Exception as exc:
        raise SystemExit(f"cannot load {args.config}: {exc}")
    try:
        outcome = merge_config(
            config, output=args.output, cache_dir=args.cache_dir
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    print(
        f"merged {outcome.n_jobs} cached grid points into "
        f"{len(outcome.result.curves)} trace(s) "
        f"({len(outcome.written) - 1} curve file(s))"
    )
    for path in outcome.written:
        print(f"archived {path}")


def cmd_ablation_window(args: argparse.Namespace) -> None:
    profile = _profile(args.case)
    out = window_ablation(
        profile,
        window_sizes=tuple(args.sizes),
        seed=args.seed,
        n=_scaled(profile, args.scale) if args.scale else None,
    )
    rows = []
    for det, per_ws in out.items():
        for ws, q in per_ws.items():
            rows.append(
                {
                    "detector": det,
                    "WS": ws,
                    "TD [s]": f"{q.detection_time:.4f}",
                    "MR [1/s]": f"{q.mistake_rate:.5g}",
                    "QAP [%]": f"{q.query_accuracy * 100:.4f}",
                }
            )
    print(format_table(rows, title=f"Window-size ablation ({profile.name})"))


def cmd_convergence(args: argparse.Namespace) -> None:
    profile = _profile(args.case)
    trace = synthesize(profile, n=_scaled(profile, args.scale), seed=args.seed)
    req = QoSRequirements(
        max_detection_time=0.9, max_mistake_rate=0.35, min_query_accuracy=0.99
    )
    view = trace.monitor_view()
    for sm1 in args.sm1:
        res = replay(
            SFDSpec(
                requirements=req,
                sm1=sm1,
                alpha=0.1,
                beta=0.5,
                slot=SlotConfig(100, reset_on_adjust=True, min_slots=5),
            ),
            view,
        )
        print(
            f"SM1={sm1:g}: final SM={res.final_margin:.3f}s, "
            f"status={res.status.value}, {res.qos}"
        )
        for rec in res.tuning:
            if rec.sm_after != rec.sm_before:
                print(
                    f"  slot {rec.slot:4d} t={rec.time:9.1f}s "
                    f"SM {rec.sm_before:.3f} -> {rec.sm_after:.3f} "
                    f"[{rec.decision.name}]"
                )


def cmd_synth(args: argparse.Namespace) -> None:
    profile = _profile(args.case)
    n = args.n if args.n else _scaled(profile, args.scale)
    trace = synthesize(profile, n=n, seed=args.seed)
    trace.save(args.output)  # .bin suffix -> columnar store, else .npz
    print(f"wrote {trace.total_sent} heartbeats ({trace.name}) to {args.output}")


def cmd_trace_pack(args: argparse.Namespace) -> None:
    from repro.errors import TraceFormatError
    from repro.traces import HeartbeatTrace, TraceStore, write_columnar

    src = Path(args.input)
    try:
        if src.suffix == ".csv":
            trace = HeartbeatTrace.from_csv(src, name=args.name or src.stem)
        else:
            trace = HeartbeatTrace.load(src)
            if args.name:
                trace.name = args.name
        write_columnar(trace, args.output)
    except (OSError, TraceFormatError) as exc:
        raise SystemExit(f"cannot pack {src}: {exc}")
    store = TraceStore(args.output)
    print(
        f"packed {store.total_sent} heartbeats ({store.name}) "
        f"into {args.output} ({store.info()['file_bytes']} bytes)"
    )
    print(f"fingerprint {store.fingerprint()}")


def cmd_trace_info(args: argparse.Namespace) -> None:
    import json as _json

    from repro.errors import TraceFormatError
    from repro.traces import HeartbeatTrace, TraceStore, is_columnar

    path = Path(args.file)
    try:
        if is_columnar(path):
            info = TraceStore(path).info()
        else:
            trace = HeartbeatTrace.load(path)
            view = trace.monitor_view()
            info = {
                "path": str(path),
                "format": "npz",
                "file_bytes": path.stat().st_size,
                "name": trace.name,
                "total_sent": trace.total_sent,
                "total_received": trace.total_received,
                "view_heartbeats": len(view),
                "dropped_stale": view.dropped_stale,
                "fingerprint": view.fingerprint(),
                "meta": trace.meta,
            }
    except (OSError, TraceFormatError) as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    print(_json.dumps(info, indent=2, sort_keys=True))


def _detector_factory(spec_text: str):
    """Parse ``--detector`` through the registry into a per-node factory."""
    from repro.detectors import registry

    try:
        return registry.detector_factory(spec_text)
    except Exception as exc:
        raise SystemExit(f"bad --detector {spec_text!r}: {exc}")


def cmd_consensus(args: argparse.Namespace) -> None:
    from repro.consensus import ConsensusCluster

    values = [f"value-{i % 3}" for i in range(args.n)]
    crash_times = {p: args.crash_at for p in range(args.crashes)}
    cluster = ConsensusCluster(
        values,
        detector_factory=_detector_factory(args.detector),
        crash_times=crash_times,
        start_time=args.crash_at + 1.0 if args.crashes else 0.0,
        seed=args.seed,
    )
    out = cluster.run(horizon=args.horizon)
    print(
        f"consensus among {args.n} processes "
        f"({args.crashes} crash(es) at t={args.crash_at}s):"
    )
    print(f"  decision   : {out.decision!r}")
    print(f"  terminated : {out.terminated}")
    print(f"  agreement  : {out.agreement}")
    print(f"  validity   : {out.validity}")
    print(f"  latency    : {out.latency:.2f}s")
    print(f"  rounds     : {max(out.rounds[p] for p in out.correct)}")


def cmd_chaos(args: argparse.Namespace) -> None:
    import asyncio

    from repro.cluster.membership import NodeStatus
    from repro.net.loss import GilbertElliottLoss
    from repro.runtime import (
        ChaosScenario,
        FaultInjector,
        FaultPlan,
        LiveMonitor,
        UDPHeartbeatSender,
    )

    node = "node-p"

    async def drill() -> None:
        monitor = LiveMonitor(_detector_factory(args.detector))
        await monitor.start()
        injector = FaultInjector(monitor.address, seed=args.seed)
        await injector.start()

        def make_sender() -> UDPHeartbeatSender:
            return UDPHeartbeatSender(node, injector.address, interval=args.interval)

        senders = [make_sender()]
        await senders[-1].start()

        burst = FaultPlan(
            loss=GilbertElliottLoss.from_rate_and_burst(0.85, 16.0)
        )

        async def crash() -> None:
            await senders[-1].stop()

        async def restart() -> None:
            senders.append(make_sender())  # fresh sender: sequence resets to 0
            await senders[-1].start()

        scenario = (
            ChaosScenario()
            .burst(args.burst_at, args.burst_len, injector, burst)
            .at(args.crash_at, "sender crash (stop)", crash)
            .at(args.restart_at, "sender restart (seq reset to 0)", restart)
        )

        samples: list[tuple[float, NodeStatus, float]] = []

        async def sampler() -> None:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            while True:
                status = monitor.status(node)
                level = 0.0
                if node in monitor.table:
                    det = monitor.table.node(node).detector
                    if det.ready:
                        level = det.suspicion(monitor.clock())
                samples.append((loop.time() - t0, status, level))
                await asyncio.sleep(0.25)

        probe = asyncio.create_task(sampler())
        await scenario.run(horizon=args.duration)
        probe.cancel()
        await senders[-1].stop()
        await injector.stop()
        restarts = monitor.table.node(node).restarts if node in monitor.table else 0
        await monitor.stop()

        print(f"chaos drill over {args.duration:g}s (seed {args.seed}):")
        for at, label in scenario.log:
            print(f"  event t={at:5.1f}s  {label}")
        print("\ntimeline:")
        for t, status, level in samples:
            print(f"  t={t:5.1f}s  {status.value:8s}  suspicion={level:6.2f}")
        s = injector.stats
        print(
            f"\ninjector: {s.received} in, {s.forwarded} out, "
            f"{s.burst_dropped} burst-dropped, {s.dropped} dropped"
        )
        print(f"restarts recognized by the membership table: {restarts}")

    asyncio.run(drill())


def cmd_live(args: argparse.Namespace) -> None:
    import asyncio

    from repro.runtime import FailureDetectionService, UDPHeartbeatSender

    factory = _detector_factory(args.detector)

    async def run() -> None:
        async with FailureDetectionService(factory) as svc:
            senders = [
                UDPHeartbeatSender(
                    f"node-{i:02d}", svc.address, interval=args.interval
                )
                for i in range(args.nodes)
            ]
            for sender in senders:
                await sender.start()
            print(
                f"live monitor on {svc.address[0]}:{svc.address[1]} "
                f"({args.nodes} senders, detector {args.detector!r})"
            )
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            crashed = False
            try:
                while (elapsed := loop.time() - t0) < args.duration:
                    if (
                        args.crash_at is not None
                        and not crashed
                        and elapsed >= args.crash_at
                    ):
                        await senders[0].stop()
                        crashed = True
                        print(f"  t={elapsed:5.1f}s  crashed {senders[0].node_id}")
                    counts = {k.value: v for k, v in svc.summary().items() if v}
                    print(f"  t={elapsed:5.1f}s  {counts}")
                    await asyncio.sleep(args.poll)
            finally:
                for sender in senders:
                    await sender.stop()
            print("\nfinal peer view:")
            for node_id in sorted(svc.peers()):
                st = svc.peer_status(node_id)
                print(
                    f"  {node_id}: {st.status.value:8s} "
                    f"suspicion={st.suspicion:6.2f} "
                    f"heartbeats={st.heartbeats}"
                )

    asyncio.run(run())


def _metrics_url(raw: str) -> str:
    """Normalize a scrape target: allow ``host:port`` and bare URLs."""
    url = raw if "://" in raw else f"http://{raw}"
    scheme, _, rest = url.partition("://")
    if "/" not in rest:
        url = f"{scheme}://{rest}/metrics"
    return url


def cmd_metrics(args: argparse.Namespace) -> None:
    import asyncio
    import json

    from repro.obs import http_get, parse_prometheus

    url = _metrics_url(args.url)
    status, body = asyncio.run(http_get(url, timeout=args.timeout))
    if status != 200:
        raise SystemExit(f"scrape of {url} failed: HTTP {status}: {body.strip()}")
    if args.json:
        print(json.dumps(parse_prometheus(body).to_dict(), indent=2, sort_keys=True))
    else:
        print(body, end="")


def cmd_top(args: argparse.Namespace) -> None:
    import asyncio

    from repro.obs import http_get, parse_prometheus, render_top

    if args.demo == (args.url is not None):
        raise SystemExit("give a scrape URL or --demo, not both (or neither)")

    async def frames(url: str, title: str) -> None:
        shown = 0
        while args.iterations is None or shown < args.iterations:
            if shown and args.interval > 0:
                await asyncio.sleep(args.interval)
            status, body = await http_get(url, timeout=args.timeout)
            if status != 200:
                raise SystemExit(f"scrape of {url} failed: HTTP {status}")
            frame = render_top(parse_prometheus(body), title=title)
            if not args.no_clear and shown:
                # Home + clear-to-end keeps already-drawn lines steady
                # instead of flashing a full-screen erase every frame.
                print("\x1b[H\x1b[J", end="")
            print(frame)
            print(flush=True)
            shown += 1

    async def run_demo() -> None:
        from repro.core.sfd import SFD, SlotConfig
        from repro.obs import Instruments, MetricsServer
        from repro.qos.spec import QoSRequirements
        from repro.runtime import LiveMonitor, UDPHeartbeatSender

        req = QoSRequirements(
            max_detection_time=1.0, max_mistake_rate=0.5, min_query_accuracy=0.9
        )
        ins = Instruments()
        monitor = LiveMonitor(
            lambda nid: SFD(req, window_size=16, slot=SlotConfig(heartbeats=20)),
            instruments=ins,
        )
        await monitor.start()
        senders = [
            UDPHeartbeatSender(
                f"demo-{i}", monitor.address, interval=0.05, instruments=ins
            )
            for i in range(args.nodes)
        ]
        for sender in senders:
            await sender.start()
        server = MetricsServer(ins.registry, events=ins.events)
        await server.start()
        print(f"demo stack up — scrape {server.url} from another terminal")
        try:
            await frames(server.url, title=f"repro top (demo @ {server.url})")
        finally:
            for sender in senders:
                await sender.stop()
            await monitor.stop()
            await server.stop()

    if args.demo:
        asyncio.run(run_demo())
    else:
        asyncio.run(frames(_metrics_url(args.url), title=f"repro top ({args.url})"))


def _audit_demo(trail: int) -> str:
    """Offline audit demo: the regime-change example, fully instrumented.

    One SFD-monitored node rides calm → degraded → recovered network
    phases through a real :class:`ShardedMembershipTable`, so the audit plane
    sees genuine status edges (wrong suspicions during the congestion
    stalls) and the feedback loop leaves a full SM(k)/Sat_k trail.
    """
    import numpy as np

    from repro.cluster import ShardedMembershipTable
    from repro.core.feedback import InfeasiblePolicy
    from repro.core.sfd import SFD, SlotConfig
    from repro.obs import (
        Instruments,
        parse_prometheus,
        render_audit,
        render_prometheus,
    )
    from repro.qos.spec import QoSRequirements

    req = QoSRequirements(
        max_detection_time=0.45, max_mistake_rate=0.05, min_query_accuracy=0.98
    )
    ins = Instruments()
    table = ShardedMembershipTable(
        ins.wrap_detector_factory(
            lambda nid: SFD(
                req,
                sm1=0.02,
                alpha=0.2,
                beta=0.5,
                window_size=50,
                slot=SlotConfig(50, reset_on_adjust=True, min_slots=2),
                policy=InfeasiblePolicy.HOLD,
            )
        ),
        on_transition=ins.on_transition,
        on_restart=ins.on_restart,
        on_stale=ins.on_stale,
    )

    rng = np.random.default_rng(11)
    phases = [
        ("calm", 800, lambda i: 0.0),
        ("degraded", 1200, lambda i: 0.5 if i % 6 == 0 else 0.0),
        ("recovered", 1500, lambda i: 0.0),
    ]
    node = "demo-node"
    t = 0.0
    seq = 0
    for _name, count, extra in phases:
        for i in range(count):
            t += 0.1
            arrival = t + 0.02 + extra(i) + float(rng.normal(0.0, 0.002))
            # Classify right before the (possibly stalled) heartbeat lands:
            # that is when an overdue node looks most suspicious, which is
            # exactly the edge the audit plane grades.
            table.statuses(arrival - 1e-3)
            ins.record_heartbeat(node, seq, t, arrival)
            table.heartbeat(node, seq, arrival, send_time=t)
            seq += 1
            if seq % 100 == 0:
                ins.audit.collect(arrival)  # periodic scrape: breach edges
    ins.audit.collect(t)

    metrics = parse_prometheus(render_prometheus(ins.registry))
    return render_audit(
        metrics, ins.events.recent(), title="repro audit (demo)", trail=trail
    )


def cmd_audit(args: argparse.Namespace) -> None:
    import asyncio
    import json

    from repro.obs import http_get, parse_prometheus, render_audit

    if args.demo == (args.url is not None):
        raise SystemExit("give a scrape URL or --demo, not both (or neither)")

    if args.demo:
        print(_audit_demo(args.trail))
        return

    base = _metrics_url(args.url).rsplit("/metrics", 1)[0]
    status, body = asyncio.run(http_get(f"{base}/metrics", timeout=args.timeout))
    if status != 200:
        raise SystemExit(
            f"scrape of {base}/metrics failed: HTTP {status}: {body.strip()}"
        )
    events: list[dict] = []
    ev_status, ev_body = asyncio.run(
        http_get(f"{base}/events", timeout=args.timeout)
    )
    if ev_status == 200:
        events = [
            json.loads(line) for line in ev_body.splitlines() if line.strip()
        ]
    print(
        render_audit(
            parse_prometheus(body),
            events,
            title=f"repro audit ({args.url})",
            trail=args.trail,
        )
    )


def cmd_scan(args: argparse.Namespace) -> None:
    import math

    from repro.cluster import ClusterScan, NodeSpec

    specs = [
        NodeSpec(
            f"node-{i:03d}",
            crash_time=(args.horizon / 2 if i % 10 == 0 else math.inf),
            loss_rate=0.02 if i % 7 == 0 else 0.0,
            interval=0.2,
        )
        for i in range(args.nodes)
    ]
    scan = ClusterScan(specs, _detector_factory(args.detector), seed=args.seed)
    report = scan.run(horizon=args.horizon)
    counts = {k.value: v for k, v in report.counts().items()}
    print(f"scan of {args.nodes} nodes after {args.horizon}s: {counts}")
    print(f"accuracy vs ground truth: {report.accuracy * 100:.1f}%")
    if report.missed:
        print(f"missed: {sorted(report.missed)}")
    if report.false_suspects:
        print(f"false suspicions: {sorted(report.false_suspects)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the IPDPS'12 SFD experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, case_default: str | None = None):
        p.add_argument("--seed", type=int, default=2012)
        p.add_argument(
            "--scale",
            type=float,
            default=None,
            help="divide the published heartbeat count (default: REPRO_SCALE or 32)",
        )
        if case_default is not None:
            p.add_argument(
                "--case",
                default=case_default,
                help=f"WAN case ({', '.join(_PROFILES)})",
            )

    p = sub.add_parser("table1", help="Table I: WAN host pairs")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="Table II: regenerated trace statistics")
    common(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("figure", help="one figure pair (Figs. 6/7, 9/10 style)")
    common(p, case_default="WAN-1")
    p.add_argument(
        "--csv",
        default=None,
        metavar="DIR",
        help="also export each series as CSV into DIR (for plotting)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan the sweep out across N worker processes (0 = all cores)",
    )
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "run", help="config-driven experiment run (TOML plan, see docs/experiments.md)"
    )
    p.add_argument("config", help="experiments.toml path")
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (overrides [run] jobs; 1 = serial, 0 = all cores)",
    )
    p.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="curve archive directory (overrides [run] output)",
    )
    p.add_argument(
        "--no-archive",
        action="store_true",
        help="print curves only, write nothing",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: cache/ inside the archive dir)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="replay every job from scratch; neither read nor write the cache",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-job wall-clock ceiling in seconds (default: unbounded)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts per failing job, with exponential backoff",
    )
    p.add_argument(
        "--backoff",
        type=float,
        default=None,
        metavar="S",
        help="first-retry delay in seconds (doubles per retry, jittered)",
    )
    p.add_argument(
        "--on-failure",
        choices=("fail-fast", "continue"),
        default=None,
        help="fail-fast aborts on the first unrecoverable job (default); "
        "continue quarantines it and finishes the rest",
    )
    p.add_argument(
        "--allow-failures",
        action="store_true",
        help="exit 0 even when jobs were quarantined (default: exit 3)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue a killed run: completed jobs load from the cache, "
        "only missing grid points replay",
    )
    p.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only every N-th job (offset I, 0-based); partial curves "
        "land in shard-I-of-N/ and 'repro merge' reassembles the full set",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "merge",
        help="reassemble full curves from completed --shard runs' shared cache",
    )
    p.add_argument("config", help="experiments.toml path (same as the shards ran)")
    p.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="merged archive directory (default: the run's output directory)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared result cache (default: cache/ inside the output dir)",
    )
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("ablation-window", help="Section V-C window-size study")
    common(p, case_default="WAN-JAIST")
    p.add_argument("--sizes", type=int, nargs="+", default=[100, 500, 1000, 5000])
    p.set_defaults(func=cmd_ablation_window)

    p = sub.add_parser("convergence", help="SFD self-tuning trajectories")
    common(p, case_default="WAN-JAIST")
    p.add_argument("--sm1", type=float, nargs="+", default=[0.005, 1.8])
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser(
        "synth",
        help="write a calibrated synthetic trace (.npz, or columnar .bin)",
    )
    common(p, case_default="WAN-1")
    p.add_argument("-n", type=int, default=None, help="heartbeats to generate")
    p.add_argument(
        "-o",
        "--output",
        required=True,
        help="output path (.bin writes a columnar store, anything else .npz)",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "trace", help="convert and inspect trace files (columnar store)"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    tp = trace_sub.add_parser(
        "pack", help="convert a .npz/.csv trace into a columnar store"
    )
    tp.add_argument("input", help="source trace (.npz, .csv, or columnar)")
    tp.add_argument("output", help="destination columnar store")
    tp.add_argument("--name", default=None, help="override the trace name")
    tp.set_defaults(func=cmd_trace_pack)
    ti = trace_sub.add_parser(
        "info", help="print header, columns, metadata, and fingerprint"
    )
    ti.add_argument("file", help="trace file (columnar or .npz)")
    ti.set_defaults(func=cmd_trace_info)

    def detector_opt(p: argparse.ArgumentParser, default: str):
        p.add_argument(
            "--detector",
            default=default,
            metavar="SPEC",
            help=f"registry spec string, family:key=value,... (default {default!r})",
        )

    p = sub.add_parser(
        "consensus", help="FD-driven consensus with coordinator crashes (DES)"
    )
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("-n", type=int, default=5, help="group size")
    p.add_argument("--crashes", type=int, default=1)
    p.add_argument("--crash-at", type=float, default=2.0)
    p.add_argument("--horizon", type=float, default=60.0)
    detector_opt(p, "phi:threshold=4.0,window=10")
    p.set_defaults(func=cmd_consensus)

    p = sub.add_parser(
        "live", help="live UDP monitor with demo senders (bounded duration)"
    )
    p.add_argument("--nodes", type=int, default=3, help="demo sender count")
    p.add_argument("--interval", type=float, default=0.05, help="heartbeat period [s]")
    p.add_argument("--duration", type=float, default=5.0, help="run time [s]")
    p.add_argument("--poll", type=float, default=0.5, help="summary print period [s]")
    p.add_argument(
        "--crash-at",
        type=float,
        default=None,
        help="stop the first sender at this offset [s]",
    )
    detector_opt(p, "phi:threshold=4.0,window=10")
    p.set_defaults(func=cmd_live)

    p = sub.add_parser(
        "chaos", help="live UDP chaos drill: loss burst + sender crash/restart"
    )
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--interval", type=float, default=0.05)
    p.add_argument("--duration", type=float, default=12.0)
    p.add_argument("--burst-at", type=float, default=3.0)
    p.add_argument("--burst-len", type=float, default=2.0)
    p.add_argument("--crash-at", type=float, default=6.0)
    p.add_argument("--restart-at", type=float, default=8.0)
    detector_opt(p, "phi:threshold=2.0,window=32")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("metrics", help="scrape a repro Prometheus endpoint")
    p.add_argument("url", help="endpoint URL (host:port implies /metrics)")
    p.add_argument(
        "--json",
        action="store_true",
        help="print the parsed samples as JSON instead of raw text format",
    )
    p.add_argument("--timeout", type=float, default=5.0)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "top", help="live per-node dashboard over a scraped metrics endpoint"
    )
    p.add_argument("url", nargs="?", default=None, help="endpoint URL to scrape")
    p.add_argument(
        "--demo",
        action="store_true",
        help="spin up a self-contained instrumented monitor + senders to watch",
    )
    p.add_argument("--nodes", type=int, default=3, help="demo sender count")
    p.add_argument("--interval", type=float, default=1.0, help="refresh period [s]")
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="frames to render before exiting (default: forever)",
    )
    p.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of redrawing in place",
    )
    p.add_argument("--timeout", type=float, default=5.0)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "audit",
        help="QoS audit view: SLO status, SM trajectories, decision history",
    )
    p.add_argument("url", nargs="?", default=None, help="endpoint URL to scrape")
    p.add_argument(
        "--demo",
        action="store_true",
        help="run the offline regime-change scenario and audit it",
    )
    p.add_argument(
        "--trail",
        type=int,
        default=8,
        metavar="N",
        help="trailing SM(k) values to print per node (default 8)",
    )
    p.add_argument("--timeout", type=float, default=5.0)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("scan", help="PlanetLab-style cluster status scan (DES)")
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--nodes", type=int, default=120)
    p.add_argument("--horizon", type=float, default=60.0)
    detector_opt(p, "phi:threshold=3.0,window=40")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Returns the process exit code: 0 clean, 3 quarantined jobs
    (``repro run`` without ``--allow-failures``); hard failures raise
    :class:`SystemExit` with a message (exit code 1)."""
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    return rc or 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
