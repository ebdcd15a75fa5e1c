"""Observability spine: registry, events, exposition, instruments.

Includes the acceptance path: a LiveMonitor wired with Instruments, fed by
a real UDP sender, scraped over HTTP in Prometheus text format, with the
scraped series checked for consistency against the membership table.
"""

import asyncio
import json
import math
import random
from bisect import bisect_left

import pytest

from repro.cluster.membership import NodeStatus
from repro.core.sfd import SFD, SlotConfig
from repro.detectors import PhiFD
from repro.errors import ConfigurationError, UnknownNodeError
from repro.obs import (
    CONTENT_TYPE,
    EventLog,
    Histogram,
    Instruments,
    MetricsRegistry,
    MetricsServer,
    NullRegistry,
    http_get,
    log_buckets,
    parse_prometheus,
    render_prometheus,
    render_top,
)
from repro.qos.spec import QoSRequirements
from repro.runtime import LiveMonitor, UDPHeartbeatSender


@pytest.fixture()
def run():
    def _run(coro):
        return asyncio.run(coro)

    return _run


class TestRegistry:
    def test_counter_and_gauge(self):
        r = MetricsRegistry()
        c = r.counter("hb_total", "heartbeats")
        c.inc()
        c.inc(2.5)
        assert c.get() == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1)
        g = r.gauge("nodes", "node count")
        g.set(4)
        g.dec()
        assert g.get() == 3.0

    def test_labeled_family_caches_children(self):
        r = MetricsRegistry()
        fam = r.counter("hb", "per node", labels=("node",))
        fam.labels("a").inc()
        fam.labels("a").inc()
        fam.labels("b").inc()
        assert fam.labels("a").get() == 2.0
        assert fam.labels("b").get() == 1.0
        assert fam.labels("a") is fam.labels("a")
        # unlabeled convenience is rejected on labeled families
        with pytest.raises(ConfigurationError):
            fam.inc()

    def test_idempotent_registration_and_kind_clash(self):
        r = MetricsRegistry()
        a = r.counter("x_total", "x")
        b = r.counter("x_total", "x")
        assert a is b
        with pytest.raises(ConfigurationError):
            r.gauge("x_total", "x")

    def test_invalid_names_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            r.counter("bad name", "nope")
        with pytest.raises(ConfigurationError):
            r.counter("ok_total", "bad label", labels=("not ok",))

    def test_snapshot_and_delta(self):
        r = MetricsRegistry()
        c = r.counter("c_total", "c")
        h = r.histogram("h_seconds", "h", buckets=log_buckets(0.001, 1.0))
        c.inc(5)
        h.observe(0.01)
        s1 = r.snapshot()
        c.inc(2)
        h.observe(0.02)
        s2 = r.snapshot()
        d = s2.delta(s1)
        assert d.get("c_total") == 2.0
        assert d.get("h_seconds").count == 1
        assert s2.get("missing", default="x") == "x"

    def test_collectors_run_at_snapshot_time(self):
        r = MetricsRegistry()
        g = r.gauge("live", "refreshed at scrape")
        pulls = []
        r.add_collector(lambda: (pulls.append(1), g.set(len(pulls)))[0])
        assert r.snapshot().get("live") == 1.0
        assert r.snapshot().get("live") == 2.0
        assert r.snapshot(run_collectors=False).get("live") == 2.0

    def test_null_registry_is_inert(self):
        r = NullRegistry()
        fam = r.counter("x_total", "x", labels=("node",))
        fam.labels("a").inc()
        fam.observe(3.0)
        fam.set(1.0)
        assert fam.get() == 0.0
        assert r.families() == []
        assert r.snapshot().values == {}


class TestHistogram:
    def test_geometric_index_matches_bisect(self):
        bounds = log_buckets(1e-4, 100.0, per_decade=3)
        h = Histogram(bounds)
        rng = random.Random(7)
        values = [10 ** rng.uniform(-5, 3) for _ in range(5000)]
        values += list(bounds)  # exact edges: the fix-up's worst case
        values += [b * (1 + 1e-12) for b in bounds[:-1]]
        for v in values:
            h.observe(v)
        ref = [0] * (len(bounds) + 1)
        for v in values:
            if v <= bounds[0]:
                ref[0] += 1
            elif v > bounds[-1]:
                ref[-1] += 1
            else:
                ref[bisect_left(bounds, v)] += 1
        assert h.counts == ref
        assert h.count == len(values)
        assert h.sum == pytest.approx(sum(values))

    def test_cumulative_view(self):
        h = Histogram((1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        val = h.get()
        assert val.counts == (1, 1, 1, 1)
        assert val.cumulative() == (1, 2, 3)

    def test_non_geometric_bounds_use_bisect(self):
        h = Histogram((1.0, 2.0, 10.0))  # ratios differ -> no log path
        assert math.isnan(h._log_lo)
        h.observe(1.5)
        h.observe(9.0)
        assert h.counts == [0, 1, 1, 0]

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram(())
        with pytest.raises(ConfigurationError):
            Histogram((1.0, 1.0))


class TestEventLog:
    def test_ring_buffer_evicts_oldest(self):
        log = EventLog(capacity=3, clock=lambda: 1.0)
        for i in range(5):
            log.emit("hb", seq=i)
        assert len(log) == 3
        assert [e["seq"] for e in log.recent()] == [2, 3, 4]
        assert log.emitted == 5

    def test_kind_filter_and_json_lines(self):
        log = EventLog(clock=lambda: 2.0)
        log.emit("hb", node="a", suspicion=math.nan)
        log.emit("transition", node="a")
        assert [e["kind"] for e in log.recent(kind="hb")] == ["hb"]
        lines = log.to_json_lines().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]  # strict JSON
        assert parsed[0]["suspicion"] is None  # NaN sanitized

    def test_zero_capacity_is_noop(self):
        log = EventLog(0)
        log.emit("hb")
        assert len(log) == 0
        assert log.recent() == []


class TestExposition:
    def test_render_parse_round_trip(self):
        r = MetricsRegistry()
        r.counter("hb_total", "heartbeats", labels=("node",)).labels("a").inc(3)
        r.gauge("up", "liveness").set(1)
        h = r.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(r)
        assert "# TYPE hb_total counter" in text
        assert '# TYPE lat_seconds histogram' in text
        pm = parse_prometheus(text)
        assert pm.value("hb_total", node="a") == 3.0
        assert pm.value("up") == 1.0
        assert pm.value("lat_seconds_bucket", le="0.1") == 1.0
        assert pm.value("lat_seconds_bucket", le="+Inf") == 3.0
        assert pm.value("lat_seconds_count") == 3.0
        assert pm.value("lat_seconds_sum") == pytest.approx(5.55)
        assert pm.value("nope", default=-1.0) == -1.0

    def test_server_routes(self, run):
        async def main():
            r = MetricsRegistry()
            r.counter("x_total", "x").inc()
            events = EventLog()
            events.emit("hb", node="a")
            server = MetricsServer(r, events=events)
            await server.start()
            base = server.url.rsplit("/metrics", 1)[0]
            metrics = await http_get(server.url)
            ev = await http_get(base + "/events")
            health = await http_get(base + "/healthz")
            missing = await http_get(base + "/nope")
            await server.stop()
            return metrics, ev, health, missing

        (ms, mb), (es, eb), (hs, _), (ns, _) = run(main())
        assert ms == 200 and "x_total 1" in mb
        assert es == 200 and json.loads(eb.splitlines()[0])["kind"] == "hb"
        assert hs == 200
        assert ns == 404
        assert "version=0.0.4" in CONTENT_TYPE


class TestInstruments:
    def test_null_instruments_cost_nothing_and_crash_nothing(self):
        ins = Instruments.null()
        ins.on_datagram()
        ins.record_heartbeat("a", 0, None, 1.0)
        ins.on_transition("a", NodeStatus.UNKNOWN, NodeStatus.ACTIVE, 1.0)
        ins.on_fault("drop")
        assert len(ins.events) == 0
        assert ins.registry.families() == []

    def test_fault_fates(self):
        ins = Instruments()
        ins.on_fault("deliver")
        ins.on_fault("drop")
        ins.on_fault("burst-drop")
        ins.on_fault("truncate+corrupt")
        snap = ins.registry.snapshot(run_collectors=False)
        assert snap.get("repro_injector_datagrams_total", "forwarded") == 2.0
        assert snap.get("repro_injector_datagrams_total", "dropped") == 2.0
        assert snap.get("repro_faults_injected_total", "truncate") == 1.0
        assert snap.get("repro_faults_injected_total", "corrupt") == 1.0

    def test_replay_hook(self):
        ins = Instruments()
        ins.record_replay("chen", 1000, 0.5)
        snap = ins.registry.snapshot(run_collectors=False)
        assert snap.get("repro_replay_heartbeats_total", "chen") == 1000.0
        assert ins.events.recent(kind="replay")[0]["rate"] == pytest.approx(2000.0)

    def test_sfd_slot_hook_via_detector(self):
        req = QoSRequirements(
            max_detection_time=5.0, max_mistake_rate=10.0, min_query_accuracy=0.0
        )
        ins = Instruments()
        build = ins.wrap_detector_factory(
            lambda nid: SFD(req, window_size=4, slot=SlotConfig(heartbeats=5))
        )
        det = build("n1")
        for i in range(40):
            det.observe(i, i * 0.1)
        snap = ins.registry.snapshot(run_collectors=False)
        slots = snap.get("repro_sfd_slots_total", "n1")
        assert slots and slots > 0
        assert snap.get("repro_sfd_safety_margin_trajectory_seconds", "n1").count == slots
        assert snap.get("repro_sfd_target_detection_time_seconds", "n1") == 5.0
        assert ins.events.recent(kind="sfd_slot")


class TestMembershipObservers:
    def test_transition_restart_and_stale_callbacks(self):
        from repro.cluster.sharded import ShardedMembershipTable

        seen = {"trans": [], "restarts": [], "stale": []}
        table = ShardedMembershipTable(
            lambda nid: PhiFD(2.0, window_size=4),
            reorder_window=2,
            on_transition=lambda n, old, new, at: seen["trans"].append((n, old, new)),
            on_restart=lambda n, r: seen["restarts"].append((n, r)),
            on_stale=lambda n, s, newest: seen["stale"].append((n, s, newest)),
        )
        for i in range(8):
            table.heartbeat("a", i, i * 1.0)
        assert (("a", NodeStatus.UNKNOWN, NodeStatus.ACTIVE) in seen["trans"])
        table.heartbeat("a", 6, 8.5)  # within reorder window: stale
        assert seen["stale"] == [("a", 6, 7)]
        table.heartbeat("a", 0, 9.0)  # past the window: restart
        assert seen["restarts"] == [("a", 1)]
        # querying long after silence surfaces the suspicion edge
        statuses = table.statuses(500.0)
        assert statuses["a"] is not NodeStatus.ACTIVE

    def test_unknown_node_error_on_lookup(self):
        from repro.cluster.sharded import ShardedMembershipTable

        table = ShardedMembershipTable(lambda nid: PhiFD(2.0, window_size=4))
        with pytest.raises(UnknownNodeError):
            table.node("ghost")
        with pytest.raises(ConfigurationError):  # back-compat alias
            table.node("ghost")
        assert table.status_of("ghost", 0.0) is NodeStatus.UNKNOWN


class TestAcceptance:
    def test_live_monitor_scrape_consistency(self, run):
        """The tentpole end-to-end: instrumented LiveMonitor + SFD + real
        UDP sender, scraped over HTTP; heartbeat, transition, and SM-
        trajectory series must be present and consistent with the table."""

        async def main():
            req = QoSRequirements(
                max_detection_time=1.0, max_mistake_rate=5.0, min_query_accuracy=0.0
            )
            ins = Instruments(trace_heartbeats=True)
            monitor = LiveMonitor(
                lambda nid: SFD(req, window_size=8, slot=SlotConfig(heartbeats=10)),
                instruments=ins,
            )
            await monitor.start()
            sender = UDPHeartbeatSender(
                "node-a", monitor.address, interval=0.01, instruments=ins
            )
            await sender.start()
            for _ in range(200):  # ~2s budget for 40+ heartbeats
                await asyncio.sleep(0.01)
                if monitor.received >= 45:
                    break
            server = MetricsServer(ins.registry, events=ins.events)
            await server.start()
            # Freeze the stream before scraping: a sender still running
            # while ``http_get`` awaits lets the listener count heartbeats
            # after the body was rendered and before the table is read.
            await sender.stop()
            for _ in range(200):  # drain what is already in flight
                if monitor.received >= sender.sent:
                    break
                await asyncio.sleep(0.005)
            status, body = await http_get(server.url)
            state = monitor.table.node("node-a")
            table_total = state.heartbeats + state.stale_dropped
            await monitor.stop()
            await server.stop()
            return status, body, table_total, ins

        status, body, table_total, ins = run(main())
        assert status == 200
        pm = parse_prometheus(body)

        # Heartbeat series: every accepted-or-stale datagram was counted.
        assert pm.value("repro_heartbeats_received_total", node="node-a") == table_total
        assert pm.value("repro_listener_datagrams_total") >= table_total
        sent = pm.value("repro_sender_heartbeats_sent_total", node="node-a")
        assert sent and sent >= table_total

        # Transition series: warm-up produced the UNKNOWN -> ACTIVE edge,
        # mirrored in both the counter and the event log.
        assert (
            pm.value(
                "repro_node_transitions_total",
                node="node-a",
                **{"from": "unknown", "to": "active"},
            )
            == 1.0
        )
        assert any(
            e["node"] == "node-a" and e["to"] == "active"
            for e in ins.events.recent(kind="transition")
        )

        # Scrape-time gauges agree with the table's view.
        assert pm.value("repro_node_status", node="node-a") == 1.0  # ACTIVE
        assert pm.value("repro_monitor_nodes") == 1.0
        assert pm.value("repro_nodes_by_status", status="active") == 1.0

        # SM trajectory: the SFD feedback loop exported at least one slot,
        # and the histogram's count matches the slot counter.
        slots = pm.value("repro_sfd_slots_total", node="node-a")
        assert slots and slots >= 1
        assert (
            pm.value(
                "repro_sfd_safety_margin_trajectory_seconds_count", node="node-a"
            )
            == slots
        )
        assert pm.value("repro_sfd_safety_margin_seconds", node="node-a") is not None
        assert pm.value("repro_sfd_target_detection_time_seconds", node="node-a") == 1.0

        # Per-heartbeat trace events carry the full lifecycle context.
        hb_events = ins.events.recent(kind="heartbeat")
        assert hb_events
        assert {"node", "seq", "send_time", "arrival", "freshness", "verdict"} <= set(
            hb_events[-1]
        )

        # The console renderer consumes the same scrape.
        frame = render_top(pm)
        assert "node-a" in frame and "active" in frame
