"""Discrete-event simulator: engine, processes, crash detection."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.detectors import ChenFD, FixedTimeoutFD, PhiFD
from repro.net import ConstantDelay, NormalDelay, BernoulliLoss
from repro.sim import (
    CrashPlan,
    HeartbeatSender,
    MonitorProcess,
    SimLink,
    Simulator,
)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0
        assert sim.processed == 3

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        log = []
        for tag in "xyz":
            sim.schedule(1.0, lambda t=tag: log.append(t))
        sim.run()
        assert log == ["x", "y", "z"]

    def test_until_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run(until=2.0)
        assert log == [1]
        assert sim.now == 2.0
        assert sim.pending() == 1

    def test_cancel(self):
        sim = Simulator()
        log = []
        ev = sim.schedule(1.0, lambda: log.append(1))
        Simulator.cancel(ev)
        sim.run()
        assert log == []

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_nonfinite_time_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulator().schedule(math.inf, lambda: None)

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.1, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_self_scheduling_process(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 5:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert ticks == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestCrashPlan:
    def test_never(self):
        p = CrashPlan.never()
        assert not p.crashes
        assert p.alive_at(1e12)

    def test_at(self):
        p = CrashPlan.at(5.0)
        assert p.crashes
        assert p.alive_at(4.999)
        assert not p.alive_at(5.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrashPlan(-1.0)


class TestSimLink:
    def test_delivery_with_delay(self):
        sim = Simulator()
        got = []
        link = SimLink(
            sim, ConstantDelay(0.25), deliver=lambda p: got.append((sim.now, p))
        )
        sim.schedule(1.0, lambda: link.send("hello"))
        sim.run()
        assert got == [(1.25, "hello")]

    def test_loss_accounting(self):
        sim = Simulator()
        got = []
        link = SimLink(
            sim,
            ConstantDelay(0.01),
            BernoulliLoss(0.5),
            rng=np.random.default_rng(1),
            deliver=lambda p: got.append(p),
        )
        for i in range(1000):
            sim.schedule(i * 0.01, lambda i=i: link.send(i))
        sim.run()
        assert link.sent == 1000
        assert link.lost == 1000 - len(got)
        assert 0.4 < link.loss_rate < 0.6


class TestHeartbeatEndToEnd:
    def build(self, *, crash=math.inf, detector=None, loss=0.0, seed=0):
        sim = Simulator()
        rng = np.random.default_rng(seed)
        plan = CrashPlan(crash)
        det = detector if detector is not None else ChenFD(0.05, window_size=50)
        mon = MonitorProcess(sim, det, ground_truth=plan)
        link = SimLink(
            sim,
            NormalDelay(0.02, 0.003, minimum=0.005),
            BernoulliLoss(loss) if loss else None,
            rng=rng,
            deliver=mon.deliver,
        )
        snd = HeartbeatSender(
            sim, link, interval=0.1, jitter_std=0.01, crash=plan, rng=rng
        )
        return sim, mon, snd

    def test_sender_cadence(self):
        sim, mon, snd = self.build()
        sim.run(until=10.0)
        assert snd.next_seq == pytest.approx(100, abs=10)
        assert mon.finish().heartbeats > 80

    def test_crash_stops_sending(self):
        sim, mon, snd = self.build(crash=5.0)
        sim.run(until=20.0)
        assert snd.next_seq <= 55

    def test_detection_time_measured_against_ground_truth(self):
        sim, mon, _ = self.build(crash=30.0)
        sim.run(until=40.0)
        rep = mon.finish()
        # Crash at t=30; Chen with alpha=0.05 should detect within ~0.3 s.
        assert 0.0 < rep.detection_time < 1.0
        assert rep.transitions[-1][1] is True  # final state: suspecting

    def test_no_crash_means_nan_detection(self):
        sim, mon, _ = self.build()
        sim.run(until=20.0)
        assert math.isnan(mon.finish().detection_time)

    def test_live_suspects_query(self):
        sim, mon, _ = self.build(crash=10.0)
        sim.run(until=9.0)
        assert not mon.suspects_now()
        sim.run(until=15.0)
        assert mon.suspects_now()

    def test_wrong_suspicions_counted_for_aggressive_detector(self):
        sim, mon, _ = self.build(detector=FixedTimeoutFD(0.101), loss=0.05, seed=4)
        sim.run(until=60.0)
        rep = mon.finish()
        assert rep.qos.mistakes > 0
        assert rep.qos.query_accuracy < 1.0

    def test_stale_heartbeats_dropped(self):
        sim = Simulator()
        mon = MonitorProcess(sim, FixedTimeoutFD(1.0))
        from repro.sim.process import Heartbeat

        sim.schedule(0.0, lambda: mon.deliver(Heartbeat(0, 0.0)))
        sim.schedule(0.1, lambda: mon.deliver(Heartbeat(2, 0.05)))
        sim.schedule(0.2, lambda: mon.deliver(Heartbeat(1, 0.02)))  # stale
        sim.run()
        rep = mon.finish()
        assert rep.stale_dropped == 1
        assert rep.heartbeats == 2

    def test_accrual_detector_hosted(self):
        sim, mon, _ = self.build(detector=PhiFD(3.0, window_size=50), crash=30.0)
        sim.run(until=40.0)
        rep = mon.finish()
        assert rep.detection_time > 0.0

    def test_sender_validation(self):
        sim = Simulator()
        link = SimLink(sim, ConstantDelay(0.01))
        with pytest.raises(ConfigurationError):
            HeartbeatSender(sim, link, interval=0.0)
        with pytest.raises(ConfigurationError):
            HeartbeatSender(sim, link, interval=0.1, jitter_std=-1.0)

