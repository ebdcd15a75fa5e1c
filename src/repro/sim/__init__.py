"""Discrete-event simulation of the heartbeat system model (Fig. 2).

The trace replay of :mod:`repro.replay` evaluates detectors against logged
arrivals; this subpackage closes the remaining gap to a *live* system: a
deterministic event-driven simulator with heartbeat sender processes,
monitor processes hosting any detector, unreliable channels built from the
:mod:`repro.net` models, and crash injection (the paper's crash-stop
fault model: "a crashed process does not recover").

It is the substrate for end-to-end detection-time measurements (crash →
permanent suspicion) that replay alone cannot produce, and for the cluster
scenarios of :mod:`repro.cluster`.
"""

from repro.sim.engine import Simulator
from repro.sim.process import HeartbeatSender, MonitorProcess, MonitorReport
from repro.sim.crash import CrashPlan
from repro.sim.network import SimLink

__all__ = [
    "Simulator",
    "HeartbeatSender",
    "MonitorProcess",
    "MonitorReport",
    "CrashPlan",
    "SimLink",
]
