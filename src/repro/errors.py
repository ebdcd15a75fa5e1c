"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming from this package with a single ``except`` clause.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "UnknownNodeError",
    "NotWarmedUpError",
    "InfeasibleQoSError",
    "TraceFormatError",
    "SimulationError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """A parameter is outside its documented domain.

    Raised eagerly at construction time (e.g. a negative window size, a
    Chen safety margin below zero, a feedback gain outside ``(0, 1)``) so
    that misconfiguration surfaces where it happens instead of as a NaN in
    an experiment hours later.
    """


class UnknownNodeError(ConfigurationError, LookupError):
    """A node id was queried that the membership layer has never seen.

    Raised by lookups on :class:`~repro.cluster.sharded.ShardedMembershipTable`
    and the live-runtime query paths (``LiveMonitor.qos``,
    ``FailureDetectionService.peer_status``).  Status queries deliberately
    do *not* raise — an unknown node's status is
    :attr:`~repro.cluster.membership.NodeStatus.UNKNOWN`, since an open
    (auto-registering) monitor cannot distinguish "never existed" from
    "not heard from yet".  Subclasses :class:`ConfigurationError` so
    pre-existing ``except ConfigurationError`` callers keep working.
    """

    def __init__(self, node_id: str):
        super().__init__(f"unknown node {node_id!r}")
        self.node_id = node_id


class NotWarmedUpError(ReproError, RuntimeError):
    """A detector was queried before its sampling window filled.

    The paper (Section V) only evaluates detectors after the sliding window
    is full because "the network is unstable during the warm-up period".
    Streaming detectors raise this when asked for a freshness point or
    suspicion level before they have seen enough heartbeats.
    """


class InfeasibleQoSError(ReproError, RuntimeError):
    """The requested QoS cannot be met by this detector on this network.

    Mirrors Algorithm 1's "give a response" branch: the measured detection
    time already exceeds its bound *and* the accuracy requirement is also
    violated, so no safety-margin adjustment can satisfy both.  The error
    carries the offending measured QoS for diagnostics.
    """

    def __init__(self, message: str, *, measured=None, required=None):
        super().__init__(message)
        self.measured = measured
        self.required = required


class TraceFormatError(ReproError, ValueError):
    """A heartbeat trace file or array bundle is malformed."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""
