"""Streaming failure detectors and their shared substrate.

This subpackage hosts the event-driven (one heartbeat at a time)
implementations of every detector the paper evaluates:

* :class:`~repro.detectors.chen.ChenFD` — Chen, Toueg & Aguilera's
  estimator with a constant safety margin (Eqs. 2-3),
* :class:`~repro.detectors.bertier.BertierFD` — Chen's estimator with a
  Jacobson-style dynamic safety margin (Eqs. 4-8),
* :class:`~repro.detectors.phi.PhiFD` — the φ accrual detector of
  Hayashibara et al. (Eqs. 9-10),
* :class:`~repro.detectors.fixed.FixedTimeoutFD` — the naive fixed
  freshness-interval baseline of Section II-B,
* :class:`~repro.detectors.quantile.QuantileFD` — the nonparametric
  self-tuned-timeout family the paper cites as [34-35],
* :class:`~repro.detectors.ml.MLFD` — a learned baseline: online NLMS
  arrival prediction with a jitter-scaled margin (Li & Marin, PAPERS.md),

plus the sliding sample window, arrival-time estimators, and loss
gap-filling they share.  The paper's own contribution, SFD, lives in
:mod:`repro.core` and builds on the same substrate.

Streaming detectors are the *semantic reference*: the vectorized replay
engine in :mod:`repro.replay` is property-tested to reproduce their
freshness points exactly.
"""

from repro.detectors.base import FailureDetector, TimeoutFailureDetector
from repro.detectors.window import SampleWindow, SortedWindow, HeartbeatWindow
from repro.detectors.estimation import (
    ChenEstimator,
    JacobsonEstimator,
    GapFiller,
)
from repro.detectors.chen import ChenFD
from repro.detectors.bertier import BertierFD
from repro.detectors.phi import PhiFD, phi_equivalent_timeout
from repro.detectors.fixed import FixedTimeoutFD
from repro.detectors.quantile import QuantileFD
from repro.detectors.ml import MLFD, OnlineArrivalPredictor

def __getattr__(name):
    # `repro.detectors.registry` sits above the replay layer (it binds the
    # replay specs and kernels into family descriptors), so it is resolved
    # lazily: importing it eagerly here would pull replay into every
    # detectors import and close an import cycle.
    if name == "registry":
        import importlib

        return importlib.import_module("repro.detectors.registry")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "registry",
    "FailureDetector",
    "TimeoutFailureDetector",
    "SampleWindow",
    "SortedWindow",
    "HeartbeatWindow",
    "ChenEstimator",
    "JacobsonEstimator",
    "GapFiller",
    "ChenFD",
    "BertierFD",
    "PhiFD",
    "phi_equivalent_timeout",
    "FixedTimeoutFD",
    "QuantileFD",
    "MLFD",
    "OnlineArrivalPredictor",
]
