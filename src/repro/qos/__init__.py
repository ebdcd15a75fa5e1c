"""QoS metrics for failure detectors (Chen, Toueg & Aguilera, IEEE ToC 2002).

This subpackage implements the metric space the paper evaluates detectors
in: detection time ``TD``, mistake rate ``MR``, query accuracy probability
``QAP`` (Section II-C), plus the auxiliary mistake duration ``T_M`` and
mistake recurrence time ``T_MR`` of Fig. 3, the requirement algebra of the
self-tuning feedback loop (Fig. 4/5), and the "area covered in QoS space"
methodology used for the figure sweeps (Section V).
"""

from repro.qos.spec import QoSReport, QoSRequirements, Satisfaction, classify
from repro.qos.metrics import (
    MistakeAccumulator,
    qos_from_intervals,
    suspicion_intervals_from_freshness,
)
from repro.qos.area import QoSCurve, CurvePoint, dominates, pareto_front, covered_area
from repro.qos.planner import PlanResult, feasible_points, plan_from_curve, plan_chen_alpha

__all__ = [
    "QoSReport",
    "QoSRequirements",
    "Satisfaction",
    "classify",
    "MistakeAccumulator",
    "qos_from_intervals",
    "suspicion_intervals_from_freshness",
    "QoSCurve",
    "CurvePoint",
    "dominates",
    "pareto_front",
    "covered_area",
    "PlanResult",
    "feasible_points",
    "plan_from_curve",
    "plan_chen_alpha",
]
