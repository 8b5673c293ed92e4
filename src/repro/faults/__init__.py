"""Fault injection and resilience analysis (``repro.faults``).

Turns the paper's path-diversity argument into a measurable quantity:
a deterministic :class:`FaultModel` describes permanent link failures,
:meth:`FaultModel.sample` instantiates it against a topology as a
:class:`FaultSet`, :class:`FaultedTopologyView` answers structural
connectivity questions, and the ``FaultAware*`` routing wrappers steer
each algorithm around the failed links (or report a terminal pair
undeliverable when its path discipline cannot).  See
``docs/FAULTS.md`` for semantics and the determinism guarantees.
"""

from .model import FaultModel, FaultSet
from .routing import (
    FaultAwareDestinationTag,
    FaultAwareFoldedClosAdaptive,
    FaultAwareMinimalAdaptive,
    FaultAwareUGAL,
)
from .view import FaultedTopologyView

__all__ = [
    "FaultModel",
    "FaultSet",
    "FaultAwareDestinationTag",
    "FaultAwareFoldedClosAdaptive",
    "FaultAwareMinimalAdaptive",
    "FaultAwareUGAL",
    "FaultedTopologyView",
]
