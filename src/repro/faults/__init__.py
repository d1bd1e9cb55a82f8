"""Deterministic fault injection for the simulated machine.

The paper's algorithm-selection story assumes a healthy machine; real
Table-1 systems run degraded — dragonfly global links fail or flap, and
per-node noise and stragglers perturb the phase bounds the analytic model
inherits.  This package makes those degradations first-class, *seeded*
simulation inputs:

* :class:`FaultSpec` — an immutable, JSON-serialisable composition of
  fault models (:class:`DegradedLink`, :class:`FlappingLink`,
  :class:`StragglerNode`, :class:`OsNoise`) plus a seed for the noise
  streams.  It participates in :class:`repro.runtime.PointSpec` cache
  identity (omitted when empty, so existing cache keys survive).
* :func:`parse_faults` — the ``--faults`` CLI grammar.
* :mod:`repro.faults.apply` — applies a spec to the materialised
  simulation state (fabric links, NIC scaling, noise streams).

The determinism contract: every fault draw is a pure function of
``(FaultSpec, seed, rank/link)``, independent of ``--jobs``; an
empty/absent spec is bit-identical to a build
without this package (see docs/FAULTS.md).
"""

from repro.faults.spec import (
    DegradedLink,
    FaultSpec,
    FlappingLink,
    OsNoise,
    StragglerNode,
    faults_from_payload,
    parse_faults,
)

__all__ = [
    "DegradedLink",
    "FaultSpec",
    "FlappingLink",
    "OsNoise",
    "StragglerNode",
    "faults_from_payload",
    "parse_faults",
]
