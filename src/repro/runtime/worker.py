"""Module-level worker function executed by the sweep process pool.

Process pools pickle workers by reference, so :func:`run_point` must live at
module level and depend only on its picklable :class:`PointSpec` argument.
It is safe for every ``multiprocessing`` start method including ``spawn``:
the heavyweight imports happen inside the function, after the child
interpreter has fully initialized the package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.spec import PointSpec

if TYPE_CHECKING:  # pragma: no cover - runtime must not import bench at module scope
    from repro.bench.datasets import TimedPoint

__all__ = ["run_point"]


def run_point(spec: PointSpec) -> "TimedPoint":
    """Execute one benchmark point and return its timing.

    Runs the point through :func:`repro.bench.harness.run_spec`, which takes
    everything (cluster, ppn, engine, repetitions) from the spec, so each
    worker process builds its own simulator state.
    """
    from repro.bench.harness import run_spec  # deferred to break the import cycle

    return run_spec(spec)
