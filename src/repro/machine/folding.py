"""Symmetry-folded process maps: simulate one node, stand in for all.

The paper's Table-1 machines run at >100k ranks; a direct simulation of a
uniform all-to-all at that scale needs O(ranks^2) messages and is far out of
reach.  Under node-rotation symmetry — the traffic matrix is invariant under
rotating every rank by one node (``ppn`` positions) and the machine itself
is node-transitive — every rank is role-equivalent to the rank with the same
*local* index on node 0.  A :class:`FoldedProcessMap` exposes the full
logical geometry (``nprocs`` ranks on ``num_nodes`` nodes, so algorithms are
byte-for-byte unchanged) while telling the engine to schedule only the
``ppn`` *representative* ranks of node 0, each standing in for its
equivalence class of ``num_nodes`` ranks.

Mirrors
-------
The folded timeline is closed under one substitution.  When a representative
sends to a *phantom* destination (a rank outside node 0), the message that
would have arrived at node 0 in the full run is the send's **mirror**: the
rotation of the (src, dst) pair that places the destination back on node 0.
For ``mirror = rotate by (num_nodes - node(dst))`` the mirror source is the
phantom rank whose role the representative plays, and the mirror destination
is a representative.  Delivering the mirror of every outbound representative
send reconstructs node 0's inbound message stream exactly — same shapes,
same posting times, same matching order — which is what makes the folded
timings bit-identical to the full run on node-transitive machines (see
``docs/ARCHITECTURE.md``, *Symmetry folding*).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError
from repro.machine.process_map import ProcessMap

__all__ = [
    "FOLD_MODES",
    "FoldCertificate",
    "FoldedProcessMap",
    "fold_process_map",
    "uniform_certificate",
]

#: Accepted values of the ``fold`` parameter / ``--fold`` CLI option:
#: ``off`` simulates every rank, ``auto`` folds when the traffic and fabric
#: allow it, ``on`` demands a fold.
FOLD_MODES = ("off", "auto", "on")


@dataclass(frozen=True)
class FoldCertificate:
    """Compact record of *why* the ranks of a job are interchangeable.

    Produced either by the symmetry analyzer
    (:func:`repro.workloads.symmetry.analyze_symmetry`) for explicit traffic
    matrices, or synthesised directly for the uniform exchange whose
    invariance holds by construction.  Stored on the folded process map and
    surfaced through :attr:`repro.simmpi.engine.JobResult.fold` so results
    always say what symmetry they assumed.
    """

    #: Traffic-pattern family: ``uniform``, ``block-diagonal``,
    #: ``neighbor-shift``, ``per-node-leader`` or ``node-cyclic``.
    kind: str
    #: Human-readable proof sketch of the invariance.
    detail: str

    def describe(self) -> str:
        return f"{self.kind}: {self.detail}"


def uniform_certificate(nprocs: int, ppn: int) -> FoldCertificate:
    """Certificate for the uniform exchange (invariant under any rotation)."""
    return FoldCertificate(
        kind="uniform",
        detail=(
            f"uniform all-to-all: every one of the {nprocs} ranks sends the same "
            f"bytes to every peer, so the traffic matrix is invariant under the "
            f"rank rotation by ppn={ppn} and ranks sharing a local index are "
            f"role-equivalent"
        ),
    )


@dataclass(frozen=True)
class FoldedProcessMap(ProcessMap):
    """A :class:`ProcessMap` whose engine-side timeline is node-folded.

    Logically identical to the unfolded map — ``nprocs``, locality queries
    and rank groupings all describe the full machine, so algorithm code
    cannot tell the difference.  The engine consults :attr:`is_folded` /
    :attr:`sim_nprocs` to schedule only the representatives (node 0's
    ranks) and uses :meth:`mirror_inbound` / :meth:`mirror_outbound` to
    substitute phantom traffic by its node-0 mirror.
    """

    #: Why folding is sound for the traffic this map will carry.
    certificate: FoldCertificate | None = None

    is_folded = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_nodes < 1:
            raise TopologyError("folding requires at least one node")

    # -- folded geometry --------------------------------------------------
    @property
    def sim_nodes(self) -> int:
        """Number of nodes the engine actually schedules (node 0 only)."""
        return 1

    @property
    def sim_nprocs(self) -> int:
        """Number of ranks the engine actually schedules (the representatives)."""
        return self.ppn

    @property
    def multiplicity(self) -> int:
        """Class size: how many logical ranks each representative stands for."""
        return self.num_nodes

    @property
    def representatives(self) -> tuple[int, ...]:
        """The simulated ranks — node 0's ranks, one per equivalence class."""
        return tuple(range(self.ppn))

    # -- mirror maps -------------------------------------------------------
    def mirror_inbound(self, src: int, dst: int) -> tuple[int, int]:
        """Mirror of a representative send ``src -> dst`` (``dst`` off-node).

        Returns ``(mirror_src, mirror_dst)``: the unique rotation of the
        pair that lands the destination on node 0.  ``mirror_dst`` is a
        representative; ``mirror_src`` is the phantom peer whose send the
        representative's payload stands in for.
        """
        ppn = self.ppn
        shift = (self.num_nodes - dst // ppn) * ppn
        return src + shift, dst % ppn

    def mirror_outbound(self, mirror_src: int, mirror_dst: int) -> tuple[int, int]:
        """Inverse of :meth:`mirror_inbound`.

        Recovers the original representative pair from a mirrored inbound
        message — used by the rendezvous path to price the data transfer on
        node 0's NIC, which carries exactly the reservations of the full
        run.
        """
        ppn = self.ppn
        shift = (self.num_nodes - mirror_src // ppn) * ppn
        return mirror_src % ppn, mirror_dst + shift

    def unfolded(self) -> ProcessMap:
        """The equivalent full (unfolded) process map."""
        return ProcessMap(self.cluster, ppn=self.ppn, num_nodes=self.num_nodes)

    def describe(self) -> str:
        return (
            f"{super().describe()} [folded: {self.sim_nprocs} representative ranks "
            f"x multiplicity {self.multiplicity}]"
        )


def fold_process_map(pmap: ProcessMap, certificate: FoldCertificate | None = None) -> FoldedProcessMap:
    """Folded view of ``pmap`` (idempotent for already-folded maps)."""
    if pmap.is_folded:
        return pmap  # type: ignore[return-value]
    return FoldedProcessMap(
        cluster=pmap.cluster,
        ppn=pmap.ppn,
        num_nodes=pmap.num_nodes,
        certificate=certificate,
    )
