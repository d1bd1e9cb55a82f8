"""Inter-node fabric topologies with per-link bandwidth-sharing contention.

Upstream of :mod:`repro.simmpi`: the timing model consults the fabric for
every inter-node message; downstream of :mod:`repro.machine`, whose
:class:`~repro.machine.cluster.Cluster` carries a fabric *specification*.

Until this module existed, every inter-node message paid only the sender's
NIC injection plus a contention-free ``alpha + n * beta`` wire term — two
nodes never shared a link, so a fat-tree and a dragonfly were
indistinguishable and incast traffic showed no congestion at all.  The
fabric layer closes that gap with a deliberately small model:

* a **specification** (:class:`FullBisectionFabric`, :class:`FatTreeFabric`,
  :class:`DragonflyFabric`) is a frozen, picklable, JSON-serializable value
  that lives on the :class:`~repro.machine.cluster.Cluster` and is part of
  every benchmark point's cache identity;
* ``spec.build(num_nodes, params)`` materialises the runtime
  :class:`FabricState`: the concrete shared links (each a
  :class:`~repro.netsim.resources.SerialResource`) and a precomputed route —
  a tuple of links — for every ordered node pair;
* the timing model calls :meth:`FabricState.traverse` *after* NIC
  injection: the message reserves each link of its route in order (FIFO,
  the same available-at discipline as the NIC), each hop occupying the link
  for ``hop_overhead + nbytes / link_bandwidth`` seconds.  Contention is
  therefore queueing delay on shared links, computed in O(route length) =
  O(1) per message — the PR 4 hot-path budget is preserved.

The default :class:`FullBisectionFabric` builds **no** state at all
(``build`` returns ``None``): the timing model keeps its original inlined
arithmetic, so default simulated timings are bit-identical to the pinned
golden fixture.  A fat-tree with ``oversubscription <= 1`` is rearrangeably
non-blocking and likewise builds no state, which is what makes the
``oversubscription=1 == full-bisection`` identity exact rather than
approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigurationError, SimulationError
from repro.netsim.resources import SerialResource

__all__ = [
    "FabricSpec",
    "FullBisectionFabric",
    "FatTreeFabric",
    "DragonflyFabric",
    "FabricState",
    "FoldedFabricView",
    "FABRIC_KINDS",
    "parse_fabric",
    "fabric_from_payload",
    "list_fabrics",
]


# ---------------------------------------------------------------------------
# Runtime state
# ---------------------------------------------------------------------------


class _Link:
    """One shared fabric link: a FIFO serial resource with a byte rate.

    ``byte_time`` is ``1 / bandwidth`` and ``hop_overhead`` the per-message
    switch processing cost, both precomputed so a traversal hop is two
    multiplies and a comparison on the hot path.

    Besides the :class:`~repro.netsim.resources.SerialResource` accounting
    (reservations, busy time), each link accumulates the bytes it moved and
    the queueing delay messages spent waiting behind earlier traffic —
    ``queued_time`` is the link's time-at-saturation proxy and
    ``max_queue_delay`` its worst single-message stall.

    ``flap`` is ``None`` on a healthy link; fault injection
    (:mod:`repro.faults.apply`) installs a ``(period, on_window, phase)``
    tuple that :meth:`FabricState.traverse` honours by stalling messages
    whose transmission would begin in an off-window.
    """

    __slots__ = ("name", "byte_time", "hop_overhead", "resource",
                 "bytes_moved", "queued_time", "max_queue_delay", "flap")

    def __init__(self, name: str, bandwidth: float, hop_overhead: float) -> None:
        if bandwidth <= 0.0:
            raise ConfigurationError(f"link {name}: bandwidth must be positive")
        if hop_overhead < 0.0:
            raise ConfigurationError(f"link {name}: hop overhead must be non-negative")
        self.name = name
        self.byte_time = 1.0 / bandwidth
        self.hop_overhead = hop_overhead
        self.resource = SerialResource(name=name)
        self.bytes_moved = 0
        self.queued_time = 0.0
        self.max_queue_delay = 0.0
        self.flap = None


class FabricState:
    """Materialised fabric: shared links plus a route per ordered node pair.

    Built once per :class:`~repro.simmpi.p2p.TimingModel` (i.e. once per
    simulated job) by ``spec.build``; never shared between jobs, so link
    occupancy always starts from an idle fabric.
    """

    __slots__ = ("name", "links", "routes", "sink", "_route_counts")

    def __init__(self, name: str, links: list[_Link],
                 routes: dict[tuple[int, int], tuple[_Link, ...]]) -> None:
        self.name = name
        self.links = links
        self.routes = routes
        #: Optional :class:`repro.obs.sink.EventSink` receiving one ``link``
        #: event per hop; ``None`` costs one pointer test per traversal.
        self.sink = None
        #: Lazily computed number of node-pair routes crossing each link
        #: (keyed by ``id(link)``); only the analytic uniform bound needs it.
        self._route_counts: dict[int, int] | None = None

    def route(self, src_node: int, dst_node: int) -> tuple[_Link, ...]:
        """The shared links a ``src_node -> dst_node`` message traverses."""
        try:
            return self.routes[(src_node, dst_node)]
        except KeyError:
            raise SimulationError(
                f"fabric {self.name!r} has no route {src_node} -> {dst_node}"
            ) from None

    def traverse(self, src_node: int, dst_node: int, nbytes: int, start: float) -> float:
        """Push ``nbytes`` through the route, reserving each link in order.

        Returns the time the message exits the last shared link (``start``
        unchanged for an empty route).  Each hop applies the
        :class:`~repro.netsim.resources.SerialResource` discipline inline:
        begin no earlier than the link frees up, occupy it for
        ``hop_overhead + nbytes * byte_time``.  A flapping link
        additionally stalls the message to the start of the next on-window
        (only the start must fall inside a window, so large messages still
        make progress); the stall lands in ``queued_time`` like any other
        wait.
        """
        t = start
        sink = self.sink
        for link in self.routes[(src_node, dst_node)]:
            occupancy = link.hop_overhead + nbytes * link.byte_time
            resource = link.resource
            available = resource.available_at
            begin = t if t >= available else available
            flap = link.flap
            if flap is not None:
                period, on_window, phase = flap
                position = (begin - phase) % period
                if position >= on_window:
                    stalled = begin + (period - position)
                    if sink is not None:
                        sink.fault("flap-stall", link.name, begin, stalled,
                                   f"{nbytes} B held for the next on-window")
                    begin = stalled
            end = begin + occupancy
            resource.available_at = end
            resource.busy_time += occupancy
            resource.reservations += 1
            # Occupancy accounting off the timing arithmetic: `end` above is
            # computed exactly as before, these accumulators only observe it.
            link.bytes_moved += nbytes
            delay = begin - t
            link.queued_time += delay
            if delay > link.max_queue_delay:
                link.max_queue_delay = delay
            if sink is not None:
                sink.link(link.name, t, begin, end, nbytes, src_node, dst_node)
            t = end
        return t

    def statistics(self) -> list[dict]:
        """Per-link accounting for reports, metrics and tests.

        ``queued_time`` — total time messages spent waiting for the link
        (its time-at-saturation proxy); ``max_queue_delay`` — the worst
        single-message stall.
        """
        return [
            {
                "link": link.name,
                "messages": link.resource.reservations,
                "busy_time": link.resource.busy_time,
                "bytes": link.bytes_moved,
                "queued_time": link.queued_time,
                "max_queue_delay": link.max_queue_delay,
            }
            for link in self.links
        ]

    def phase_bound(self, pair_msgs, pair_bytes) -> float:
        """Analytic lower bound of a phase from the busiest shared link.

        ``pair_msgs[a][b]`` / ``pair_bytes[a][b]`` give the inter-node
        messages and bytes node ``a`` sends node ``b`` during the phase.
        Every (messages, bytes) load is pushed over its route; the phase can
        finish no sooner than the total occupancy of the busiest link.  This
        is the congestion-aware analogue of
        :func:`repro.model.loggp.nic_phase_bound`, used by the model layer.
        """
        occupancy: dict[int, float] = {}
        for (src, dst), route in self.routes.items():
            if not route:
                continue
            msgs = float(pair_msgs[src][dst])
            byts = float(pair_bytes[src][dst])
            if msgs <= 0.0 and byts <= 0.0:
                continue
            for link in route:
                load = msgs * link.hop_overhead + byts * link.byte_time
                key = id(link)
                occupancy[key] = occupancy.get(key, 0.0) + load
        return max(occupancy.values(), default=0.0)

    def uniform_phase_bound(self, msgs_per_pair: float, bytes_per_pair: float) -> float:
        """:meth:`phase_bound` when every node pair carries the same load.

        The per-link occupancy collapses to ``routes_through_link * load``,
        so after a one-time count of routes per link the bound costs
        O(links) per call — the analytic sweeps evaluate it once per cost
        model call and never need the O(nodes^2) pair matrices.
        """
        counts = self._route_counts
        if counts is None:
            counts = {}
            for route in self.routes.values():
                for link in route:
                    key = id(link)
                    counts[key] = counts.get(key, 0) + 1
            self._route_counts = counts
        if not counts:
            return 0.0
        by_id = {id(link): link for link in self.links}
        return max(
            count * (msgs_per_pair * by_id[key].hop_overhead
                     + bytes_per_pair * by_id[key].byte_time)
            for key, count in counts.items()
        )


class FoldedFabricView:
    """Multiplicity-weighted view of a :class:`FabricState` for folded jobs.

    A symmetry-folded job (:mod:`repro.machine.folding`) simulates only the
    sends of node 0's representative ranks, so a shared link would see only
    the fraction of its traffic that originates at the simulated nodes —
    a fat-tree uplink shared by ``hosts_per_switch`` nodes would be loaded
    by just one of them and contention would evaporate.  This view restores
    the absent nodes' load with two per-link multipliers:

    * the **aggregate weight** ``w_L`` — all node-pair routes crossing the
      link divided by the routes originating at simulated nodes — scales the
      *accounting* (``busy_time``, ``bytes``), so every link reports exactly
      the multiplicity-weighted totals of the full run;
    * the **aligned concurrency** ``a_L`` — the maximum, over destination
      offsets ``d``, of how many sources ``s`` route ``s -> (s + d) % N``
      through the link — scales the *timeline reservation*.  Under the
      node-rotation symmetry every folded-away node runs the representative's
      schedule at the same instants, so at any moment a link is contended by
      the sources aligned on the current offset, not by its whole-run
      average.  Reserving ``a_L`` occupancies per traversal reproduces the
      full run's per-link saturation (a fat-tree uplink's ``a_L`` is its
      ``hosts_per_switch``) without the burst amplification that scaling by
      ``w_L`` would cause on fan-in links (a downlink's ``w_L`` counts every
      remote switch, but only one switch converges on it at a time).

    Unlike the NIC and matching paths, which the mirror construction makes
    bit-exact, weighted link occupancy is an *aggregate-faithful smoothing*:
    per-message queueing is interleaved differently than in the full run.
    The differential fold gate therefore checks contended-fabric timings
    against a tolerance rather than bit equality (see
    :mod:`repro.verify.folding`).

    The view exposes the same ``traverse`` / ``statistics`` / ``sink``
    surface the timing model uses, so the hot path is unchanged.
    """

    __slots__ = ("state", "sim_nodes", "_weights", "_concurrency")

    def __init__(self, state: FabricState, sim_nodes: int) -> None:
        self.state = state
        self.sim_nodes = sim_nodes
        total: dict[int, int] = {}
        simulated: dict[int, int] = {}
        nodes = 0
        for (src, dst), route in state.routes.items():
            if src >= nodes:
                nodes = src + 1
            if dst >= nodes:
                nodes = dst + 1
            for link in route:
                key = id(link)
                total[key] = total.get(key, 0) + 1
                if src < sim_nodes:
                    simulated[key] = simulated.get(key, 0) + 1
        #: id(link) -> accounting multiplier.  Links never reached from a
        #: simulated node keep no weight: they are never traversed.
        self._weights = {
            key: total[key] / simulated[key] for key in total if key in simulated
        }
        #: id(link) -> timeline multiplier: max sources aligned on one
        #: destination offset (one O(nodes^2) sweep at construction).
        concurrency: dict[int, int] = {}
        for offset in range(1, nodes):
            per_offset: dict[int, int] = {}
            for src in range(nodes):
                route = state.routes.get((src, (src + offset) % nodes))
                if not route:
                    continue
                for link in route:
                    key = id(link)
                    per_offset[key] = per_offset.get(key, 0) + 1
            for key, count in per_offset.items():
                if count > concurrency.get(key, 0):
                    concurrency[key] = count
        self._concurrency = {
            key: float(concurrency.get(key, 1)) for key in self._weights
        }

    @property
    def name(self) -> str:
        return f"{self.state.name} [folded]"

    @property
    def sink(self):
        return self.state.sink

    @sink.setter
    def sink(self, value) -> None:
        self.state.sink = value

    @property
    def routes(self) -> dict[tuple[int, int], tuple[_Link, ...]]:
        return self.state.routes

    def fold_weight(self, link: _Link) -> float:
        """Accounting multiplier (``w_L``) applied to traversals of ``link``."""
        return self._weights.get(id(link), 1.0)

    def aligned_concurrency(self, link: _Link) -> float:
        """Timeline multiplier (``a_L``) applied to traversals of ``link``."""
        return self._concurrency.get(id(link), 1.0)

    def route(self, src_node: int, dst_node: int) -> tuple[_Link, ...]:
        return self.state.route(src_node, dst_node)

    def traverse(self, src_node: int, dst_node: int, nbytes: int, start: float) -> float:
        """Weighted :meth:`FabricState.traverse`: same FIFO discipline, the
        timeline reservation scaled by the link's aligned concurrency and
        the accounting by its aggregate fold weight."""
        t = start
        state = self.state
        sink = state.sink
        weights = self._weights
        concurrency = self._concurrency
        for link in state.routes[(src_node, dst_node)]:
            key = id(link)
            occupancy = link.hop_overhead + nbytes * link.byte_time
            reserved = occupancy * concurrency.get(key, 1.0)
            weight = weights.get(key, 1.0)
            resource = link.resource
            available = resource.available_at
            begin = t if t >= available else available
            end = begin + reserved
            resource.available_at = end
            resource.busy_time += occupancy * weight
            resource.reservations += 1
            link.bytes_moved += int(nbytes * weight)
            delay = begin - t
            link.queued_time += delay
            if delay > link.max_queue_delay:
                link.max_queue_delay = delay
            if sink is not None:
                sink.link(link.name, t, begin, end, nbytes, src_node, dst_node)
            t = end
        return t

    def statistics(self) -> list[dict]:
        """Per-link accounting (the underlying state's, already weighted)."""
        return self.state.statistics()


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullBisectionFabric:
    """The contention-free default: every node pair has dedicated capacity.

    ``build`` returns ``None`` so the timing model keeps its original,
    fabric-free arithmetic — the bit-identical baseline every golden timing
    is pinned against.
    """

    kind: ClassVar[str] = "full-bisection"

    def build(self, num_nodes: int, params) -> FabricState | None:
        return None

    def payload(self) -> dict:
        return {"kind": self.kind}

    def describe(self) -> str:
        return "full bisection (contention-free)"


@dataclass(frozen=True)
class FatTreeFabric:
    """Two-level fat-tree: nodes under edge switches, shared up/down links.

    Parameters
    ----------
    hosts_per_switch:
        Nodes attached to each edge switch (``k / 2`` of a radix-``k``
        tree's edge layer).
    oversubscription:
        Ratio of attached host bandwidth to uplink bandwidth.  ``1`` is a
        non-blocking tree — by definition full bisection, so no shared
        links are built; ``4`` means four hosts share one host's worth of
        core bandwidth, the classic cost-reduced datacenter tree.

    Same-switch traffic never leaves the edge switch; cross-switch traffic
    reserves the source switch's uplink and the destination switch's
    downlink, each of bandwidth
    ``hosts_per_switch * injection_bandwidth / oversubscription``.
    """

    kind: ClassVar[str] = "fat-tree"

    hosts_per_switch: int = 4
    oversubscription: float = 2.0

    def __post_init__(self) -> None:
        if self.hosts_per_switch <= 0:
            raise ConfigurationError(
                f"hosts_per_switch must be positive, got {self.hosts_per_switch}"
            )
        if self.oversubscription < 1.0:
            raise ConfigurationError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )

    def build(self, num_nodes: int, params) -> FabricState | None:
        if self.oversubscription <= 1.0:
            return None
        hosts = self.hosts_per_switch
        num_switches = (num_nodes + hosts - 1) // hosts
        if num_switches <= 1:
            # Every node hangs off one edge switch: no traffic crosses the
            # (oversubscribed) core, so there is nothing to contend on.
            return None
        bandwidth = hosts * params.injection_bandwidth / self.oversubscription
        overhead = params.nic_message_overhead
        up = [_Link(f"ft-up{s}", bandwidth, overhead) for s in range(num_switches)]
        down = [_Link(f"ft-down{s}", bandwidth, overhead) for s in range(num_switches)]
        routes: dict[tuple[int, int], tuple[_Link, ...]] = {}
        for src in range(num_nodes):
            for dst in range(num_nodes):
                if src == dst:
                    continue
                s, d = src // hosts, dst // hosts
                routes[(src, dst)] = () if s == d else (up[s], down[d])
        return FabricState(self.describe(), up + down, routes)

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "hosts_per_switch": self.hosts_per_switch,
            "oversubscription": self.oversubscription,
        }

    def describe(self) -> str:
        return (
            f"fat-tree (hosts/switch={self.hosts_per_switch}, "
            f"oversubscription={self.oversubscription:g}:1)"
        )


@dataclass(frozen=True)
class DragonflyFabric:
    """Dragonfly: routers grouped, all-to-all global links between groups.

    Parameters
    ----------
    hosts_per_router:
        Nodes attached to each router.
    routers_per_group:
        Routers forming one group (connected by a group-local crossbar).
    global_taper:
        Ratio of a group's attached host bandwidth to each of its global
        links; real dragonflies taper the expensive global optics.

    Routing is minimal: same router — no shared link; same group — the
    source and destination routers' local ports; different groups — source
    router port, the direct ``src-group -> dst-group`` global link, then the
    destination router port.  Router ports carry
    ``hosts_per_router * injection_bandwidth``; a global link carries the
    whole group's host bandwidth divided by ``global_taper``.
    """

    kind: ClassVar[str] = "dragonfly"

    hosts_per_router: int = 2
    routers_per_group: int = 2
    global_taper: float = 2.0

    def __post_init__(self) -> None:
        if self.hosts_per_router <= 0:
            raise ConfigurationError(
                f"hosts_per_router must be positive, got {self.hosts_per_router}"
            )
        if self.routers_per_group <= 0:
            raise ConfigurationError(
                f"routers_per_group must be positive, got {self.routers_per_group}"
            )
        if self.global_taper <= 0.0:
            raise ConfigurationError(
                f"global_taper must be positive, got {self.global_taper}"
            )

    def build(self, num_nodes: int, params) -> FabricState | None:
        hosts = self.hosts_per_router
        num_routers = (num_nodes + hosts - 1) // hosts
        if num_routers <= 1:
            return None
        overhead = params.nic_message_overhead
        port_bw = hosts * params.injection_bandwidth
        local = [_Link(f"df-r{r}", port_bw, overhead) for r in range(num_routers)]
        rpg = self.routers_per_group
        num_groups = (num_routers + rpg - 1) // rpg
        group_bw = rpg * hosts * params.injection_bandwidth / self.global_taper
        glob: dict[tuple[int, int], _Link] = {}
        for a in range(num_groups):
            for b in range(num_groups):
                if a != b:
                    glob[(a, b)] = _Link(f"df-g{a}-{b}", group_bw, overhead)
        routes: dict[tuple[int, int], tuple[_Link, ...]] = {}
        for src in range(num_nodes):
            for dst in range(num_nodes):
                if src == dst:
                    continue
                rs, rd = src // hosts, dst // hosts
                if rs == rd:
                    routes[(src, dst)] = ()
                    continue
                gs, gd = rs // rpg, rd // rpg
                if gs == gd:
                    routes[(src, dst)] = (local[rs], local[rd])
                else:
                    routes[(src, dst)] = (local[rs], glob[(gs, gd)], local[rd])
        links = local + [glob[key] for key in sorted(glob)]
        return FabricState(self.describe(), links, routes)

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "hosts_per_router": self.hosts_per_router,
            "routers_per_group": self.routers_per_group,
            "global_taper": self.global_taper,
        }

    def describe(self) -> str:
        return (
            f"dragonfly (hosts/router={self.hosts_per_router}, "
            f"routers/group={self.routers_per_group}, taper={self.global_taper:g}:1)"
        )


#: Union type accepted wherever a fabric specification is expected.
FabricSpec = FullBisectionFabric | FatTreeFabric | DragonflyFabric

#: Registry of fabric kinds, keyed by their CLI / payload name.
FABRIC_KINDS: dict[str, type] = {
    FullBisectionFabric.kind: FullBisectionFabric,
    FatTreeFabric.kind: FatTreeFabric,
    DragonflyFabric.kind: DragonflyFabric,
}

#: Short CLI option aliases accepted by :func:`parse_fabric`.
_OPTION_ALIASES = {
    "hosts": None,  # resolved per kind below
    "oversub": "oversubscription",
    "routers": "routers_per_group",
    "taper": "global_taper",
    "k": None,
}

_INT_FIELDS = {"hosts_per_switch", "hosts_per_router", "routers_per_group"}

#: Field binding order for bare positional option values
#: (``dragonfly:64,8,8`` == ``dragonfly:hosts=64,routers=8,taper=8``).
_POSITIONAL_FIELDS = {
    "full-bisection": (),
    "fat-tree": ("hosts_per_switch", "oversubscription"),
    "dragonfly": ("hosts_per_router", "routers_per_group", "global_taper"),
}


def list_fabrics() -> list[str]:
    """Names of the available fabric kinds."""
    return sorted(FABRIC_KINDS)


def parse_fabric(text: str) -> FabricSpec:
    """Parse a CLI fabric specification string.

    Accepted forms (options are comma-separated ``name=value`` pairs, or
    bare values binding to the kind's fields in declaration order)::

        full-bisection
        fat-tree                      # defaults: hosts=4, oversub=2
        fat-tree:oversub=4
        fat-tree:k=8,oversub=4        # radix-k edge layer: hosts = k/2
        dragonfly
        dragonfly:hosts=2,routers=4,taper=4
        dragonfly:64,8,8              # hosts=64, routers=8, taper=8
    """
    kind, _, option_text = text.partition(":")
    kind = kind.strip().lower()
    if kind not in FABRIC_KINDS:
        raise ConfigurationError(
            f"unknown fabric {kind!r}; available fabrics: {', '.join(list_fabrics())}"
        )
    options: dict[str, float | int] = {}
    positional = list(_POSITIONAL_FIELDS[kind])
    if option_text.strip():
        for item in option_text.split(","):
            name, sep, value = item.partition("=")
            name = name.strip().lower()
            if not sep:
                # Bare value: bind to the next positional field of the kind.
                if not positional:
                    raise ConfigurationError(
                        f"too many positional fabric options in {text!r} "
                        f"({kind} takes {len(_POSITIONAL_FIELDS[kind])})"
                    )
                name, value = positional.pop(0), item.strip()
                if not value:
                    raise ConfigurationError(
                        f"malformed fabric option {item!r} in {text!r} "
                        "(expected name=value or a bare value)"
                    )
                try:
                    options[name] = int(value) if name in _INT_FIELDS else float(value)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"invalid value for fabric option {name!r}: {value!r}"
                    ) from exc
                continue
            if not name or not value.strip():
                raise ConfigurationError(
                    f"malformed fabric option {item!r} in {text!r} (expected name=value)"
                )
            if name == "k":
                if kind != "fat-tree":
                    raise ConfigurationError("option 'k' only applies to fat-tree")
                try:
                    radix = int(value)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"invalid value for fabric option 'k': {value!r}"
                    ) from exc
                if radix < 2:
                    raise ConfigurationError(f"fat-tree radix k must be >= 2, got {radix}")
                name, value = "hosts_per_switch", str(radix // 2)
            elif name == "hosts":
                name = "hosts_per_switch" if kind == "fat-tree" else "hosts_per_router"
            else:
                name = _OPTION_ALIASES.get(name, name) or name
            try:
                options[name] = int(value) if name in _INT_FIELDS else float(value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"invalid value for fabric option {name!r}: {value!r}"
                ) from exc
    try:
        return FABRIC_KINDS[kind](**options)
    except TypeError as exc:
        raise ConfigurationError(f"invalid options for fabric {kind!r}: {exc}") from exc


def fabric_from_payload(payload: dict | None) -> FabricSpec:
    """Rebuild a fabric spec from its :meth:`payload` form (``None`` = default)."""
    if payload is None:
        return FullBisectionFabric()
    options = dict(payload)
    kind = options.pop("kind", None)
    if kind not in FABRIC_KINDS:
        raise ConfigurationError(f"unknown fabric kind in payload: {kind!r}")
    try:
        return FABRIC_KINDS[kind](**options)
    except TypeError as exc:
        raise ConfigurationError(f"invalid fabric payload for {kind!r}: {exc}") from exc
