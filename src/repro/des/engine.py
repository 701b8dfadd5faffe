"""The discrete-event fabric simulator behind ``profile_engine="des"``.

The engine executes a lowered schedule
(:class:`~repro.model.compiled.TransferTable`) step by step.  Within a
step every transfer becomes a *flow* released at the step's transport
start; a flow occupies one FIFO-served resource per link of its route
plus (for NIC traffic) its endpoints' injection/ejection ports.  Service
rates derive from the same ``Link.width``/class model the analytic
engine divides loads by, so a phase on a calm fabric drains in exactly
the analytic bandwidth term — that is the calibration contract:

* **link resource** — serves ``nelems / width`` load units; busy time is
  ``load · scale · itemsize · beta[cls]``, the analytic per-link term;
* **inj/ej port** — serves ``nelems`` units per NIC flow at the
  endpoint rank; busy time is ``load · scale · itemsize · inj_beta /
  ports``, the analytic injection term;
* flows are released simultaneously and resources drain concurrently,
  so the phase's transport time is the longest busy period — the
  analytic ``bw = max(...)``, reproduced bit-for-bit when no timeline
  event perturbs the phase (asserted in ``tests/test_timeline.py``).

A phase drains as arrays.  Between two timeline events every resource
is an independent FIFO queue, so its finish times are the sequential
chain ``t_k = t_{k-1} + units_k · cunit / factor`` — one ``np.cumsum``
per queue, whose left-to-right additions are the ones a per-entry event
loop makes.  A :class:`~repro.faults.TimelineEvent` inside the phase is
an interval boundary: every entry finishing strictly before it is
served (an event tied with a finish fires first), then the scalar fault
logic runs on the affected rows only — failed links preempt their
in-flight flows and reroute the unfinished remainder through the same
detour logic :class:`~repro.faults.DegradedTopology` uses (lowest
healthy group representative); a flow with no surviving route — or an
endpoint on a failed node — records a structured :class:`StallRecord`
and is removed, so the run always completes (never hangs) and the
record carries ``stalled=True``.  ``tests/oracle_des.py`` holds the
same model as a per-entry event heap: the bit-identity oracle.

Step times compose exactly like
:func:`~repro.model.compiled.evaluate_time` (unsegmented / segmented /
pipelined), with the simulated transport time in place of the analytic
``bw`` term.  For pipelined schedules the *reported* total uses the
pipelined law while event times map onto the steps laid end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.faults import (
    NIC_DERATE,
    DegradedTopology,
    FaultTimeline,
    TimelineEvent,
    _global_link_population,
    _group_members,
)
from repro.model.compiled import CompiledRouteTable
from repro.model.cost import CostParams
from repro.model.simulator import PIPELINE_CHUNKS, ScheduleProfile
from repro.runtime.errors import DESEngineError, TopologyPartitionedError
from repro.topology.base import LinkClass, Topology
from repro.topology.mapping import RankMap

__all__ = [
    "FabricState", "FlowProgram", "SimResult", "StallRecord", "simulate_profile",
]

#: inner topology -> [group members, global-link population or None]:
#: fabric constants every simulation on that topology shares (bounded FIFO)
_FABRIC_CACHE: dict[Topology, list] = {}
_FABRIC_CACHE_MAX = 16


def _fabric_constants(inner: Topology) -> list:
    consts = _FABRIC_CACHE.get(inner)
    if consts is None:
        while len(_FABRIC_CACHE) >= _FABRIC_CACHE_MAX:
            _FABRIC_CACHE.pop(next(iter(_FABRIC_CACHE)))
        consts = _FABRIC_CACHE[inner] = [_group_members(inner), None]
    return consts


@dataclass(frozen=True)
class StallRecord:
    """One flow that lost every route mid-run (structured stall)."""

    step: int
    src_node: int
    dst_node: int
    at: float


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated collective execution."""

    time: float
    stalled: bool
    stalls: tuple[StallRecord, ...]


class FabricState:
    """Dynamic fault overlay over a (possibly statically degraded) topology.

    The static :class:`~repro.faults.DegradedTopology` is the fabric's
    t=0 baseline and never heals; timeline events maintain the *dynamic*
    sets on top (``down_links`` / ``down_nodes`` / ``nic_down`` /
    ``dyn_derate`` / ``background``).  Victims are sampled per event from
    ``random.Random(event.seed)`` over canonically ordered healthy
    populations, so a timeline replays identically across processes and
    worker pools.
    """

    def __init__(self, topo: Topology, timeline: FaultTimeline):
        self.topo = topo
        self.inner = topo.inner if isinstance(topo, DegradedTopology) else topo
        if isinstance(topo, DegradedTopology):
            self._static_failed_nodes = topo.failed_nodes
            self._static_failed_links = topo.failed_links
        else:
            self._static_failed_nodes = frozenset()
            self._static_failed_links = frozenset()
        self.timeline = timeline
        self.down_links: set = set()
        self.down_nodes: set[int] = set()
        self.nic_down: set[int] = set()
        self.dyn_derate: dict[str, float] = {}
        self.background = 0.0
        self.version = 0
        self.next_event = 0  # index into timeline.events
        self._consts = _fabric_constants(self.inner)
        self._members = self._consts[0]
        self._route_cache: dict[tuple[int, int], tuple[int, list]] = {}

    @property
    def pristine(self) -> bool:
        """No *dynamic* effect is currently active (static spec may be)."""
        return not (
            self.down_links or self.down_nodes or self.nic_down
            or self.dyn_derate or self.background
        )

    def pending_event(self) -> TimelineEvent | None:
        events = self.timeline.events
        return events[self.next_event] if self.next_event < len(events) else None

    # -- event application -------------------------------------------------

    def apply_next(self) -> dict:
        """Apply the next timeline event; returns what changed.

        The dict carries ``links`` / ``nodes`` (newly failed victims) so
        a mid-phase caller can preempt affected flows; state-only changes
        (derate, background, nics, heal) are reflected in the fabric and
        flagged by ``rates`` for a rate refresh.
        """
        event = self.timeline.events[self.next_event]
        self.next_event += 1
        self.version += 1
        changed: dict = {"links": (), "nodes": (), "rates": False}
        if event.heal:
            targets = (
                ("links", "nodes", "nics", "derate", "background")
                if event.heal == "all" else (event.heal,)
            )
            if "links" in targets:
                self.down_links.clear()
            if "nodes" in targets:
                self.down_nodes.clear()
            if "nics" in targets:
                self.nic_down.clear()
            if "derate" in targets:
                self.dyn_derate.clear()
            if "background" in targets:
                self.background = 0.0
            changed["rates"] = True
            return changed
        rng = random.Random(event.seed)
        if event.links:
            victims = self._sample_links(rng, event)
            self.down_links.update(victims)
            changed["links"] = victims
        if event.nodes:
            victims = self._sample_nodes(rng, event)
            self.down_nodes.update(victims)
            changed["nodes"] = victims
        if event.nics:
            self.nic_down.update(self._sample_nics(rng, event))
            changed["rates"] = True
        if event.derate:
            self.dyn_derate.update(event.derate)
            changed["rates"] = True
        if event.background is not None:
            self.background = event.background
            changed["rates"] = True
        return changed

    def _sample_links(self, rng: random.Random, event: TimelineEvent) -> tuple:
        population = self._consts[1]
        if population is None:
            reps = {g: ns[0] for g, ns in self._members.items()}
            population = _global_link_population(self.inner, reps)
            self._consts[1] = population
        healthy = [
            k for k in population
            if k not in self._static_failed_links and k not in self.down_links
        ]
        if event.links > len(healthy):
            raise DESEngineError(
                f"timeline event at={event.at:g}: cannot fail {event.links} "
                f"links; only {len(healthy)} global links remain healthy"
            )
        return tuple(rng.sample(healthy, event.links))

    def _sample_nodes(self, rng: random.Random, event: TimelineEvent) -> tuple:
        healthy = [
            v for v in range(self.inner.num_nodes)
            if v not in self._static_failed_nodes and v not in self.down_nodes
        ]
        if event.nodes > len(healthy):
            raise DESEngineError(
                f"timeline event at={event.at:g}: cannot fail {event.nodes} "
                f"nodes; only {len(healthy)} remain healthy"
            )
        return tuple(rng.sample(healthy, event.nodes))

    def _sample_nics(self, rng: random.Random, event: TimelineEvent) -> tuple:
        healthy = [
            v for v in range(self.inner.num_nodes)
            if v not in self._static_failed_nodes
            and v not in self.down_nodes and v not in self.nic_down
        ]
        if event.nics > len(healthy):
            raise DESEngineError(
                f"timeline event at={event.at:g}: cannot derate {event.nics} "
                f"NICs; only {len(healthy)} healthy nodes remain"
            )
        return tuple(rng.sample(healthy, event.nics))

    # -- routing -----------------------------------------------------------

    def route(self, a: int, b: int) -> list:
        """Shaped links ``a → b`` under static + dynamic failures.

        Mirrors :meth:`DegradedTopology.route`: the baseline route (which
        already detours static failures) is used if no dynamic link on it
        is down; otherwise detour via the lowest healthy group
        representative; otherwise :class:`TopologyPartitionedError`.
        """
        for v in (a, b):
            if v in self.down_nodes:
                raise TopologyPartitionedError(a, b, f"node {v} went down mid-run")
        cached = self._route_cache.get((a, b))
        if cached is not None and cached[0] == self.version:
            return cached[1]
        links = self._route_uncached(a, b)
        self._route_cache[(a, b)] = (self.version, links)
        return links

    def _route_uncached(self, a: int, b: int) -> list:
        base = self.topo.route(a, b)
        if not self._blocked(base):
            return base
        ga, gb = self.topo.group_of(a), self.topo.group_of(b)
        for g in sorted(self._members):
            if g in (ga, gb):
                continue
            mid = next(
                (v for v in self._members[g]
                 if v not in self._static_failed_nodes
                 and v not in self.down_nodes),
                None,
            )
            if mid is None or mid in (a, b):
                continue
            try:
                detour = self.topo.route(a, mid) + self.topo.route(mid, b)
            except TopologyPartitionedError:
                continue
            if not self._blocked(detour):
                return detour
        raise TopologyPartitionedError(
            a, b, f"{len(self.down_links)} timeline-failed links, no detour"
        )

    def _blocked(self, links) -> bool:
        return any(link.key in self.down_links for link in links)

    # -- service-rate modifiers --------------------------------------------

    def link_factor(self, cls: str) -> float:
        """Dynamic rate multiplier for a link of class ``cls``."""
        return self.dyn_derate.get(cls, 1.0) * (1.0 - self.background)

    def port_factor(self, node: int) -> float:
        """Dynamic rate multiplier for a node's injection/ejection ports."""
        factor = 1.0 - self.background
        if node in self.nic_down:
            factor *= NIC_DERATE
        return factor


# -- the flow program ----------------------------------------------------------

# resource kinds
_LINK, _INJ, _EJ = 0, 1, 2
_KIND_NAMES = ("L", "inj", "ej")


class _StepFlows(NamedTuple):
    """One step's inter-node flows, in transfer order."""

    src: np.ndarray  # source rank
    dst: np.ndarray  # destination rank
    a: np.ndarray  # source node
    b: np.ndarray  # destination node
    ne: np.ndarray  # elements (float64)
    nic: np.ndarray  # the base route leaves the node


def _queue_sums(head: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` within each queue (``head`` marks where a
    queue starts), added strictly left to right.

    These are the additions a FIFO server makes one completion at a
    time, so every sum is bit-identical to the sequential loop.  Queues
    become the rows of a zero-padded matrix summed by ``np.cumsum`` when
    that stays small, and are otherwise summed position by position
    across all queues.
    """
    if not values.size:
        return values
    starts = np.flatnonzero(head)
    counts = np.diff(np.append(starts, values.size))
    pos = np.arange(values.size) - np.repeat(starts, counts)
    width = int(counts.max())
    if starts.size * width <= 4 * values.size + 4096:
        flat = np.repeat(np.arange(starts.size) * width, counts) + pos
        grid = np.zeros(starts.size * width)
        grid[flat] = values
        return np.cumsum(grid.reshape(-1, width), axis=1).ravel()[flat]
    out = values.copy()
    by_pos = np.argsort(pos, kind="stable")
    bounds = np.cumsum(np.bincount(pos))
    for k in range(1, width):
        idx = by_pos[bounds[k - 1] : bounds[k]]
        out[idx] += out[idx - 1]
    return out


def _heads(eres: np.ndarray) -> np.ndarray:
    """Where each resource's queue starts, in entries grouped by resource."""
    head = np.ones(eres.size, dtype=bool)
    np.not_equal(eres[1:], eres[:-1], out=head[1:])
    return head


class _Layout(NamedTuple):
    """A phase's entries sorted into per-resource FIFO queues.

    Entries are grouped by resource and, within a resource, kept in flow
    (transfer) order — the order its queue serves them in.
    """

    eres: np.ndarray  # per entry: resource
    eflow: np.ndarray  # owning flow
    units: np.ndarray  # service units
    islink: np.ndarray  # a link entry (not a port)
    head: np.ndarray  # the entry starts its resource's queue
    outstanding: np.ndarray  # per flow: entry count
    rkind: np.ndarray  # per resource: _LINK / _INJ / _EJ
    rlink: np.ndarray  # interned link id (-1 for ports)
    rcls: np.ndarray  # link class id (-1 for ports)
    rrank: np.ndarray  # port rank (-1 for links)


def _layout(flows: _StepFlows, link_cols, ports: np.ndarray) -> _Layout:
    """Queue the link entries ``link_cols`` (flow, link id, class id and
    units) and the port entries of the flows ``ports``."""
    l_flow, l_link, l_cls, l_units = link_cols
    links, l_res = np.unique(l_link, return_inverse=True)
    inj, i_res = np.unique(flows.src[ports], return_inverse=True)
    ej, e_res = np.unique(flows.dst[ports], return_inverse=True)
    n_l, n_i, n_e = links.size, inj.size, ej.size
    eres = np.concatenate([l_res, n_l + i_res, n_l + n_i + e_res])
    eflow = np.concatenate([l_flow, ports, ports])
    order = np.lexsort((eflow, eres))
    eres = eres[order].astype(np.int32)
    eflow = eflow[order].astype(np.int32)
    rcls = np.empty(n_l, dtype=np.intp)
    rcls[l_res] = l_cls
    no_link = np.full(n_i + n_e, -1)
    return _Layout(
        eres=eres,
        eflow=eflow,
        units=np.concatenate([l_units, flows.ne[ports], flows.ne[ports]])[order],
        islink=order < l_res.size,
        head=_heads(eres),
        outstanding=np.bincount(eflow, minlength=flows.a.size),
        rkind=np.repeat(np.array([_LINK, _INJ, _EJ]), [n_l, n_i, n_e]),
        rlink=np.concatenate([links, no_link]),
        rcls=np.concatenate([rcls, no_link]),
        rrank=np.concatenate([np.full(n_l, -1), inj, ej]),
    )


#: queue entries one program keeps across simulations.  Holding every step
#: of a ring allreduce at p=128 (~290k entries) raised the timeline
#: campaign's peak RSS by ~4 MB; under the cap, cells with logarithmically
#: many steps stay whole and long schedules keep their first steps.
_PROGRAM_MAX_ENTRIES = 1 << 15


class FlowProgram:
    """A lowered schedule's flows, resolved against a route table.

    A step's flows and the queues their base routes form do not depend
    on the vector size (the size only scales service rates), so one
    program serves every simulation of a sweep cell, keeping resolved
    steps up to :data:`_PROGRAM_MAX_ENTRIES` queue entries.  Steps resolve
    lazily: a phase the calm fast path settles never needs its routes.
    Pass the sweep's shared ``routes`` table; a private one is built
    otherwise.
    """

    def __init__(
        self,
        table,
        topo: Topology,
        mapping: RankMap,
        *,
        routes: CompiledRouteTable | None = None,
    ):
        if routes is None:
            routes = CompiledRouteTable(topo)
        elif routes.topo is not topo:
            raise ValueError("routes table was built for a different topology")
        self.table = table
        self.routes = routes
        self.node_of = np.asarray(mapping.nodes, dtype=np.intp)
        self._steps: list[tuple[_StepFlows, _Layout] | None] = (
            [None] * table.num_steps
        )
        self._entries = 0

    def step(self, s: int) -> tuple[_StepFlows, _Layout]:
        """Step ``s``'s flows, and their queues on the base routes."""
        step = self._steps[s]
        if step is None:
            step = self._resolve_step(s)
            entries = step[1].eres.size
            if self._entries + entries <= _PROGRAM_MAX_ENTRIES:
                self._steps[s] = step
                self._entries += entries
        return step

    def _resolve_step(self, s: int) -> tuple[_StepFlows, _Layout]:
        table = self.table
        lo, hi = table.step_off[s], table.step_off[s + 1]
        src, dst = table.src[lo:hi], table.dst[lo:hi]
        ne = table.nelems[lo:hi].astype(np.float64)
        a, b = self.node_of[src], self.node_of[dst]
        # intra-node copies are the analytic copy term's business
        keep = (a != b) & (ne > 0.0)
        src, dst, a, b, ne = src[keep], dst[keep], a[keep], b[keep], ne[keep]
        counts, nic, link, width, cls = self.routes.route_rows(
            self.routes.resolve(a, b)
        )
        flows = _StepFlows(src, dst, a, b, ne, nic)
        row_flow = np.repeat(np.arange(a.size), counts)
        rows = (row_flow, link, cls, ne[row_flow] / width)
        return flows, _layout(flows, rows, np.flatnonzero(nic))


# -- one transport phase -------------------------------------------------------

# entry states
_QUEUED, _SERVING, _SERVED, _CANCELLED = 0, 1, 2, 3


class _Phase:
    """One transport phase: flows released at ``t0``, drained to empty.

    Entries are the rows of flat arrays: the step's :class:`_Layout`, then
    rerouted remainders appended in creation order, so a resource's FIFO
    queue is its entries in index order.  Every resource with live
    entries has one in service (``srv``), finishing at ``sched_fin``.  A
    preempted service's old finish lingers as a *ghost*: the event-heap
    formulation keeps such stale finishes queued, so a timeline event at
    or before the latest one still fires inside the phase.
    """

    def __init__(self, sim: "_Simulation", s: int, t0: float):
        self.sim = sim
        self.s = s
        self.t0 = t0
        self.flows, calm = sim.program.step(s)
        self.perturbed = not sim.fabric.pristine
        self.t_end = t0
        self.ghost = -np.inf
        self.stalled = np.zeros(self.flows.a.size, dtype=bool)
        lay = self._release(calm)
        self.eres, self.eflow = lay.eres, lay.eflow
        self.units, self.islink = lay.units, lay.islink
        self.head = lay.head
        self.outstanding = lay.outstanding.copy()
        self.rkind, self.rlink = lay.rkind, lay.rlink
        self.rcls, self.rrank = lay.rcls, lay.rrank
        self.appended = False  # rerouted entries broke the queue order
        self._link_res: dict[int, int] | None = None
        n_r = self.rkind.size
        self.factor = self._factors()
        self.cunit = self._cunits()
        bad = np.flatnonzero(self.factor <= 0.0)
        if bad.size:
            raise self._zero_rate(bad)
        # every queue starts serving its first entry at t0
        first = np.flatnonzero(self.head)
        self.state = np.full(self.eres.size, _QUEUED, dtype=np.int8)
        self.state[first] = _SERVING
        self.srv = first
        self.serve_start = np.full(n_r, t0)
        self.serve_left = self.units[first]
        self.sched_fin = t0 + self.units[first] * self.cunit / self.factor
        self.busy = np.zeros(n_r)

    def _release(self, calm: _Layout) -> _Layout:
        """The step's queues at ``t0``: ``calm`` unless a dynamic fault
        touches a flow's base route, which then takes
        :meth:`FabricState.route` instead."""
        sim, flows = self.sim, self.flows
        fabric, routes = sim.fabric, sim.routes
        fab = np.zeros(flows.a.size, dtype=bool)
        if fabric.down_nodes:
            down = np.fromiter(fabric.down_nodes, np.intp)
            fab |= np.isin(flows.a, down) | np.isin(flows.b, down)
        if fabric.down_links:
            ids = [i for i in map(routes.link_id, fabric.down_links) if i >= 0]
            fab[calm.eflow[np.isin(calm.rlink[calm.eres], ids)]] = True
        if not fab.any():
            return calm
        kept = calm.islink & ~fab[calm.eflow]
        r = calm.eres[kept]
        cols = [(calm.eflow[kept], calm.rlink[r], calm.rcls[r], calm.units[kept])]
        nic = flows.nic.copy()
        for f in np.flatnonzero(fab).tolist():
            a, b = int(flows.a[f]), int(flows.b[f])
            try:
                route = fabric.route(a, b)
            except TopologyPartitionedError:
                self._record_stall(f, self.t0)
                continue
            ids, classes = routes.intern_links(route)
            ne = flows.ne[f]
            cols.append((
                np.full(len(route), f), np.array(ids, dtype=np.intp),
                np.array(classes, dtype=np.intp),
                np.array([ne / link.width for link in route]),
            ))
            nic[f] = any(link.cls != LinkClass.INTRA for link in route)
        return _layout(
            flows, [np.concatenate(c) for c in zip(*cols)],
            np.flatnonzero(nic & ~self.stalled),
        )

    def _factors(self) -> np.ndarray:
        """Every resource's dynamic rate factor under the current fabric."""
        fabric = self.sim.fabric
        cls_factor = np.array(
            [fabric.link_factor(c) for c in self.sim.routes.cls_names]
        )
        links = self.rkind == _LINK
        out = np.full(self.rkind.size, 1.0 - fabric.background)
        out[links] = cls_factor[self.rcls[links]]
        if fabric.nic_down:
            nodes = self.sim.program.node_of[self.rrank[~links]]
            out[~links] = [fabric.port_factor(v) for v in nodes.tolist()]
        return out

    def _cunits(self) -> np.ndarray:
        """Seconds per load unit at factor 1.0, per resource."""
        sim = self.sim
        sb = sim.scale * sim.b
        cls_cunit = np.array(
            [sb * sim.params.beta.get(c, 0.0) for c in sim.routes.cls_names]
        )
        links = self.rkind == _LINK
        out = np.full(self.rkind.size, sb * sim.params.inj_beta / sim.ports)
        out[links] = cls_cunit[self.rcls[links]]
        return out

    def _key(self, r: int) -> tuple:
        kind = int(self.rkind[r])
        if kind == _LINK:
            return ("L", self.sim.routes.link_keys[self.rlink[r]])
        return (_KIND_NAMES[kind], int(self.rrank[r]))

    def _zero_rate(self, rs) -> DESEngineError:
        key = min((self._key(int(r)) for r in rs), key=repr)
        return DESEngineError(
            f"resource {key!r}: composed rate factor underflowed "
            "to zero (derate x background leaves no capacity)"
        )

    # -- drain ------------------------------------------------------------

    def drain(self) -> float:
        """Serve every queue to empty; the phase's transport time."""
        sim = self.sim
        q, rq, head = np.arange(self.eres.size), self.eres, self.head
        while True:
            # finish times: each queue's in-service finish, then a chain
            # of service times behind it
            fin = self.units[q] * self.cunit[rq] / self.factor[rq]
            fin[head] = self.sched_fin[rq[head]]
            fin = _queue_sums(head, fin)
            last = fin.max() if fin.size else -np.inf
            event = sim.fabric.pending_event()
            if event is None or event.at > max(last, self.ghost):
                break
            # served: every entry finishing strictly before the event
            self._serve(q, rq, head, fin, fin < event.at)
            self.perturbed = True
            sim.events_processed += 1
            self._apply_event(max(self.t0, event.at))
            q, rq, head = self._live()
        # no event left inside the phase: every queue drains to empty
        sim.events_processed += q.size
        if q.size:
            self.t_end = max(self.t_end, last)
        if not self.perturbed:
            return self._calm_bw()
        if sim.track_busy:
            self._add_busy(rq, head, fin, np.ones(q.size, dtype=bool))
            self._record_link_busy()
        return self.t_end - self.t0 if self.t_end > self.t0 else 0.0

    def _live(self) -> tuple:
        """Live entries in queue order, their resources and queue heads."""
        live = np.flatnonzero(self.state <= _SERVING)
        rq = self.eres[live]
        if self.appended:
            order = np.argsort(rq, kind="stable")
            live, rq = live[order], rq[order]
        return live, rq, _heads(rq)

    def _serve(self, q, rq, head, fin, done) -> None:
        """Retire the entries ``done``; each queue starts its next entry
        at the finish of the one before."""
        if self.sim.track_busy:
            self._add_busy(rq, head, fin, done)
        served = q[done]
        self.state[served] = _SERVED
        self.outstanding -= np.bincount(
            self.eflow[served], minlength=self.outstanding.size
        )
        self.sim.events_processed += served.size
        if served.size:
            self.t_end = max(self.t_end, fin[done].max())
        nxt = np.flatnonzero(~done[1:] & done[:-1] & ~head[1:]) + 1
        e, r = q[nxt], rq[nxt]
        self.state[e] = _SERVING
        self.srv[r] = e
        self.serve_start[r] = fin[nxt - 1]
        self.serve_left[r] = self.units[e]
        self.sched_fin[r] = fin[nxt]
        tail = np.append(head[1:], True)
        self.srv[rq[tail & done]] = -1

    def _add_busy(self, rq, head, fin, done) -> None:
        start = np.empty_like(fin)
        start[1:] = fin[:-1]
        start[head] = self.serve_start[rq[head]]
        np.add.at(self.busy, rq[done], (fin - start)[done])

    def _calm_bw(self) -> float:
        """Unperturbed busy periods from the served-unit sums — the same
        sums, products and maxes the analytic engine computes."""
        sim, params = self.sim, self.sim.params
        if not self.units.size:
            return 0.0
        tail = np.append(self.head[1:], True)
        units_done = _queue_sums(self.head, self.units)[tail]
        links = self.rkind == _LINK
        cls_beta = np.array(
            [params.beta.get(c, 0.0) for c in sim.routes.cls_names]
        )
        link_busy = (
            units_done[links] * sim.scale * sim.b * cls_beta[self.rcls[links]]
        )
        port_busy = (
            np.trunc(units_done[~links]) * sim.scale * sim.b
            * params.inj_beta / sim.ports
        )
        return max(0.0, link_busy.max(initial=0.0), port_busy.max(initial=0.0))

    def _record_link_busy(self) -> None:
        """Per-link busy time of a perturbed phase (trace telemetry)."""
        link_busy = self.sim.link_busy
        links = (self.rkind == _LINK) & (self.busy > 0.0)
        for link, busy in zip(self.rlink[links].tolist(), self.busy[links].tolist()):
            link_busy[link] = link_busy.get(link, 0.0) + busy

    # -- timeline events ----------------------------------------------------

    def _apply_event(self, now: float) -> None:
        sim = self.sim
        flows = self.flows
        changed = sim.fabric.apply_next()
        if changed["nodes"]:
            down = np.array(changed["nodes"])
            hit = (
                ~self.stalled & (self.outstanding > 0)
                & (np.isin(flows.a, down) | np.isin(flows.b, down))
            )
            for f in np.flatnonzero(hit).tolist():
                self._stall(f, now)
        if changed["links"]:
            ids = [i for i in map(sim.routes.link_id, changed["links"]) if i >= 0]
            pending = (
                (self.state <= _SERVING) & self.islink
                & np.isin(self.rlink[self.eres], ids)
            )
            hit = np.unique(self.eflow[pending])
            hit = hit[~self.stalled[hit] & (self.outstanding[hit] > 0)]
            for f in hit.tolist():
                self._reroute(f, now)
        if changed["rates"]:
            self._refresh_rates(now)

    def _refresh_rates(self, now: float) -> None:
        """Preempt and resume every in-flight service whose rate changed."""
        new = self._factors()
        changed = np.flatnonzero(new != self.factor)
        serving = changed[self.srv[changed] >= 0].tolist()
        self.sim.preemptions += len(serving)
        for r in serving:
            self._preempt(r, now)
        self.factor[changed] = new[changed]
        bad = [r for r in serving if self.factor[r] <= 0.0]
        if bad:
            raise self._zero_rate(bad)
        for r in serving:
            self._begin(r, self.srv[r], now, self.serve_left[r])

    def _record_stall(self, f: int, now: float) -> None:
        self.stalled[f] = True
        a, b = int(self.flows.a[f]), int(self.flows.b[f])
        self.sim.stalls.append(
            StallRecord(step=self.s, src_node=a, dst_node=b, at=now)
        )
        obs.instant("des.stall", step=self.s, src=a, dst=b)

    def _stall(self, f: int, now: float) -> None:
        """Remove a flow that lost every route, cancelling its entries."""
        self._record_stall(f, now)
        mine = np.flatnonzero(self.eflow == f)
        for e in mine[np.argsort(~self.islink[mine], kind="stable")].tolist():
            if self.state[e] < _SERVED:
                self._cancel(e, now)

    def _reroute(self, f: int, now: float) -> None:
        """Move a flow's unfinished remainder onto a surviving route."""
        mine = np.flatnonzero((self.eflow == f) & self.islink).tolist()
        remaining_frac = 0.0
        for e in mine:
            units = self.units[e]
            if self.state[e] >= _SERVED or units <= 0.0:
                continue
            r = self.eres[e]
            left = self.serve_left[r] if self.srv[r] == e else units
            remaining_frac = max(remaining_frac, left / units)
        if remaining_frac <= 0.0:
            return  # link work already done; ports finish on their own
        for e in mine:
            if self.state[e] < _SERVED:
                self._cancel(e, now)
        a, b = int(self.flows.a[f]), int(self.flows.b[f])
        try:
            route = self.sim.fabric.route(a, b)
        except TopologyPartitionedError:
            self._stall(f, now)
            return
        rem = self.flows.ne[f] * remaining_frac
        self._attach(f, route, [rem / link.width for link in route], now)
        self.sim.reroutes += 1
        obs.instant("des.reroute", step=self.s, src=a, dst=b)

    def _cancel(self, e: int, now: float) -> None:
        self.state[e] = _CANCELLED
        self.outstanding[self.eflow[e]] -= 1
        r = self.eres[e]
        if self.srv[r] == e:
            self.sim.preemptions += 1
            self._preempt(r, now)
            self._start_next(r, now)

    def _preempt(self, r: int, now: float) -> None:
        """Stop the in-flight service, banking elapsed progress."""
        elapsed = now - self.serve_start[r]
        if self.cunit[r] > 0.0 and elapsed > 0.0:
            done = min(elapsed * self.factor[r] / self.cunit[r], self.serve_left[r])
            self.serve_left[r] -= done
            self.busy[r] += elapsed
        self.ghost = max(self.ghost, self.sched_fin[r])

    def _start_next(self, r: int, now: float) -> None:
        """Begin serving the resource's next queued entry, if any."""
        queued = np.flatnonzero((self.eres == r) & (self.state == _QUEUED))
        if queued.size:
            self._begin(r, queued[0], now, self.units[queued[0]])
        else:
            self.srv[r] = -1

    def _begin(self, r: int, e: int, now: float, units: float) -> None:
        """Serve ``units`` of entry ``e`` on resource ``r`` from ``now``."""
        if self.factor[r] <= 0.0:
            raise self._zero_rate([r])
        self.state[e] = _SERVING
        self.srv[r] = e
        self.serve_start[r] = now
        self.serve_left[r] = units
        self.sched_fin[r] = now + units * self.cunit[r] / self.factor[r]

    def _attach(self, f: int, route: list, units: list, now: float) -> None:
        """Queue a rerouted remainder at the tails of its new links."""
        ids, classes = self.sim.routes.intern_links(route)
        rs = [self._link_resource(i, c) for i, c in zip(ids, classes)]
        self.eres = np.append(self.eres, rs)
        self.eflow = np.append(self.eflow, [f] * len(rs))
        self.units = np.append(self.units, units)
        self.islink = np.append(self.islink, [True] * len(rs))
        self.state = np.append(self.state, [_QUEUED] * len(rs)).astype(np.int8)
        self.outstanding[f] += len(rs)
        self.appended = True
        for r in rs:
            if self.srv[r] < 0:
                self._start_next(r, now)

    def _link_resource(self, link_id: int, cls: int) -> int:
        """The phase's resource for ``link_id``, created if new."""
        if self._link_res is None:
            self._link_res = {
                int(link): r for r, link in enumerate(self.rlink.tolist())
                if link >= 0
            }
        r = self._link_res.get(link_id)
        if r is not None:
            return r
        sim = self.sim
        name = sim.routes.cls_names[cls]
        r = self._link_res[link_id] = self.rkind.size
        self.rkind = np.append(self.rkind, _LINK)
        self.rlink = np.append(self.rlink, link_id)
        self.rcls = np.append(self.rcls, cls)
        self.rrank = np.append(self.rrank, -1)
        self.factor = np.append(self.factor, sim.fabric.link_factor(name))
        self.cunit = np.append(
            self.cunit, sim.scale * sim.b * sim.params.beta.get(name, 0.0)
        )
        self.srv = np.append(self.srv, -1)
        self.serve_start = np.append(self.serve_start, 0.0)
        self.serve_left = np.append(self.serve_left, 0.0)
        self.sched_fin = np.append(self.sched_fin, 0.0)
        self.busy = np.append(self.busy, 0.0)
        return r


class _Simulation:
    """One collective execution: steps laid end to end on a global clock."""

    def __init__(
        self,
        table,
        profile: ScheduleProfile,
        topo: Topology,
        mapping: RankMap,
        params: CostParams,
        timeline: FaultTimeline,
        n_elems: float,
        force_event_loop: bool = False,
        program: FlowProgram | None = None,
    ):
        self.table = table
        self.profile = profile
        self.program = (
            program if program is not None
            else FlowProgram(table, topo, mapping)
        )
        self.routes = self.program.routes
        self.fabric = FabricState(topo, timeline)
        self.node_of = mapping.nodes
        self.params = params
        self.scale = n_elems / profile.n_build
        self.b = params.itemsize
        self.ports = min(params.ports, int(profile.meta.get("ports_used", 1)))
        self.force_event_loop = force_event_loop
        self.stalls: list[StallRecord] = []
        # telemetry tallies (pure bookkeeping — never feed back into times)
        self.events_processed = 0
        self.preemptions = 0
        self.reroutes = 0
        self.track_busy = obs.tracing_enabled()
        #: interned link id -> seconds serving, perturbed phases
        self.link_busy: dict[int, float] = {}

    # -- top level ---------------------------------------------------------

    def run(self) -> SimResult:
        profile, params = self.profile, self.params
        scale, b = self.scale, self.b
        pipelined = bool(profile.meta.get("pipelined"))
        segmented = profile.segmented
        total = 0.0
        max_step_bw = 0.0
        num_steps = max(1, len(profile.steps))
        clock = 0.0
        for s, step in enumerate(profile.steps):
            lat = 0.0
            for hops, segs in step.lat_signatures:
                t = params.alpha + max(0, segs - 1) * params.seg_overhead
                for cls, h in hops:
                    t += h * params.alpha_hop.get(cls, 0.0)
                lat = max(lat, t)
            lat += max(0, step.max_node_msgs - 2) * params.msg_cpu
            comp = step.max_reduce * scale * b * params.reduce_beta
            copy = step.max_copy * scale * b * params.copy_beta
            t0 = clock + lat
            self._drain_events_until(t0)
            bw = self._transport(s, step, t0)
            if pipelined:
                total += lat + copy
                max_step_bw = max(max_step_bw, bw + comp)
            elif segmented:
                total += lat + max(bw, comp) + copy
            else:
                total += lat + bw + comp + copy
            clock = t0 + bw + comp + copy
        if pipelined:
            total += max_step_bw * (1 + (num_steps - 1) / PIPELINE_CHUNKS)
        return SimResult(
            time=total, stalled=bool(self.stalls), stalls=tuple(self.stalls)
        )

    def _drain_events_until(self, t: float) -> None:
        """Apply timeline events due before a transport phase starts."""
        while True:
            event = self.fabric.pending_event()
            if event is None or event.at > t:
                return
            self.fabric.apply_next()

    def _calm_bw(self, step) -> float:
        """The analytic bandwidth term — what a calm phase drains in."""
        params, scale, b = self.params, self.scale, self.b
        bw = 0.0
        for cls, load in step.max_link_load:
            bw = max(bw, load * scale * b * params.beta.get(cls, 0.0))
        bw = max(
            bw,
            step.max_inj * scale * b * params.inj_beta / self.ports,
            step.max_ej * scale * b * params.inj_beta / self.ports,
        )
        return bw

    def _transport(self, s: int, step, t0: float) -> float:
        fabric = self.fabric
        if not self.force_event_loop and fabric.pristine:
            # Fast path: no dynamic effect is live, so the phase is exactly
            # the analytic drain — unless an event fires inside the window.
            bw = self._calm_bw(step)
            event = fabric.pending_event()
            if event is None or event.at >= t0 + bw:
                return bw
        return self._drain_phase(s, t0)

    def _drain_phase(self, s: int, t0: float) -> float:
        return _Phase(self, s, t0).drain()


def simulate_profile(
    table,
    profile: ScheduleProfile,
    topo: Topology,
    mapping: RankMap,
    params: CostParams,
    timeline: FaultTimeline,
    n_elems: float,
    *,
    force_event_loop: bool = False,
    program: FlowProgram | None = None,
) -> SimResult:
    """Simulate one collective execution; the DES counterpart of
    :func:`~repro.model.compiled.evaluate_time`.

    With an empty ``timeline`` the result's ``time`` is bit-identical to
    the analytic engine's (the calibration contract, asserted in tier-1);
    ``force_event_loop`` additionally pushes calm phases through the
    phase drain (used by the internal-consistency tests).  ``program`` is
    the :class:`FlowProgram` of ``table`` under ``mapping``, shared across
    the vector sizes of a sweep cell; a private one is built when omitted.
    """
    sim = _Simulation(
        table, profile, topo, mapping, params, timeline, n_elems,
        force_event_loop=force_event_loop, program=program,
    )
    with obs.span(
        "des.simulate", steps=len(profile.steps), timeline=timeline.label
    ) as sim_span:
        result = sim.run()
        sim_span.set(
            events=sim.events_processed,
            preemptions=sim.preemptions,
            reroutes=sim.reroutes,
            stalls=len(result.stalls),
        )
    obs.inc("des.simulations")
    if sim.events_processed:
        obs.inc("des.events", sim.events_processed)
    if sim.preemptions:
        obs.inc("des.preemptions", sim.preemptions)
    if sim.reroutes:
        obs.inc("des.reroutes", sim.reroutes)
    if result.stalls:
        obs.inc("des.stalls", len(result.stalls))
    if sim.link_busy and obs.tracing_enabled():
        top = sorted(sim.link_busy.items(), key=lambda kv: -kv[1])[:8]
        keys = sim.routes.link_keys
        obs.counter_event(
            "des.link_busy", {str(keys[k]): round(v, 9) for k, v in top}
        )
    return result
