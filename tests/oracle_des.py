"""Per-entry event-heap DES loop: the bit-identity oracle of the phase drain.

:mod:`repro.des.engine` used to drain every transport phase on one binary
event heap, pushing and popping one event per ``(flow, resource)`` entry
and interleaving timeline events with flow completions.  The engine now
drains phases as per-resource arrays; this module keeps the heap loop
(``_Resource`` / ``_Entry`` / ``_Flow`` and the loop itself, unchanged)
so the tests can check, bit for bit, that the drain computes the same
:class:`~repro.des.engine.SimResult` and the same tallies:

* :class:`OracleSimulation` is the engine's ``_Simulation`` with the heap
  loop as its phase drain (release, step composition, fabric state and
  the calm fast path are shared);
* :func:`oracle_run` / :func:`engine_run` simulate one cell and return
  ``(result, (events, preemptions, reroutes))``.
"""

from __future__ import annotations

import heapq

from repro import obs
from repro.des.engine import SimResult, StallRecord, _Simulation
from repro.runtime.errors import DESEngineError, TopologyPartitionedError
from repro.topology.base import LinkClass


class _Resource:
    """One FIFO-served capacity constraint (a link, or a rank's NIC port).

    ``units_done`` accumulates served load units in service (= release)
    order — on an unperturbed phase that reproduces the analytic per-link
    load sum add for add, which is what makes calm DES output
    bit-identical to the analytic engine.
    """

    __slots__ = (
        "key", "kind", "cls", "cunit", "factor", "queue", "head",
        "units_done", "serial", "serving", "serve_start", "serve_left",
        "busy_s",
    )

    def __init__(self, key, kind: str, cls: str | None, cunit: float, factor: float):
        self.key = key
        self.kind = kind  # "link" | "inj" | "ej"
        self.cls = cls
        self.cunit = cunit  # seconds per load unit at factor 1.0
        self.factor = factor
        self.queue: list = []  # _Entry, appended in flow-release order
        self.head = 0
        self.units_done = 0.0
        self.serial = 0  # invalidates stale finish events after preemption
        self.serving: "_Entry | None" = None
        self.serve_start = 0.0
        self.serve_left = 0.0
        self.busy_s = 0.0  # wall-clock spent serving (telemetry only)

    def service_time(self, units: float) -> float:
        if self.factor <= 0.0:
            raise DESEngineError(
                f"resource {self.key!r}: composed rate factor underflowed "
                "to zero (derate x background leaves no capacity)"
            )
        return units * self.cunit / self.factor

    def start_next(self, now: float, heap: list, seq: list) -> None:
        """Begin serving the next live queue entry, if any."""
        while self.head < len(self.queue):
            entry = self.queue[self.head]
            self.head += 1
            if entry.cancelled:
                continue
            self.serving = entry
            self.serve_start = now
            self.serve_left = entry.units
            seq[0] += 1
            heapq.heappush(
                heap, (now + self.service_time(entry.units), seq[0],
                       self, self.serial)
            )
            return
        self.serving = None

    def preempt(self, now: float) -> None:
        """Stop the in-flight service, folding elapsed progress in."""
        if self.serving is None:
            return
        elapsed = now - self.serve_start
        if self.cunit > 0.0 and elapsed > 0.0:
            done = min(elapsed * self.factor / self.cunit, self.serve_left)
            self.serve_left -= done
            self.units_done += done
            self.busy_s += elapsed
        self.serial += 1  # in-flight finish event is now stale

    def resume(self, now: float, heap: list, seq: list) -> None:
        """Reschedule the preempted in-flight service at the current rate."""
        if self.serving is None:
            return
        self.serve_start = now
        seq[0] += 1
        heapq.heappush(
            heap, (now + self.service_time(self.serve_left), seq[0],
                   self, self.serial)
        )


class _Entry:
    """One flow's pending service on one resource."""

    __slots__ = ("flow", "units", "cancelled", "served")

    def __init__(self, flow: "_Flow", units: float):
        self.flow = flow
        self.units = units
        self.cancelled = False
        self.served = False


class _Flow:
    """One transfer of the current step, in flight."""

    __slots__ = (
        "idx", "src_node", "dst_node", "nelems", "uses_nic",
        "link_entries", "port_entries", "outstanding", "stalled",
    )

    def __init__(self, idx: int, src_node: int, dst_node: int, nelems: float):
        self.idx = idx
        self.src_node = src_node
        self.dst_node = dst_node
        self.nelems = nelems
        self.uses_nic = False
        self.link_entries: list[tuple[_Resource, _Entry]] = []
        self.port_entries: list[tuple[_Resource, _Entry]] = []
        self.outstanding = 0
        self.stalled = False


class OracleSimulation(_Simulation):
    """The engine's simulation with the per-entry event heap as phase drain."""

    def _drain_phase(self, s: int, t0: float) -> float:
        """The discrete-event core: flow finishes and fault events on one heap."""
        fabric, params = self.fabric, self.params
        scale, b, ports = self.scale, self.b, self.ports
        table = self.table
        resources: dict = {}
        heap: list = []
        seq = [0]

        def link_resource(link) -> _Resource:
            key = ("L", link.key)
            res = resources.get(key)
            if res is None:
                res = _Resource(
                    key, "link", link.cls,
                    scale * b * params.beta.get(link.cls, 0.0),
                    fabric.link_factor(link.cls),
                )
                resources[key] = res
            return res

        def port_resource(kind: str, rank: int) -> _Resource:
            key = (kind, rank)
            res = resources.get(key)
            if res is None:
                res = _Resource(
                    key, kind, None, scale * b * params.inj_beta / ports,
                    fabric.port_factor(self.node_of[rank]),
                )
                resources[key] = res
            return res

        def attach(flow: _Flow, res: _Resource, units: float, is_link: bool):
            entry = _Entry(flow, units)
            res.queue.append(entry)
            (flow.link_entries if is_link else flow.port_entries).append(
                (res, entry)
            )
            flow.outstanding += 1

        def settle(entry: _Entry):
            """Mark one entry off the books (served or cancelled)."""
            entry.flow.outstanding -= 1

        def stall(flow: _Flow, now: float):
            flow.stalled = True
            self.stalls.append(
                StallRecord(step=s, src_node=flow.src_node,
                            dst_node=flow.dst_node, at=now)
            )
            obs.instant(
                "des.stall", step=s, src=flow.src_node, dst=flow.dst_node
            )
            for res, entry in flow.link_entries + flow.port_entries:
                if entry.served or entry.cancelled:
                    continue
                entry.cancelled = True
                settle(entry)
                if res.serving is entry:
                    self.preemptions += 1
                    res.preempt(now)
                    res.serving = None
                    res.start_next(now, heap, seq)

        def reroute(flow: _Flow, now: float):
            """Move a flow's unfinished remainder onto a surviving route."""
            remaining_frac = 0.0
            for res, entry in flow.link_entries:
                if entry.served or entry.cancelled or entry.units <= 0.0:
                    continue
                left = res.serve_left if res.serving is entry else entry.units
                remaining_frac = max(remaining_frac, left / entry.units)
            if remaining_frac <= 0.0:
                return  # link work already done; ports finish on their own
            for res, entry in flow.link_entries:
                if entry.served or entry.cancelled:
                    continue
                entry.cancelled = True
                settle(entry)
                if res.serving is entry:
                    self.preemptions += 1
                    res.preempt(now)
                    res.serving = None
                    res.start_next(now, heap, seq)
            try:
                route = fabric.route(flow.src_node, flow.dst_node)
            except TopologyPartitionedError:
                stall(flow, now)
                return
            rem = flow.nelems * remaining_frac
            for link in route:
                res = link_resource(link)
                attach(flow, res, rem / link.width, is_link=True)
                if res.serving is None:
                    res.start_next(now, heap, seq)
            self.reroutes += 1
            obs.instant(
                "des.reroute", step=s, src=flow.src_node, dst=flow.dst_node
            )

        def apply_mid_phase(now: float):
            changed = fabric.apply_next()
            if changed["nodes"]:
                down = set(changed["nodes"])
                for flow in list(live_flows):
                    if flow.stalled or flow.outstanding == 0:
                        continue
                    if flow.src_node in down or flow.dst_node in down:
                        stall(flow, now)
            if changed["links"]:
                failed = set(changed["links"])
                hit = []
                for flow in live_flows:
                    if flow.stalled or flow.outstanding == 0:
                        continue
                    for res, entry in flow.link_entries:
                        if (not entry.served and not entry.cancelled
                                and res.key[1] in failed):
                            hit.append(flow)
                            break
                for flow in hit:
                    reroute(flow, now)
            if changed["rates"]:
                for key in sorted(resources, key=repr):
                    res = resources[key]
                    new_f = (
                        fabric.link_factor(res.cls) if res.kind == "link"
                        else fabric.port_factor(self.node_of[res.key[1]])
                    )
                    if new_f != res.factor:
                        if res.serving is not None:
                            self.preemptions += 1
                        res.preempt(now)
                        res.factor = new_f
                        res.resume(now, heap, seq)

        # release every flow of the step at t0, in transfer order
        live_flows: list[_Flow] = []
        lo, hi = int(table.step_off[s]), int(table.step_off[s + 1])
        for i in range(lo, hi):
            src_rank, dst_rank = int(table.src[i]), int(table.dst[i])
            a, bnode = self.node_of[src_rank], self.node_of[dst_rank]
            ne = float(table.nelems[i])
            if a == bnode or ne <= 0.0:
                continue  # intra-node copy (the analytic copy term covers it)
            flow = _Flow(i, a, bnode, ne)
            live_flows.append(flow)
            try:
                route = fabric.route(a, bnode)
            except TopologyPartitionedError:
                stall(flow, t0)
                continue
            flow.uses_nic = any(link.cls != LinkClass.INTRA for link in route)
            for link in route:
                attach(flow, link_resource(link), ne / link.width, is_link=True)
            if flow.uses_nic:
                attach(flow, port_resource("inj", src_rank), ne, is_link=False)
                attach(flow, port_resource("ej", dst_rank), ne, is_link=False)
        for key in sorted(resources, key=repr):
            resources[key].start_next(t0, heap, seq)

        perturbed = not fabric.pristine
        t_end = t0
        while heap:
            t_fin = heap[0][0]
            event = fabric.pending_event()
            if event is not None and event.at <= t_fin:
                perturbed = True
                self.events_processed += 1
                apply_mid_phase(max(t0, event.at))
                continue
            t_fin, _, res, serial = heapq.heappop(heap)
            if serial != res.serial or res.serving is None:
                continue  # stale after a preemption
            self.events_processed += 1
            entry = res.serving
            entry.served = True
            res.units_done += entry.units
            res.busy_s += t_fin - res.serve_start
            settle(entry)
            res.serving = None
            t_end = t_fin
            res.start_next(t_fin, heap, seq)

        if perturbed:
            # per-link busy time: what the fabric actually spent serving
            # this phase's flows — the contention view a trace surfaces
            for key in sorted(resources, key=repr):
                res = resources[key]
                if res.kind == "link" and res.busy_s > 0.0:
                    label = str(res.key[1])
                    self.link_busy[label] = (
                        self.link_busy.get(label, 0.0) + res.busy_s
                    )
        if not perturbed:
            # Unperturbed phases report busy periods straight from the unit
            # bookkeeping — the same sums, products and maxes the analytic
            # engine computes, so the result is bit-identical to it.
            bw = 0.0
            for key in sorted(resources, key=repr):
                res = resources[key]
                if res.kind == "link":
                    busy = (
                        res.units_done * scale * b
                        * params.beta.get(res.cls, 0.0)
                    )
                else:
                    busy = (
                        int(res.units_done) * scale * b
                        * params.inj_beta / ports
                    )
                bw = max(bw, busy)
            return bw
        return t_end - t0 if t_end > t0 else 0.0


def _tallies(sim: _Simulation) -> tuple[int, int, int]:
    return sim.events_processed, sim.preemptions, sim.reroutes


def oracle_run(*args, **kwargs) -> tuple[SimResult, tuple[int, int, int]]:
    """Simulate through the heap loop; ``simulate_profile``'s arguments."""
    sim = OracleSimulation(*args, **kwargs)
    return sim.run(), _tallies(sim)


def engine_run(*args, **kwargs) -> tuple[SimResult, tuple[int, int, int]]:
    """Simulate through the engine's phase drain, with its tallies."""
    sim = _Simulation(*args, **kwargs)
    return sim.run(), _tallies(sim)
