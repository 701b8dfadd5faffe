"""Scalar reference profiler: the bit-identity oracle of the compiled kernel.

This is the per-transfer α-β-congestion profiler the sweep pipeline was
first written with.  :mod:`repro.model.compiled` replaced it with
transfer tables, CSR route matrices and grid evaluation; this module keeps
the scalar version so the tests can check, bit for bit, that the compiled
kernel computes the same :class:`~repro.model.simulator.StepProfile`
aggregates and the same times:

* :class:`RouteTable` interns one :class:`_PairRoute` per node pair;
  :func:`profile_step` folds one step's transfers over it with
  ``np.bincount``/``np.add.at`` in transfer order;
* :func:`profile_schedule` profiles a schedule step by step;
* :func:`evaluate_time` evaluates a profile at one vector size;
* :func:`oracle_sweep_records` / :func:`oracle_torus_records` rebuild the
  records of ``sweep_system`` / ``sweep_torus`` from the above.

:meth:`RouteTable.profile_step` has the signature of
:meth:`~repro.model.compiled.CompiledRouteTable.profile_step`, so the
analytic builders of :mod:`repro.model.analytic` accept an oracle table in
place of a compiled one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.analysis.sweep import SweepRecord, _selected_specs
from repro.model.analytic import ANALYTIC_PROFILES, ANALYTIC_THRESHOLD
from repro.model.cost import CostParams
from repro.model.simulator import (
    PIPELINE_CHUNKS,
    RunMetrics,
    ScheduleProfile,
    StepProfile,
)
from repro.runtime.schedule import Schedule, schedule_validation
from repro.topology.base import LinkClass, Topology
from repro.topology.mapping import RankMap, block_mapping


@dataclass(frozen=True)
class _PairRoute:
    """Precomputed routing data for one ordered node pair."""

    #: interned link indices along the minimal route (unique per route)
    link_idx: np.ndarray
    #: parallel physical-link widths (float, for exact load division)
    width: np.ndarray
    #: parallel link class ids (indices into the table's class-name list)
    cls_idx: np.ndarray
    #: ready-made latency signature: sorted ``(class, hop_count)`` pairs
    hops: tuple[tuple[str, int], ...]
    #: route leaves the node (any non-intra link) → counts as NIC traffic
    uses_nic: bool


class RouteTable:
    """Interned minimal routes for one topology, shared across profiles.

    Routes depend only on the node pair, never on the schedule or rank
    mapping, so all algorithms profiled against the same topology share one
    table.  Links are interned to integer indices; node pairs resolve
    lazily to :class:`_PairRoute` entries that :func:`profile_step`
    consumes without touching the topology again.
    """

    def __init__(self, topo: Topology):
        self.topo = topo
        self._pairs: dict[tuple[int, int], _PairRoute] = {}
        self._link_ids: dict[tuple, int] = {}
        self._cls_ids: dict[str, int] = {}
        self.cls_names: list[str] = []

    def __len__(self) -> int:
        return len(self._pairs)

    def pair(self, a: int, b: int) -> _PairRoute:
        """Routing data for nodes ``a → b`` (computed once, then cached)."""
        key = (a, b)
        pr = self._pairs.get(key)
        if pr is None:
            pr = self._intern(a, b)
            self._pairs[key] = pr
        return pr

    def profile_step(self, transfers, local_ops, node_of, groups) -> StepProfile:
        """:func:`profile_step` on this table, with the argument order of
        :meth:`repro.model.compiled.CompiledRouteTable.profile_step`."""
        return profile_step(transfers, local_ops, self, node_of, groups)

    def _intern(self, a: int, b: int) -> _PairRoute:
        route = self.topo.route(a, b)
        idx, width, cls_idx = [], [], []
        hops: dict[str, int] = {}
        uses_nic = False
        for link in route:
            li = self._link_ids.get(link.key)
            if li is None:
                li = self._link_ids[link.key] = len(self._link_ids)
            ci = self._cls_ids.get(link.cls)
            if ci is None:
                ci = self._cls_ids[link.cls] = len(self._cls_ids)
                self.cls_names.append(link.cls)
            idx.append(li)
            width.append(float(link.width))
            cls_idx.append(ci)
            hops[link.cls] = hops.get(link.cls, 0) + 1
            if link.cls != LinkClass.INTRA:
                uses_nic = True
        return _PairRoute(
            link_idx=np.asarray(idx, dtype=np.intp),
            width=np.asarray(width, dtype=np.float64),
            cls_idx=np.asarray(cls_idx, dtype=np.intp),
            hops=tuple(sorted(hops.items())),
            uses_nic=uses_nic,
        )


def profile_step(
    transfers,
    local_ops,
    routes: RouteTable,
    node_of,
    groups,
) -> StepProfile:
    """Collapse one step's transfers/local ops into a :class:`StepProfile`.

    ``transfers`` yields ``(src_rank, dst_rank, nelems, num_segments, has_op)``
    tuples; ``local_ops`` yields ``(rank, nelems, has_op)``; ``node_of`` and
    ``groups`` are per-rank node / group tables; ``routes`` is the shared
    :class:`RouteTable` of the topology being profiled.

    Per-rank aggregates (messages, injection/ejection, reduction, copies)
    accumulate through ``np.bincount``; per-link loads accumulate through one
    ``np.add.at`` over the concatenated route-link indices, which adds
    contributions in transfer order — bit-identical to the sequential
    per-link scalar accumulation.
    """
    transfers = list(transfers)
    p = len(node_of)
    signatures: set = set()
    max_by_class: dict[str, float] = {}
    class_elems: dict[str, int] = {}

    n_t = len(transfers)
    idx_chunks: list[np.ndarray] = []
    contrib_chunks: list[np.ndarray] = []
    cls_chunks: list[np.ndarray] = []
    nic_l = []
    same_l = []
    crosses_l = []

    if n_t:
        pair_map = routes._pairs
        src_l, dst_l, ne_l, nsegs_l, op_l = zip(*transfers)
        for s_, d_, ne_, nsegs_ in zip(src_l, dst_l, ne_l, nsegs_l):
            a, b = node_of[s_], node_of[d_]
            pr = pair_map.get((a, b))
            if pr is None:
                pr = routes.pair(a, b)
            nic_l.append(pr.uses_nic)
            same_l.append(a == b)
            crosses_l.append(groups[s_] != groups[d_])
            signatures.add((pr.hops, nsegs_))
            if pr.link_idx.size:
                idx_chunks.append(pr.link_idx)
                contrib_chunks.append(ne_ / pr.width)
                cls_chunks.append(pr.cls_idx)
                for cls, h in pr.hops:
                    class_elems[cls] = class_elems.get(cls, 0) + ne_ * h
        src = np.fromiter(src_l, np.intp, n_t)
        dst = np.fromiter(dst_l, np.intp, n_t)
        ne = np.fromiter(ne_l, np.float64, n_t)
        nic = np.fromiter(nic_l, bool, n_t)
        red_mask = np.fromiter(op_l, bool, n_t)
        same_node = np.fromiter(same_l, bool, n_t)
        crosses = np.fromiter(crosses_l, bool, n_t)

    if idx_chunks:
        cat_idx = np.concatenate(idx_chunks)
        cat_contrib = np.concatenate(contrib_chunks)
        cat_cls = np.concatenate(cls_chunks)
        uniq, local = np.unique(cat_idx, return_inverse=True)
        loads = np.zeros(uniq.size, dtype=np.float64)
        # np.add.at is unbuffered: repeated indices add sequentially in
        # array order, so each link sums its contributions in transfer
        # order exactly as the scalar loop did.
        np.add.at(loads, local, cat_contrib)
        link_cls = np.zeros(uniq.size, dtype=np.intp)
        link_cls[local] = cat_cls
        for ci in np.unique(link_cls):
            m = loads[link_cls == ci].max()
            if m > 0:
                max_by_class[routes.cls_names[ci]] = float(m)

    if n_t:
        msgs = np.bincount(src, minlength=p) + np.bincount(dst, minlength=p)
        max_node_msgs = int(msgs.max())
        # NIC injection/ejection; intra-node (clique / shared-memory)
        # traffic rides the node-local fabric instead.
        max_inj = int(np.bincount(src[nic], weights=ne[nic], minlength=p).max())
        max_ej = int(np.bincount(dst[nic], weights=ne[nic], minlength=p).max())
        # same node, ppn > 1: a shared-memory copy
        copy_mask = ~nic & same_node
        copy_by_rank = np.bincount(dst[copy_mask], weights=ne[copy_mask], minlength=p)
        red_by_rank = np.bincount(dst[red_mask], weights=ne[red_mask], minlength=p)
        global_elems = int(ne[crosses].sum())
    else:
        max_node_msgs = max_inj = max_ej = global_elems = 0
        copy_by_rank = np.zeros(p, dtype=np.float64)
        red_by_rank = np.zeros(p, dtype=np.float64)

    for rank, nelems, has_op in local_ops:
        copy_by_rank[rank] += nelems
        if has_op:
            red_by_rank[rank] += nelems

    return StepProfile(
        lat_signatures=tuple(sorted(signatures)),
        max_link_load=tuple(sorted(max_by_class.items())),
        max_inj=max_inj,
        max_ej=max_ej,
        max_reduce=int(red_by_rank.max()) if p else 0,
        max_copy=int(copy_by_rank.max()) if p else 0,
        global_elems=global_elems,
        class_elems=tuple(sorted(class_elems.items())),
        max_node_msgs=max_node_msgs,
    )


def profile_schedule(
    schedule: Schedule,
    topo: Topology,
    rank_map: RankMap,
    *,
    routes: RouteTable | None = None,
) -> ScheduleProfile:
    """Route every transfer and collapse each step into aggregates.

    Pass ``routes`` to share one node-pair route table across many profiles
    of the same topology; omitted, a private table is built for this call.
    """
    if rank_map.num_ranks != schedule.p:
        raise ValueError(
            f"mapping covers {rank_map.num_ranks} ranks, schedule needs {schedule.p}"
        )
    if routes is None:
        routes = RouteTable(topo)
    elif routes.topo is not topo:
        raise ValueError("routes table was built for a different topology")
    groups = rank_map.groups(topo)
    steps = []
    for step in schedule.steps:
        steps.append(
            profile_step(
                (
                    (t.src, t.dst, t.nelems, t.num_segments, t.op is not None)
                    for t in step.transfers
                ),
                (
                    (lc.rank, lc.nelems, lc.op is not None)
                    for lc in chain(step.pre, step.post)
                ),
                routes,
                rank_map.nodes,
                groups,
            )
        )
    return ScheduleProfile(
        p=schedule.p,
        n_build=schedule.meta.get("n", schedule.p),
        meta=dict(schedule.meta),
        steps=tuple(steps),
    )


def evaluate_time(
    profile: ScheduleProfile, params: CostParams, n_elems: int
) -> RunMetrics:
    """Time and traffic for a vector of ``n_elems`` elements.

    Two schedule-level meta flags refine the step-sum law:

    * ``segmented`` — reduction compute overlaps transport within a step
      (Sec. 5.2.2);
    * ``pipelined`` — successive steps forward the *same* data (chain/tree
      pipelines like Trinaryx): bandwidth terms overlap across steps, so
      the total pays the per-step latency sum but only
      ``max_bw · (1 + (steps − 1)/chunks)`` of bandwidth.
    * ``ports_used`` — how many NICs the schedule can drive concurrently
      (App. D.4 multiported schedules); capped by the machine's ports.
    """
    scale = n_elems / profile.n_build
    b = params.itemsize
    ports = min(params.ports, int(profile.meta.get("ports_used", 1)))
    total = 0.0
    max_step_bw = 0.0
    num_steps = max(1, len(profile.steps))
    for step in profile.steps:
        lat = 0.0
        for hops, segs in step.lat_signatures:
            t = params.alpha + max(0, segs - 1) * params.seg_overhead
            for cls, h in hops:
                t += h * params.alpha_hop.get(cls, 0.0)
            lat = max(lat, t)
        # endpoint message processing serialises (flat algorithms' roots
        # handle p−1 messages "in one step")
        lat += max(0, step.max_node_msgs - 2) * params.msg_cpu
        bw = 0.0
        for cls, load in step.max_link_load:
            bw = max(bw, load * scale * b * params.beta.get(cls, 0.0))
        bw = max(
            bw,
            step.max_inj * scale * b * params.inj_beta / ports,
            step.max_ej * scale * b * params.inj_beta / ports,
        )
        comp = step.max_reduce * scale * b * params.reduce_beta
        copy = step.max_copy * scale * b * params.copy_beta
        if profile.meta.get("pipelined"):
            total += lat + copy
            max_step_bw = max(max_step_bw, bw + comp)
        elif profile.segmented:
            total += lat + max(bw, comp) + copy
        else:
            total += lat + bw + comp + copy
    if profile.meta.get("pipelined"):
        total += max_step_bw * (1 + (num_steps - 1) / PIPELINE_CHUNKS)
    return RunMetrics(
        time=total,
        global_bytes=profile.total_global_elems() * scale * b,
        bytes_by_class={
            cls: e * scale * b for cls, e in profile.total_class_elems().items()
        },
    )


# -- sweep records -----------------------------------------------------------


def _records(profile, system, spec, p, vector_bytes, params, faults, ppn):
    out = []
    for nb in vector_bytes:
        m = evaluate_time(profile, params, nb / params.itemsize)
        out.append(SweepRecord(
            system=system, collective=spec.collective, algorithm=spec.name,
            family=spec.family, p=p, n_bytes=nb, time=float(m.time),
            global_bytes=float(m.global_bytes), faults=faults, ppn=ppn,
        ))
    return out


def oracle_profile(cache, spec, p: int, ppn: int, routes: RouteTable):
    """The scalar profile ``cache.get(spec, p, ppn)`` must equal.

    Mirrors the sweep's choice of builder (analytic above
    ``ANALYTIC_THRESHOLD`` and for alltoall, the exact schedule otherwise)
    on the cache's topology and its already-sampled mapping.
    """
    if not cache.applicable(spec, p, ppn):
        return None
    mapping = cache.mapping_for(p, ppn)
    analytic = ANALYTIC_PROFILES.get((spec.collective, spec.name))
    if analytic is not None and (
        p > ANALYTIC_THRESHOLD or spec.collective == "alltoall"
    ):
        if spec.pow2_only and p & (p - 1):
            return None
        return analytic(p, cache.topo, mapping, routes=routes)
    try:
        with schedule_validation(False):
            schedule = spec.build(p, p)
    except ValueError:
        return None
    return profile_schedule(schedule, cache.topo, mapping, routes=routes)


def oracle_sweep_records(
    cache, collectives, *, node_counts, vector_bytes, params=None,
    max_p=None, ppn: int = 1,
) -> list[SweepRecord]:
    """``sweep_system(..., cache=cache)`` records, recomputed by the oracle.

    Run the compiled sweep on ``cache`` first: the oracle reuses the
    mappings it sampled (scheduler placements are order-dependent draws).
    """
    params = params or cache.preset.params
    routes = RouteTable(cache.topo)
    records = []
    for spec in _selected_specs(collectives, None):
        for p in node_counts:
            if max_p and p > max_p.get(spec.collective, p):
                continue
            profile = oracle_profile(cache, spec, p, ppn, routes)
            if profile is not None:
                records += _records(
                    profile, cache.preset.name, spec, p, vector_bytes,
                    params, cache.faults_label, ppn,
                )
    return records


def oracle_torus_records(preset, dims, collectives, *, vector_bytes):
    """``sweep_torus(preset, dims, collectives, ...)`` records, by the oracle."""
    from repro.collectives.torus import torus_specs
    from repro.core.torus_opt import TorusShape
    from repro.topology.torus import Torus

    shape = TorusShape(tuple(dims))
    topo = Torus(tuple(dims))
    mapping = block_mapping(shape.num_ranks)
    system = f"{preset.name}:{'x'.join(str(d) for d in dims)}"
    records = []
    for spec in torus_specs(collectives, None):
        with schedule_validation(False):
            schedule = spec.build(shape)
        profile = profile_schedule(schedule, topo, mapping)
        records += _records(
            profile, system, spec, shape.num_ranks, vector_bytes,
            preset.params, "none", 1,
        )
    return records
