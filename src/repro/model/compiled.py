"""Compiled profiling + grid evaluation — the cost model's one kernel.

Three lowering stages turn the build → route → profile → evaluate pipeline
into array programs, each bit-identical to the scalar reference profiler
kept as a test oracle (``tests/oracle_profile.py``; asserted across the
whole registry in ``tests/test_compiled_profile.py``):

* :class:`TransferTable` — a finalized :class:`~repro.runtime.schedule.Schedule`
  flattened *once* per ``(algorithm, p)`` into structure-of-arrays,
  step-segmented columns (``src`` / ``dst`` / ``nelems`` / ``num_segments`` /
  ``has_op`` plus the pre/post local-op columns).  The table depends only on
  the schedule — not on the topology or rank mapping — so one lowering
  serves every system, placement and seed of a campaign.
  :func:`transfer_table_for` memoizes tables per registry cell (bounded
  FIFO, cleared by :func:`repro.analysis.sweep.clear_memo_caches`), the
  profiling analogue of :func:`repro.collectives.verify.compiled_plan_for`.

* :class:`CompiledRouteTable` — one CSR route matrix per topology: per
  node pair, offsets into flat ``link_idx`` / ``width`` / ``cls_idx``
  arrays, plus an interned hop-signature id and a ``uses_nic`` flag, held
  in growable NumPy buffers that each step's unseen pairs append to.
  :meth:`CompiledRouteTable.profile_step_arrays` collapses a whole step
  with gathers, ``np.bincount`` and ``np.add.at`` — zero per-transfer
  Python.  Link-load contributions are expanded in exactly the
  concatenation order of the scalar oracle, and ``np.add.at`` is
  unbuffered, so the resulting :class:`~repro.model.simulator.StepProfile`
  floats are bit-identical to it.

* :func:`evaluate_grid` — evaluates one profile at *all* message sizes of a
  campaign in a single NumPy pass.  Per-step structure arrays (max loads by
  class, injection/ejection/reduce/copy maxima) are cached on the profile
  the first time it is evaluated; each call then replays the scalar
  step-sum arithmetic elementwise over the size axis, with the same
  operation order (products left-associated, per-step terms summed in step
  order via a running ``np.cumsum`` — a prefix sum cannot be regrouped
  pairwise), so every column equals the scalar evaluation bit for bit.

:func:`profile_schedule` and :func:`evaluate_time` are the one-schedule,
one-size conveniences over :func:`profile_table` and :func:`evaluate_grid`.
The sweep layer (:mod:`repro.analysis.sweep`) runs every profile through
this module whichever ``profile_engine`` it is given (``"compiled"`` by
default; ``"des"`` profiles here too and only *evaluates* by simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.model.cost import CostParams
from repro.model.simulator import (
    PIPELINE_CHUNKS,
    RunMetrics,
    ScheduleProfile,
    StepProfile,
)
from repro.runtime.schedule import Schedule, schedule_validation
from repro.topology.base import LinkClass, Topology
from repro.topology.mapping import RankMap

__all__ = [
    "TransferTable",
    "CompiledRouteTable",
    "GridMetrics",
    "lower_schedule",
    "StepColumns",
    "table_from_steps",
    "concat_tables",
    "transfer_table_for",
    "clear_table_cache",
    "profile_table",
    "profile_schedule",
    "evaluate_grid",
    "evaluate_time",
    "resolve_profile_engine",
    "PROFILE_ENGINES",
]

#: accepted values for the sweep layer's ``profile_engine`` knob —
#: ``compiled`` evaluates analytically; ``des`` is the discrete-event
#: fabric engine (:mod:`repro.des`), the only engine that can replay a
#: :class:`~repro.faults.FaultTimeline`
PROFILE_ENGINES = ("compiled", "des")


def resolve_profile_engine(engine: str | None = None) -> str:
    """The effective profile engine: the explicit ``engine``, else compiled.

    Example::

        >>> resolve_profile_engine()
        'compiled'
        >>> resolve_profile_engine("des")
        'des'
    """
    if engine is None:
        return "compiled"
    if engine == "python":
        raise ValueError(
            "profile engine 'python' was removed; use 'compiled' "
            "(bit-identical records)"
        )
    if engine not in PROFILE_ENGINES:
        raise ValueError(
            f"unknown profile engine {engine!r}; have {PROFILE_ENGINES}"
        )
    return engine


# -- transfer tables ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransferTable:
    """A schedule's transfers/local ops as step-segmented SoA columns.

    Step ``i``'s transfers are rows ``step_off[i]:step_off[i+1]`` of the
    transfer columns; its local ops (``pre`` then ``post``, in order) are
    rows ``local_off[i]:local_off[i+1]`` of the local columns.  Everything
    the profiler needs, nothing the executor needs: segment lists are
    collapsed to ``nelems`` / ``num_segments`` at lowering time.
    """

    p: int
    n_build: int
    meta: dict = field(hash=False)
    #: (num_steps + 1,) row offsets into the transfer columns
    step_off: np.ndarray = field(default=None)
    src: np.ndarray = field(default=None)
    dst: np.ndarray = field(default=None)
    nelems: np.ndarray = field(default=None)
    num_segments: np.ndarray = field(default=None)
    has_op: np.ndarray = field(default=None)
    #: (num_steps + 1,) row offsets into the local-op columns
    local_off: np.ndarray = field(default=None)
    local_rank: np.ndarray = field(default=None)
    local_nelems: np.ndarray = field(default=None)
    local_has_op: np.ndarray = field(default=None)

    @property
    def num_steps(self) -> int:
        return len(self.step_off) - 1

    @property
    def num_transfers(self) -> int:
        return int(self.src.size)


def lower_schedule(schedule: Schedule) -> TransferTable:
    """Flatten a schedule into a :class:`TransferTable` (one linear pass).

    Example::

        >>> from repro.collectives.registry import build
        >>> t = lower_schedule(build("bcast", "bine", 8, 8))
        >>> t.num_steps, t.num_transfers
        (3, 7)
    """
    step_off = [0]
    local_off = [0]
    src: list[int] = []
    dst: list[int] = []
    ne: list[int] = []
    nseg: list[int] = []
    has_op: list[bool] = []
    lrank: list[int] = []
    lne: list[int] = []
    lop: list[bool] = []
    for step in schedule.steps:
        for t in step.transfers:
            src.append(t.src)
            dst.append(t.dst)
            ne.append(t.nelems)
            nseg.append(t.num_segments)
            has_op.append(t.op is not None)
        for lc in chain(step.pre, step.post):
            lrank.append(lc.rank)
            lne.append(lc.nelems)
            lop.append(lc.op is not None)
        step_off.append(len(src))
        local_off.append(len(lrank))
    return TransferTable(
        p=schedule.p,
        n_build=schedule.meta.get("n", schedule.p),
        meta=dict(schedule.meta),
        step_off=np.asarray(step_off, dtype=np.intp),
        src=np.asarray(src, dtype=np.intp),
        dst=np.asarray(dst, dtype=np.intp),
        nelems=np.asarray(ne, dtype=np.int64),
        num_segments=np.asarray(nseg, dtype=np.int64),
        has_op=np.asarray(has_op, dtype=bool),
        local_off=np.asarray(local_off, dtype=np.intp),
        local_rank=np.asarray(lrank, dtype=np.intp),
        local_nelems=np.asarray(lne, dtype=np.int64),
        local_has_op=np.asarray(lop, dtype=bool),
    )


class StepColumns(NamedTuple):
    """One step's rows of a :class:`TransferTable`, for :func:`table_from_steps`.

    Transfer columns first, then the step's local ops (``pre`` then
    ``post``); a step without local ops leaves the last three empty.
    """

    src: np.ndarray
    dst: np.ndarray
    nelems: np.ndarray
    num_segments: np.ndarray
    has_op: np.ndarray
    local_rank: np.ndarray = np.zeros(0, dtype=np.intp)
    local_nelems: np.ndarray = np.zeros(0, dtype=np.int64)
    local_has_op: np.ndarray = np.zeros(0, dtype=bool)


_TRANSFER_COLUMNS = (
    ("src", np.intp), ("dst", np.intp), ("nelems", np.int64),
    ("num_segments", np.int64), ("has_op", bool),
)
_LOCAL_COLUMNS = (
    ("local_rank", np.intp), ("local_nelems", np.int64), ("local_has_op", bool),
)


def _offsets(counts) -> np.ndarray:
    off = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(np.asarray(counts, dtype=np.intp), out=off[1:])
    return off


def table_from_steps(p: int, meta: dict, steps: list[StepColumns]) -> TransferTable:
    """Assemble per-step columns into a :class:`TransferTable`.

    The columnar builders (:mod:`repro.collectives.butterfly_collectives`)
    emit steps this way; the result equals :func:`lower_schedule` of the
    schedule with the same steps, ``meta`` and ``n_build`` included.
    """
    def cat(name, dtype):
        parts = [getattr(st, name) for st in steps]
        return np.concatenate(parts).astype(dtype, copy=False) if parts else np.zeros(0, dtype)

    return TransferTable(
        p=p,
        n_build=meta.get("n", p),
        meta=dict(meta),
        step_off=_offsets([len(st.src) for st in steps]),
        local_off=_offsets([len(st.local_rank) for st in steps]),
        **{name: cat(name, dtype) for name, dtype in _TRANSFER_COLUMNS + _LOCAL_COLUMNS},
    )


def concat_tables(meta: dict, *tables: TransferTable) -> TransferTable:
    """The steps of ``tables`` run back to back, under ``meta`` — the table
    of a composed schedule (scatter + allgather, reduce-scatter + gather)."""
    def offsets(name):
        counts = np.concatenate([np.diff(getattr(t, name)) for t in tables])
        return _offsets(counts)

    return TransferTable(
        p=tables[0].p,
        n_build=meta.get("n", tables[0].p),
        meta=dict(meta),
        step_off=offsets("step_off"),
        local_off=offsets("local_off"),
        **{
            name: np.concatenate([getattr(t, name) for t in tables])
            for name, _ in _TRANSFER_COLUMNS + _LOCAL_COLUMNS
        },
    )


#: table memo — keyed per registry cell; bounded FIFO so 4096-rank tables
#: cannot accumulate without limit.  ``None`` entries record constraint
#: misses (pow2/divisibility) so they are not re-attempted.  The bound must
#: exceed a full campaign's exact-cell count (the reference 3-collective
#: LUMI grid to p=4096 touches ~100 cells; the FIFO replays in sweep order,
#: so a bound below the working set would evict every entry before reuse).
_TABLE_CACHE: dict[tuple, TransferTable | None] = {}
_TABLE_CACHE_MAX = 512


def transfer_table_for(spec, p: int) -> TransferTable | None:
    """Cached :class:`TransferTable` for one ``(collective, algorithm, p)``.

    The table of the schedule at the canonical size ``n = p``, built with
    validation off (the sweep's contract: it rebuilds schedules the test
    suite already validates); ``None`` when the builder rejects ``p``.
    Entries with a columnar lowering (``spec.columnar``: the butterfly
    families) emit the table directly — equal to lowering the built
    schedule, without building one (``lower.columnar`` counts them); the
    rest build the schedule and :func:`lower_schedule` it.  The table is
    topology- and mapping-independent, so every system / placement / seed
    of a campaign shares one entry.  Eviction is FIFO at
    ``_TABLE_CACHE_MAX``; :func:`clear_table_cache` (also reached via
    :func:`repro.analysis.sweep.clear_memo_caches`) drops everything.
    """
    key = (spec.collective, spec.name, p)
    if key in _TABLE_CACHE:
        obs.inc("cache.table.hit")
        return _TABLE_CACHE[key]
    obs.inc("cache.table.miss")
    table = schedule = None
    try:
        with obs.span(
            "schedule.build", collective=spec.collective, algorithm=spec.name, p=p
        ):
            with schedule_validation(False):
                if spec.columnar is None:
                    schedule = spec.build(p, p)
                else:
                    table = spec.columnar(p)
    except ValueError:
        pass
    else:
        if schedule is None:
            obs.inc("lower.columnar")
        else:
            with obs.span(
                "lower.schedule", collective=spec.collective, algorithm=spec.name, p=p
            ):
                table = lower_schedule(schedule)
    while len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
        _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
    _TABLE_CACHE[key] = table
    return table


def clear_table_cache() -> None:
    """Drop every memoized transfer table (cold-start benchmarks, memory)."""
    _TABLE_CACHE.clear()


# -- CSR route matrices ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _CsrArrays:
    """CSR view of an interned route set (prefix views of the live buffers)."""

    #: (num_pairs + 1,) offsets into the flat link columns
    off: np.ndarray
    link: np.ndarray   # interned link ids
    width: np.ndarray  # parallel physical-link widths
    cls: np.ndarray    # link class ids
    #: per-pair hop-signature id / NIC flag / dense per-class hop counts
    sig: np.ndarray
    nic: np.ndarray
    hops: np.ndarray   # (num_pairs, num_classes) int64


def _expand_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """CSR row expansion: flat indices ``starts[j] .. starts[j]+counts[j])``."""
    total = int(counts.sum())
    cum = np.cumsum(counts)
    return np.repeat(starts - (cum - counts), counts) + np.arange(
        total, dtype=np.intp
    )


def _grown(buf: np.ndarray, need: int) -> np.ndarray:
    """``buf`` if it holds ``need`` rows, else a zero-padded copy of at
    least twice its capacity (amortized O(1) appends)."""
    cap = buf.shape[0]
    if need <= cap:
        return buf
    out = np.zeros((max(need, 2 * cap),) + buf.shape[1:], dtype=buf.dtype)
    out[:cap] = buf
    return out


class CompiledRouteTable:
    """Interned minimal routes for one topology, in CSR layout.

    Node pairs intern lazily (each ``topo.route`` call happens exactly
    once per pair per table), and the per-pair data lands in flat arrays
    so a whole step's transfers resolve with gathers instead of
    per-transfer dict lookups.  :meth:`profile_step_arrays` is the
    vectorized step profiler; :meth:`profile_step` adapts the
    generator-based calling convention of the analytic profile builders
    (:mod:`repro.model.analytic`) to it.

    Interning is linear in the number of pairs: :meth:`resolve` routes a
    step's unseen pairs in one :meth:`_intern_batch`, which appends them to
    NumPy buffers that double their capacity when full, and :meth:`_csr`
    hands out prefix views of those buffers without copying.
    """

    def __init__(self, topo: Topology):
        self.topo = topo
        self._num_nodes = topo.num_nodes
        self._pair_pid: dict[int, int] = {}
        self._link_ids: dict[tuple, int] = {}
        #: interned link keys by link id
        self.link_keys: list[tuple] = []
        self._cls_ids: dict[str, int] = {}
        self.cls_names: list[str] = []
        #: per-pair hop signatures, interned: ``sig_tuples[sig_id]`` is the
        #: sorted ``(class, hop_count)`` tuple profile_step folds into
        #: latency signatures
        self.sig_tuples: list[tuple] = []
        self._sig_ids: dict[tuple, int] = {}
        # growable CSR buffers: the first _num_pairs pairs (+1 offset) and
        # _num_rows flat route rows are live
        self._num_pairs = 0
        self._num_rows = 0
        self._off = np.zeros(1, dtype=np.intp)
        self._link = np.zeros(0, dtype=np.intp)
        self._width = np.zeros(0, dtype=np.float64)
        self._cls = np.zeros(0, dtype=np.intp)
        self._sig = np.zeros(0, dtype=np.intp)
        self._nic = np.zeros(0, dtype=bool)
        #: one column per link class seen so far
        self._hops = np.zeros((0, 0), dtype=np.int64)

    def __len__(self) -> int:
        return self._num_pairs

    def _intern_batch(self, keys: list[int]) -> None:
        """Route and intern the unseen pair keys ``keys``, in order.

        Every ``topo.route`` call happens before any state changes, so a
        :class:`~repro.runtime.errors.TopologyPartitionedError` raised
        partway leaves the table exactly as it was.
        """
        n = self._num_nodes
        routes = [self.topo.route(k // n, k % n) for k in keys]
        link_col: list[int] = []
        width_col: list[float] = []
        cls_col: list[int] = []
        for route in routes:
            ids, classes = self.intern_links(route)
            link_col.extend(ids)
            cls_col.extend(classes)
            width_col.extend(link.width for link in route)

        m = len(keys)
        n_cls = len(self.cls_names)
        lens = np.fromiter(map(len, routes), np.intp, m)
        cls_arr = np.asarray(cls_col, dtype=np.intp)
        pair_of_row = np.repeat(np.arange(m, dtype=np.intp), lens)
        hops = np.bincount(
            pair_of_row * n_cls + cls_arr, minlength=m * n_cls
        ).reshape(m, n_cls)
        inter = [c != LinkClass.INTRA for c in self.cls_names]
        nic = hops[:, inter].any(axis=1)
        # hop signatures: (class, count) pairs sorted by class name
        order = sorted(range(n_cls), key=self.cls_names.__getitem__)
        names = [self.cls_names[c] for c in order]
        sig = np.empty(m, dtype=np.intp)
        sig_ids = self._sig_ids
        for i, row in enumerate(hops[:, order].tolist()):
            t = tuple((name, h) for name, h in zip(names, row) if h)
            sid = sig_ids.get(t)
            if sid is None:
                sid = sig_ids[t] = len(sig_ids)
                self.sig_tuples.append(t)
            sig[i] = sid

        p0, r0 = self._num_pairs, self._num_rows
        p1, r1 = p0 + m, r0 + len(cls_col)
        self._off = _grown(self._off, p1 + 1)
        self._off[p0 + 1 : p1 + 1] = r0 + np.cumsum(lens)
        self._link = _grown(self._link, r1)
        self._link[r0:r1] = link_col
        self._width = _grown(self._width, r1)
        self._width[r0:r1] = width_col
        self._cls = _grown(self._cls, r1)
        self._cls[r0:r1] = cls_arr
        self._sig = _grown(self._sig, p1)
        self._sig[p0:p1] = sig
        self._nic = _grown(self._nic, p1)
        self._nic[p0:p1] = nic
        new_cols = n_cls - self._hops.shape[1]
        if new_cols:  # a new link class: add its column
            self._hops = np.pad(self._hops, ((0, 0), (0, new_cols)))
        self._hops = _grown(self._hops, p1)
        self._hops[p0:p1] = hops
        self._pair_pid.update(zip(keys, range(p0, p1)))
        self._num_pairs, self._num_rows = p1, r1

    def intern_links(self, links) -> tuple[list[int], list[int]]:
        """Link ids and class ids of ``links``, interning unseen ones.

        Pair routes intern their links through here; the DES engine also
        interns the links of mid-run detours, which no pair route holds.
        """
        link_ids, cls_ids = self._link_ids, self._cls_ids
        ids: list[int] = []
        classes: list[int] = []
        for link in links:
            li = link_ids.get(link.key)
            if li is None:
                li = link_ids[link.key] = len(link_ids)
                self.link_keys.append(link.key)
            ci = cls_ids.get(link.cls)
            if ci is None:
                ci = cls_ids[link.cls] = len(cls_ids)
                self.cls_names.append(link.cls)
            ids.append(li)
            classes.append(ci)
        return ids, classes

    def link_id(self, key: tuple) -> int:
        """Interned id of link ``key``, or -1 when no route holds it."""
        return self._link_ids.get(key, -1)

    def route_rows(self, pids: np.ndarray):
        """Routes of pairs ``pids`` as flat rows, in pair order.

        Returns per-pair row counts and NIC flags, then per-row link ids,
        widths and class ids.
        """
        csr = self._csr()
        counts = csr.off[pids + 1] - csr.off[pids]
        rows = _expand_rows(csr.off[pids], counts)
        return counts, csr.nic[pids], csr.link[rows], csr.width[rows], csr.cls[rows]

    def resolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pair ids for node arrays ``a → b``, interning unseen pairs."""
        keys = a * self._num_nodes + b
        uniq, inv = np.unique(keys, return_inverse=True)
        ukeys = uniq.tolist()
        pids = np.fromiter(
            map(self._pair_pid.get, ukeys, repeat(-1)), np.intp, len(ukeys)
        )
        unseen = pids < 0
        misses = int(unseen.sum())
        if misses:
            p0 = self._num_pairs
            self._intern_batch(uniq[unseen].tolist())
            pids[unseen] = np.arange(p0, p0 + misses)
        obs.inc("cache.route.hit", len(ukeys) - misses)
        obs.inc("cache.route.miss", misses)
        return pids[inv]

    def _csr(self) -> _CsrArrays:
        n, r = self._num_pairs, self._num_rows
        return _CsrArrays(
            off=self._off[: n + 1],
            link=self._link[:r],
            width=self._width[:r],
            cls=self._cls[:r],
            sig=self._sig[:n],
            nic=self._nic[:n],
            hops=self._hops[:n],
        )

    def profile_step(self, transfers, local_ops, node_of, groups) -> StepProfile:
        """Generator-convention adapter (the analytic builders' entry).

        ``transfers`` yields ``(src_rank, dst_rank, nelems, num_segments,
        has_op)`` tuples; ``local_ops`` yields ``(rank, nelems, has_op)``;
        ``node_of`` and ``groups`` are per-rank node / group tables.  The
        columns feed :meth:`profile_step_arrays`.
        """
        transfers = list(transfers)
        n_t = len(transfers)
        if n_t:
            src_l, dst_l, ne_l, nsegs_l, op_l = zip(*transfers)
            src = np.fromiter(src_l, np.intp, n_t)
            dst = np.fromiter(dst_l, np.intp, n_t)
            ne = np.fromiter(ne_l, np.int64, n_t)
            nsegs = np.fromiter(nsegs_l, np.int64, n_t)
            has_op = np.fromiter(op_l, bool, n_t)
        else:
            src = dst = np.empty(0, dtype=np.intp)
            ne = nsegs = np.empty(0, dtype=np.int64)
            has_op = np.empty(0, dtype=bool)
        local_ops = list(local_ops)
        n_l = len(local_ops)
        if n_l:
            lrank_l, lne_l, lop_l = zip(*local_ops)
            lrank = np.fromiter(lrank_l, np.intp, n_l)
            lne = np.fromiter(lne_l, np.int64, n_l)
            lop = np.fromiter(lop_l, bool, n_l)
        else:
            lrank = np.empty(0, dtype=np.intp)
            lne = np.empty(0, dtype=np.int64)
            lop = np.empty(0, dtype=bool)
        return self.profile_step_arrays(
            src, dst, ne, nsegs, has_op, lrank, lne, lop,
            np.asarray(node_of, dtype=np.intp),
            np.asarray(groups, dtype=np.intp),
        )

    def profile_step_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        ne: np.ndarray,
        nsegs: np.ndarray,
        has_op: np.ndarray,
        lrank: np.ndarray,
        lne: np.ndarray,
        lhas_op: np.ndarray,
        node_arr: np.ndarray,
        group_arr: np.ndarray,
    ) -> StepProfile:
        """One step's columns → a :class:`StepProfile`, fully vectorized.

        Bit-identical to the scalar oracle (``tests/oracle_profile.py``):
        integer aggregates are exact in either accumulation order (all
        magnitudes sit far below 2**53), and the only true-float quantity —
        per-link load, where widths divide unevenly — is accumulated by the
        *same* ``np.add.at`` over the same transfer-ordered concatenation.
        """
        p = node_arr.size
        n_t = src.size
        signatures: set = set()
        max_by_class: dict[str, float] = {}
        class_elems: dict[str, int] = {}

        if n_t:
            a = node_arr[src]
            b = node_arr[dst]
            pids = self.resolve(a, b)
            csr = self._csr()
            nic = csr.nic[pids]
            same_node = a == b
            crosses = group_arr[src] != group_arr[dst]
            # unique (hop-signature, segment-count) latency signatures
            seg_base = int(nsegs.max()) + 1 if n_t else 1
            for code in np.unique(csr.sig[pids] * seg_base + nsegs):
                signatures.add(
                    (self.sig_tuples[int(code) // seg_base], int(code) % seg_base)
                )
            # element·hop products per class (exact int64 matmul)
            hops_t = csr.hops[pids]
            totals = ne @ hops_t
            for ci in np.nonzero(hops_t.any(axis=0))[0]:
                class_elems[self.cls_names[ci]] = int(totals[ci])
            # per-link loads: expand each transfer's route rows in transfer
            # order — the same concatenation the scalar oracle builds — then
            # accumulate with the same unbuffered np.add.at
            counts, _, cat_idx, width, cat_cls = self.route_rows(pids)
            if counts.sum():
                cat_contrib = np.repeat(ne, counts) / width
                uniq, local = np.unique(cat_idx, return_inverse=True)
                loads = np.zeros(uniq.size, dtype=np.float64)
                np.add.at(loads, local, cat_contrib)
                link_cls = np.zeros(uniq.size, dtype=np.intp)
                link_cls[local] = cat_cls
                for ci in np.unique(link_cls):
                    m = loads[link_cls == ci].max()
                    if m > 0:
                        max_by_class[self.cls_names[ci]] = float(m)

            msgs = np.bincount(src, minlength=p) + np.bincount(dst, minlength=p)
            max_node_msgs = int(msgs.max())
            max_inj = int(np.bincount(src[nic], weights=ne[nic], minlength=p).max())
            max_ej = int(np.bincount(dst[nic], weights=ne[nic], minlength=p).max())
            copy_mask = ~nic & same_node
            copy_by_rank = np.bincount(
                dst[copy_mask], weights=ne[copy_mask], minlength=p
            )
            red_by_rank = np.bincount(
                dst[has_op], weights=ne[has_op], minlength=p
            )
            global_elems = int(ne[crosses].sum())
        else:
            max_node_msgs = max_inj = max_ej = global_elems = 0
            copy_by_rank = np.zeros(p, dtype=np.float64)
            red_by_rank = np.zeros(p, dtype=np.float64)

        if lrank.size:
            copy_by_rank = copy_by_rank + np.bincount(
                lrank, weights=lne, minlength=p
            )
            red_by_rank = red_by_rank + np.bincount(
                lrank[lhas_op], weights=lne[lhas_op], minlength=p
            )

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


def profile_table(
    table: TransferTable,
    topo: Topology,
    rank_map: RankMap,
    *,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Route every transfer of a lowered schedule and collapse each step
    into a :class:`~repro.model.simulator.StepProfile`.

    Pass ``routes`` to share one CSR route matrix across many profiles of
    the same topology (the sweep layer always does).
    """
    if rank_map.num_ranks != table.p:
        raise ValueError(
            f"mapping covers {rank_map.num_ranks} ranks, schedule needs {table.p}"
        )
    if routes is None:
        routes = CompiledRouteTable(topo)
    elif routes.topo is not topo:
        raise ValueError("routes table was built for a different topology")
    node_arr = np.asarray(rank_map.nodes, dtype=np.intp)
    group_arr = np.asarray(rank_map.groups(topo), dtype=np.intp)
    steps = []
    for i in range(table.num_steps):
        s0, s1 = table.step_off[i], table.step_off[i + 1]
        l0, l1 = table.local_off[i], table.local_off[i + 1]
        steps.append(
            routes.profile_step_arrays(
                table.src[s0:s1],
                table.dst[s0:s1],
                table.nelems[s0:s1],
                table.num_segments[s0:s1],
                table.has_op[s0:s1],
                table.local_rank[l0:l1],
                table.local_nelems[l0:l1],
                table.local_has_op[l0:l1],
                node_arr,
                group_arr,
            )
        )
    return ScheduleProfile(
        p=table.p,
        n_build=table.n_build,
        meta=dict(table.meta),
        steps=tuple(steps),
    )


def profile_schedule(
    schedule: Schedule,
    topo: Topology,
    rank_map: RankMap,
    *,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Profile one schedule: :func:`profile_table` of its lowering."""
    return profile_table(lower_schedule(schedule), topo, rank_map, routes=routes)


# -- grid evaluation ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _EvalTables:
    """Per-step structure arrays a profile needs for grid evaluation.

    Everything here is params-independent, so the tables are computed once
    per profile (cached on the profile object) and reused across campaigns
    that evaluate the same profile under different cost models.
    """

    inj: np.ndarray   # (S,) int64 per-step max injection (elements)
    ej: np.ndarray
    red: np.ndarray
    cpy: np.ndarray
    #: per link class: (step-index array, load array) COO columns
    load_by_class: tuple[tuple[str, np.ndarray, np.ndarray], ...]


@dataclass(frozen=True, eq=False)
class GridMetrics:
    """Evaluation result for one profile across a whole size grid.

    Column ``j`` equals :func:`evaluate_time` at ``n_elems[j]`` bit for
    bit.
    """

    time: np.ndarray
    global_bytes: np.ndarray
    bytes_by_class: dict


def _eval_tables(profile: ScheduleProfile) -> _EvalTables:
    tabs = profile.__dict__.get("_eval_tables")
    if tabs is not None:
        return tabs
    steps = profile.steps
    s = len(steps)
    inj = np.fromiter((st.max_inj for st in steps), np.int64, s)
    ej = np.fromiter((st.max_ej for st in steps), np.int64, s)
    red = np.fromiter((st.max_reduce for st in steps), np.int64, s)
    cpy = np.fromiter((st.max_copy for st in steps), np.int64, s)
    by_class: dict[str, tuple[list[int], list[float]]] = {}
    for i, st in enumerate(steps):
        for cls, load in st.max_link_load:
            idx, vals = by_class.setdefault(cls, ([], []))
            idx.append(i)
            vals.append(load)
    load_by_class = tuple(
        (cls, np.asarray(idx, dtype=np.intp), np.asarray(vals, dtype=np.float64))
        for cls, (idx, vals) in sorted(by_class.items())
    )
    tabs = _EvalTables(inj=inj, ej=ej, red=red, cpy=cpy, load_by_class=load_by_class)
    object.__setattr__(profile, "_eval_tables", tabs)
    return tabs


def _lat_array(profile: ScheduleProfile, params: CostParams) -> np.ndarray:
    """Per-step latency terms (size-invariant, so computed once per call).

    Identical step objects (analytic profiles replicate one
    :class:`StepProfile` thousands of times) are evaluated once.
    """
    lat = np.empty(len(profile.steps), dtype=np.float64)
    memo: dict[int, float] = {}
    alpha_hop = params.alpha_hop
    for i, step in enumerate(profile.steps):
        cached = memo.get(id(step))
        if cached is None:
            val = 0.0
            for hops, segs in step.lat_signatures:
                t = params.alpha + max(0, segs - 1) * params.seg_overhead
                for cls, h in hops:
                    t += h * alpha_hop.get(cls, 0.0)
                val = max(val, t)
            val += max(0, step.max_node_msgs - 2) * params.msg_cpu
            cached = memo[id(step)] = val
        lat[i] = cached
    return lat


def _seq_sum(term: np.ndarray, m: int) -> np.ndarray:
    """Sum step rows in step order — the scalar loop's accumulation order.

    ``np.add.reduce``/``np.sum`` may regroup a reduction pairwise (which
    changes the last ulp), but a running prefix sum cannot:
    ``cumsum[i] = cumsum[i-1] + term[i]`` by definition, so the last row
    equals ``total += term`` applied step by step, bit for bit.
    """
    if term.shape[0] == 0:
        return np.zeros(m, dtype=np.float64)
    return np.cumsum(term, axis=0)[-1]


def evaluate_grid(
    profile: ScheduleProfile, params: CostParams, n_elems
) -> GridMetrics:
    """Time and traffic for every vector size of ``n_elems`` in one pass.

    The cost law is a sum over steps of latency + bandwidth + reduction +
    copy terms; schedule-level meta flags refine it:

    * ``segmented`` — reduction compute overlaps transport within a step
      (Sec. 5.2.2);
    * ``pipelined`` — successive steps forward the *same* data (chain/tree
      pipelines like Trinaryx): bandwidth terms overlap across steps, so
      the total pays the per-step latency sum but only
      ``max_bw · (1 + (steps − 1)/chunks)`` of bandwidth;
    * ``ports_used`` — how many NICs the schedule can drive concurrently
      (App. D.4 multiported schedules); capped by the machine's ports.

    Column ``j`` of every output equals the scalar step-sum evaluation at
    ``n_elems[j]`` bit for bit (each arithmetic step is applied
    elementwise in the same order the scalar code applies it).  The
    per-step structure arrays are cached on the profile, so evaluating a
    second size grid costs only the NumPy pass.

    Example::

        >>> from repro.collectives.registry import build
        >>> from repro.systems import lumi
        >>> from repro.topology.mapping import block_mapping
        >>> preset = lumi()
        >>> prof = profile_schedule(build("bcast", "bine", 8, 8),
        ...                         preset.build_topology(), block_mapping(8))
        >>> g = evaluate_grid(prof, preset.params, [8.0, 1024.0])
        >>> bool(g.time[1] == evaluate_time(prof, preset.params, 1024.0).time)
        True
    """
    n_arr = np.atleast_1d(np.asarray(n_elems, dtype=np.float64))
    scale = n_arr / profile.n_build
    m = scale.size
    b = params.itemsize
    s = len(profile.steps)
    tabs = _eval_tables(profile)
    ports = min(params.ports, int(profile.meta.get("ports_used", 1)))

    bw = np.zeros((s, m), dtype=np.float64)
    for cls, step_idx, loads in tabs.load_by_class:
        beta = params.beta.get(cls, 0.0)
        np.maximum.at(bw, step_idx, loads[:, None] * scale * b * beta)
    bw = np.maximum(bw, tabs.inj[:, None] * scale * b * params.inj_beta / ports)
    bw = np.maximum(bw, tabs.ej[:, None] * scale * b * params.inj_beta / ports)
    comp = tabs.red[:, None] * scale * b * params.reduce_beta
    copy = tabs.cpy[:, None] * scale * b * params.copy_beta
    lat = _lat_array(profile, params)[:, None]

    if profile.meta.get("pipelined"):
        total = _seq_sum(lat + copy, m)
        step_bw = bw + comp
        max_step_bw = (
            np.maximum.reduce(step_bw, axis=0) if s else np.zeros(m)
        )
        num_steps = max(1, s)
        total = total + max_step_bw * (1 + (num_steps - 1) / PIPELINE_CHUNKS)
    elif profile.segmented:
        total = _seq_sum(lat + np.maximum(bw, comp) + copy, m)
    else:
        total = _seq_sum(lat + bw + comp + copy, m)

    return GridMetrics(
        time=total,
        global_bytes=profile.total_global_elems() * scale * b,
        bytes_by_class={
            cls: e * scale * b for cls, e in profile.total_class_elems().items()
        },
    )


def evaluate_time(
    profile: ScheduleProfile, params: CostParams, n_elems: float
) -> RunMetrics:
    """Time and traffic for one vector of ``n_elems`` elements: column 0 of
    :func:`evaluate_grid`."""
    g = evaluate_grid(profile, params, [n_elems])
    return RunMetrics(
        time=float(g.time[0]),
        global_bytes=float(g.global_bytes[0]),
        bytes_by_class={cls: float(v[0]) for cls, v in g.bytes_by_class.items()},
    )
