"""Butterfly collectives: reduce-scatter, allgather, allreduce (Secs. 4.3-4.4).

All three are position-preserving flows over a butterfly's responsibility
sets (:mod:`repro.core.coverage`):

* **reduce-scatter** runs the butterfly forward: at step ``j`` rank ``r``
  sends its partial sums for ``resp(partner, j+1)`` and reduces the incoming
  ``resp(r, j+1)`` into place — vector-halving;
* **allgather** is the exact reverse flow with ``op=None`` — vector-doubling;
* **allreduce** is either recursive doubling (small vectors: whole-vector
  exchange+reduce each step) or reduce-scatter + allgather (large vectors).

The four non-contiguous-data strategies of Sec. 4.3.1 map onto layouts:

========================  ============================================
``Strategy.NATURAL``      coalesced natural-layout segments (Swing-like)
``Strategy.BLOCKS``       one wire segment per block
``Strategy.PERMUTE``      local pre/post permutation into π space; all
                          sends single-segment
``Strategy.SEND``         π-space flow without the permutation; results
                          land at π positions; an optional fix-up exchange
                          (or the paired allgather) restores order
``Strategy.TWO_TRANSMISSIONS``  run the *distance-halving* butterfly whose
                          natural responsibility sets are circular ranges
                          (≤ 2 segments) at the price of more global traffic
========================  ============================================

Each builder has a columnar twin (:func:`reduce_scatter_table`,
:func:`allgather_table`, :func:`allreduce_recursive_table`,
:func:`allreduce_rsag_table`) that emits the profiler's
:class:`~repro.model.compiled.TransferTable` at the canonical size
``n = p`` straight from the per-``(step, rank)`` set statistics of
:func:`~repro.collectives.fastresp.resp_stats` — equal to lowering the
built schedule, with the same checks, but with no ``Transfer`` objects.
The object builders stay the input of the executor and validation.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import Partition
from repro.core.butterfly import (
    Butterfly,
    bine_butterfly_doubling,
    bine_butterfly_halving,
    recursive_halving_butterfly,
    swing_butterfly,
)
from repro.collectives.common import (
    TMP,
    VEC,
    Strategy,
    global_pi,
    global_pi_inv,
    require_divisible,
)
from repro.collectives.fastresp import (
    CANONICAL_KINDS,
    RespStats,
    resp_backend,
    resp_stats,
    sorted_runs,
)
from repro.model.compiled import StepColumns, TransferTable, table_from_steps
from repro.runtime.errors import ScheduleError
from repro.runtime.schedule import LocalCopy, Schedule, Step, Transfer

__all__ = [
    "reduce_scatter_butterfly",
    "allgather_butterfly",
    "allreduce_recursive",
    "allreduce_reduce_scatter_allgather",
    "reduce_scatter_table",
    "allgather_table",
    "allreduce_recursive_table",
    "allreduce_rsag_table",
    "rs_butterfly_for",
    "RS_FLAVORS",
]

#: reduce-scatter flavors → (butterfly builder, strategy)
RS_FLAVORS = {
    "bine-natural": (bine_butterfly_doubling, Strategy.NATURAL),
    "bine-blocks": (bine_butterfly_doubling, Strategy.BLOCKS),
    "bine-permute": (bine_butterfly_doubling, Strategy.PERMUTE),
    "bine-send": (bine_butterfly_doubling, Strategy.SEND),
    "bine-two-transmissions": (bine_butterfly_halving, Strategy.TWO_TRANSMISSIONS),
    "swing": (swing_butterfly, Strategy.NATURAL),
    "recursive-halving": (recursive_halving_butterfly, Strategy.NATURAL),
}


def rs_butterfly_for(flavor: str, p: int) -> tuple[Butterfly, Strategy]:
    """Resolve a reduce-scatter flavor name to its butterfly and strategy."""
    try:
        builder, strategy = RS_FLAVORS[flavor]
    except KeyError:
        raise KeyError(f"unknown RS flavor {flavor!r}; have {sorted(RS_FLAVORS)}") from None
    return builder(p), strategy


def _segments_for(part: Partition, blocks: np.ndarray, strategy: Strategy):
    """Wire segments for a sorted block array under a segmentation policy."""
    if strategy is Strategy.BLOCKS:
        return tuple(part.bounds(int(b)) for b in blocks)
    if part.n == part.p:
        # canonical build size: block index == element offset
        return tuple(sorted_runs(blocks))
    return tuple(part.segments(blocks.tolist()))


#: (kind, p, strategy/π, step, rank) → segment tuple at the canonical build
#: size.  Reduce-scatter and allgather walk the same responsibility sets
#: (allreduce builds both back to back, and sweep campaigns revisit the same
#: butterflies per collective), so entries are reused several times over.
_SEG_CACHE: dict[tuple, tuple] = {}


def _seg_getter(bf: Butterfly, part: Partition, resp, strategy: Strategy):
    """``segs(rank, step)`` with cross-schedule caching at canonical size."""
    ckind = CANONICAL_KINDS.get(bf.kind)
    if ckind is None or part.n != part.p:
        return lambda rank, step: _segments_for(part, resp(rank, step), strategy)

    prefix = (ckind, part.p, strategy.value)

    def segs(rank: int, step: int):
        key = prefix + (step, rank)
        out = _SEG_CACHE.get(key)
        if out is None:
            out = _SEG_CACHE[key] = _segments_for(part, resp(rank, step), strategy)
        return out

    return segs


def _pi_window_getter(bf: Butterfly, resp, pi_arr: np.ndarray, block_size: int):
    """``window(rank, step)`` for π-space flows, cached like :func:`_seg_getter`."""
    ckind = CANONICAL_KINDS.get(bf.kind)
    p = bf.p

    def compute(rank: int, step: int):
        return _pi_window(
            pi_arr, resp(rank, step), block_size, f"{bf.kind} rank {rank} step {step}"
        )

    if ckind is None:
        return compute
    prefix = (ckind, p, "pi", block_size)

    def window(rank: int, step: int):
        key = prefix + (step, rank)
        out = _SEG_CACHE.get(key)
        if out is None:
            out = _SEG_CACHE[key] = compute(rank, step)
        return out

    return window


def _pi_window(pi_arr: np.ndarray, blocks: np.ndarray, block_size: int, ctx: str):
    """Single contiguous element segment covering π(blocks), or raise."""
    positions = pi_arr[blocks]
    lo = int(positions.min())
    hi = int(positions.max()) + 1
    if hi - lo != positions.size:
        raise AssertionError(f"π window not contiguous for {ctx}")
    return ((lo * block_size, hi * block_size),)


def _permute_segments(p: int, n: int, pi: list[int]):
    """``(natural, permuted)`` segment tuples of the Fig. 8 block permutation.

    Identical for every rank, so builders compute them once per schedule and
    share the tuples across all ``p`` local copies.
    """
    bs = n // p
    natural = tuple((b * bs, (b + 1) * bs) for b in range(p))
    permuted = tuple((pi[b] * bs, (pi[b] + 1) * bs) for b in range(p))
    return natural, permuted


def _permute_pack(
    rank: int, src: str, dst: str, tag: str, segs
) -> LocalCopy:
    """Local copy moving natural block ``b`` to π(b) positions (Fig. 8)."""
    natural, permuted = segs
    return LocalCopy(
        rank=rank,
        src_buf=src,
        dst_buf=dst,
        src_segments=natural,
        dst_segments=permuted,
        tag=tag,
    )


def _permute_unpack(
    rank: int, src: str, dst: str, tag: str, segs
) -> LocalCopy:
    """Inverse of :func:`_permute_pack`."""
    natural, permuted = segs
    return LocalCopy(
        rank=rank,
        src_buf=src,
        dst_buf=dst,
        src_segments=permuted,
        dst_segments=natural,
        tag=tag,
    )


def reduce_scatter_butterfly(
    bf: Butterfly,
    n: int,
    op: str = "sum",
    strategy: Strategy = Strategy.NATURAL,
    *,
    fixup: bool = True,
) -> Schedule:
    """Vector-halving reduce-scatter over butterfly ``bf``.

    Every rank's ``vec`` starts as its full contribution.  On exit rank ``r``
    holds the reduced block ``r`` at its natural position — except under
    ``Strategy.SEND`` with ``fixup=False``, where rank ``r`` holds reduced
    block ``π(r)`` at position ``π(r)`` (the state the paired allgather
    consumes; see :func:`allreduce_reduce_scatter_allgather`).
    """
    p, s = bf.p, bf.num_steps
    part = Partition(n, p)
    meta = {
        "collective": "reduce_scatter",
        "algorithm": bf.kind,
        "strategy": strategy.value,
        "p": p,
        "n": n,
        "op": op,
    }
    sched = Schedule(p, meta=meta)

    resp = resp_backend(bf)

    if strategy in (Strategy.NATURAL, Strategy.BLOCKS, Strategy.TWO_TRANSMISSIONS):
        seg_of = _seg_getter(bf, part, resp, strategy)
        for j in range(s):
            transfers = []
            for r in range(p):
                q = bf.partner(r, j)
                segs = seg_of(q, j + 1)
                transfers.append(
                    Transfer(
                        src=r, dst=q, src_buf=VEC, dst_buf=VEC,
                        src_segments=segs, dst_segments=segs, op=op,
                        tag=f"rs[{j}]",
                    )
                )
            sched.add(Step(transfers=tuple(transfers), label=f"rs step {j}"))
        return sched.finalize()

    # π-space flows (permute / send)
    bs = require_divisible(n, p, f"reduce-scatter strategy {strategy.value}")
    pi = global_pi(p)
    pi_arr = np.array(pi)
    window = _pi_window_getter(bf, resp, pi_arr, bs)
    work = TMP if strategy is Strategy.PERMUTE else VEC
    for j in range(s):
        pre = ()
        if j == 0 and strategy is Strategy.PERMUTE:
            segs2 = _permute_segments(p, n, pi)
            pre = tuple(
                _permute_pack(r, VEC, TMP, "rs permute-in", segs2) for r in range(p)
            )
        transfers = []
        for r in range(p):
            q = bf.partner(r, j)
            segs = window(q, j + 1)
            transfers.append(
                Transfer(
                    src=r, dst=q, src_buf=work, dst_buf=work,
                    src_segments=segs, dst_segments=segs, op=op,
                    tag=f"rs[{j}]",
                )
            )
        post = ()
        if j == s - 1 and strategy is Strategy.PERMUTE:
            post = tuple(
                LocalCopy(
                    rank=r, src_buf=TMP, dst_buf=VEC,
                    src_segments=((pi[r] * bs, (pi[r] + 1) * bs),),
                    dst_segments=((r * bs, (r + 1) * bs),),
                    tag="rs permute-out",
                )
                for r in range(p)
            )
        sched.add(Step(transfers=tuple(transfers), pre=pre, post=post, label=f"rs step {j}"))

    if strategy is Strategy.SEND and fixup:
        # Final exchange: rank r holds block π(r); ship it home (Sec. 4.3.1).
        transfers = tuple(
            Transfer(
                src=r, dst=pi[r], src_buf=VEC, dst_buf=VEC,
                src_segments=((pi[r] * bs, (pi[r] + 1) * bs),),
                dst_segments=((pi[r] * bs, (pi[r] + 1) * bs),),
                tag="rs send-fixup",
            )
            for r in range(p)
            if pi[r] != r
        )
        sched.add(Step(transfers=transfers, label="rs send fixup"))
    return sched.finalize()


def allgather_butterfly(
    bf: Butterfly,
    n: int,
    strategy: Strategy = Strategy.NATURAL,
    *,
    initial_exchange: bool = True,
) -> Schedule:
    """Vector-doubling allgather: the reverse flow of ``reduce_scatter(bf)``.

    ``bf`` is the butterfly of the reduce-scatter being reversed, so the
    *matchings run backwards* (for Bine pass the distance-doubling butterfly
    and the allgather becomes distance-halving, Eq. 4).  Every rank's ``vec``
    starts with only its own block meaningful; all ranks end with the full
    vector.

    Under ``Strategy.SEND``, ``initial_exchange=True`` prepends the
    paper's reordering transmission (rank ``v`` ships its block to
    ``π⁻¹(v)``); ``False`` assumes ranks already hold block ``π(r)`` at
    position ``π(r)`` — the reduce-scatter(SEND, fixup=False) exit state.
    """
    p, s = bf.p, bf.num_steps
    part = Partition(n, p)
    meta = {
        "collective": "allgather",
        "algorithm": bf.kind,
        "strategy": strategy.value,
        "p": p,
        "n": n,
    }
    sched = Schedule(p, meta=meta)

    resp = resp_backend(bf)

    if strategy in (Strategy.NATURAL, Strategy.BLOCKS, Strategy.TWO_TRANSMISSIONS):
        seg_of = _seg_getter(bf, part, resp, strategy)
        for k in range(s):
            j = s - 1 - k
            transfers = []
            for r in range(p):
                q = bf.partner(r, j)
                segs = seg_of(r, j + 1)
                transfers.append(
                    Transfer(
                        src=r, dst=q, src_buf=VEC, dst_buf=VEC,
                        src_segments=segs, dst_segments=segs,
                        tag=f"ag[{k}]",
                    )
                )
            sched.add(Step(transfers=tuple(transfers), label=f"ag step {k}"))
        return sched.finalize()

    bs = require_divisible(n, p, f"allgather strategy {strategy.value}")
    pi = global_pi(p)
    pi_arr = np.array(pi)
    pi_inv = global_pi_inv(p)
    work = TMP if strategy is Strategy.PERMUTE else VEC

    if strategy is Strategy.PERMUTE:
        pre = tuple(
            LocalCopy(
                rank=r, src_buf=VEC, dst_buf=TMP,
                src_segments=((r * bs, (r + 1) * bs),),
                dst_segments=((pi[r] * bs, (pi[r] + 1) * bs),),
                tag="ag permute-in",
            )
            for r in range(p)
        )
        sched.add(Step(pre=pre, label="ag permute in"))
    elif strategy is Strategy.SEND and initial_exchange:
        transfers = tuple(
            Transfer(
                src=v, dst=pi_inv[v], src_buf=VEC, dst_buf=VEC,
                src_segments=((v * bs, (v + 1) * bs),),
                dst_segments=((v * bs, (v + 1) * bs),),
                tag="ag send-reorder",
            )
            for v in range(p)
            if pi_inv[v] != v
        )
        sched.add(Step(transfers=transfers, label="ag send reorder"))

    window = _pi_window_getter(bf, resp, pi_arr, bs)
    for k in range(s):
        j = s - 1 - k
        transfers = []
        for r in range(p):
            q = bf.partner(r, j)
            segs = window(r, j + 1)
            transfers.append(
                Transfer(
                    src=r, dst=q, src_buf=work, dst_buf=work,
                    src_segments=segs, dst_segments=segs,
                    tag=f"ag[{k}]",
                )
            )
        post = ()
        if k == s - 1 and strategy is Strategy.PERMUTE:
            segs2 = _permute_segments(p, n, pi)
            post = tuple(
                _permute_unpack(r, TMP, VEC, "ag permute-out", segs2) for r in range(p)
            )
        sched.add(Step(transfers=tuple(transfers), post=post, label=f"ag step {k}"))
    if strategy is Strategy.SEND:
        # π-space content is natural blocks at natural positions already.
        pass
    return sched.finalize()


def allreduce_recursive(bf: Butterfly, n: int, op: str = "sum") -> Schedule:
    """Small-vector allreduce: whole-vector exchange + reduce every step.

    Works on any proper butterfly; with the Bine distance-halving butterfly
    this is the paper's small-vector Bine allreduce (Sec. 4.4).
    """
    p, s = bf.p, bf.num_steps
    sched = Schedule(
        p,
        meta={
            "collective": "allreduce",
            "algorithm": f"recursive-{bf.kind}",
            "p": p,
            "n": n,
            "op": op,
        },
    )
    for j in range(s):
        transfers = tuple(
            Transfer(
                src=r, dst=bf.partner(r, j), src_buf=VEC, dst_buf=VEC,
                src_segments=((0, n),), dst_segments=((0, n),), op=op,
                tag=f"ar[{j}]",
            )
            for r in range(p)
        )
        sched.add(Step(transfers=transfers, label=f"allreduce step {j}"))
    return sched.finalize()


def allreduce_reduce_scatter_allgather(
    bf: Butterfly,
    n: int,
    op: str = "sum",
    strategy: Strategy = Strategy.NATURAL,
    *,
    segmented: bool = False,
) -> Schedule:
    """Large-vector allreduce: reduce-scatter followed by allgather.

    Under ``Strategy.SEND`` neither phase performs any data reordering: the
    allgather implicitly undoes the reduce-scatter's implicit permutation
    (the paper's key Bine trick for contiguous transmission).  ``segmented``
    marks the schedule for pipelined execution in the cost model
    (Sec. 5.2.2); it does not change the bytes moved.
    """
    rs = reduce_scatter_butterfly(bf, n, op, strategy, fixup=False)
    ag = allgather_butterfly(bf, n, strategy, initial_exchange=False)
    sched = Schedule(
        bf.p,
        meta={
            "collective": "allreduce",
            "algorithm": f"rsag-{bf.kind}",
            "strategy": strategy.value,
            "p": bf.p,
            "n": n,
            "op": op,
            "segmented": segmented,
        },
    )
    if strategy is Strategy.PERMUTE:
        # One permute in, one permute out — skip the RS's unpack and the
        # AG's pack, keeping the flow in π space across the seam.
        rs_steps = list(rs.steps)
        rs_steps[-1] = Step(
            transfers=rs_steps[-1].transfers, pre=rs_steps[-1].pre,
            post=(), label=rs_steps[-1].label,
        )
        ag_steps = [st for st in ag.steps if st.transfers or st.post]
        ag_steps = [st for st in ag_steps if st.label != "ag permute in"]
        sched.steps = rs_steps + ag_steps
    else:
        sched.steps = list(rs.steps) + list(ag.steps)
    return sched.finalize()


# -- columnar lowering -------------------------------------------------------
#
# The twins below emit, step for step, the rows lower_schedule() would make
# of the builders above at n = p (block size 1): same step order, transfer
# order (ranks ascending) and local-op order, with sizes and segment counts
# read from resp_stats() instead of summed from segment tuples.


def _copies(ranks: np.ndarray, *sizes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local-op rows: per size in ``sizes``, one non-reducing copy of that
    many elements at every rank of ``ranks``."""
    return (
        np.tile(ranks, len(sizes)),
        np.repeat(np.asarray(sizes, np.int64), ranks.size),
        np.zeros(ranks.size * len(sizes), bool),
    )


def _exchange(
    src: np.ndarray, dst: np.ndarray, nelems: np.ndarray, nseg, has_op: bool,
    tag: str, local: tuple = (),
) -> StepColumns:
    """One step's transfer rows, with ``Transfer``'s self-send check."""
    hit = np.flatnonzero(src == dst)
    if hit.size:
        raise ScheduleError(f"transfer to self at rank {int(src[hit[0]])} ({tag})")
    return StepColumns(
        src, dst, nelems, np.broadcast_to(nseg, src.shape),
        np.full(src.size, has_op), *local,
    )


def _check_windows(bf: Butterfly, stats: RespStats, step: int, ranks: np.ndarray) -> None:
    """:func:`_pi_window`'s check over a whole step, first failing rank first."""
    bad = np.flatnonzero(~stats.pi_contiguous[step, ranks])
    if bad.size:
        raise AssertionError(
            f"π window not contiguous for {bf.kind} rank {int(ranks[bad[0]])} step {step}"
        )


#: strategies whose sends are single π-space windows
_PI_SPACE = (Strategy.PERMUTE, Strategy.SEND)


def _seg_counts(stats: RespStats, step: int, ranks: np.ndarray, strategy: Strategy):
    """Wire segments per send of ``resp(ranks, step)`` under ``strategy``."""
    if strategy is Strategy.BLOCKS:
        return stats.size[step, ranks]
    if strategy in _PI_SPACE:
        return 1
    return stats.runs[step, ranks]


def _rs_steps(
    bf: Butterfly, op: str | None, strategy: Strategy, *, fixup: bool, unpack: bool
) -> list[StepColumns]:
    """Rows of :func:`reduce_scatter_butterfly` at ``n = p``; ``unpack=False``
    drops the PERMUTE permute-out (the allreduce seam)."""
    p, s = bf.p, bf.num_steps
    stats = resp_stats(bf)
    ranks = np.arange(p, dtype=np.intp)
    permute = strategy is Strategy.PERMUTE
    steps = []
    for j in range(s):
        q = np.asarray(bf.partners[j], dtype=np.intp)
        if strategy in _PI_SPACE:
            _check_windows(bf, stats, j + 1, q)
        # PERMUTE: permute-in (whole vector) before step 0, permute-out
        # (own block) after the last step
        pre = [p] if permute and j == 0 else []
        post = [1] if permute and unpack and j == s - 1 else []
        steps.append(_exchange(
            ranks, q, stats.size[j + 1, q], _seg_counts(stats, j + 1, q, strategy),
            op is not None, f"rs[{j}]", _copies(ranks, *pre, *post),
        ))
    if strategy is Strategy.SEND and fixup:
        pi = np.asarray(global_pi(p), dtype=np.intp)
        moved = ranks[pi != ranks]
        steps.append(_exchange(
            moved, pi[moved], np.ones(moved.size, np.int64), 1, False, "rs send-fixup"
        ))
    return steps


def _ag_steps(
    bf: Butterfly, strategy: Strategy, *, initial_exchange: bool, pack: bool
) -> list[StepColumns]:
    """Rows of :func:`allgather_butterfly` at ``n = p``; ``pack=False``
    drops the PERMUTE permute-in step (the allreduce seam)."""
    p, s = bf.p, bf.num_steps
    stats = resp_stats(bf)
    ranks = np.arange(p, dtype=np.intp)
    permute = strategy is Strategy.PERMUTE
    steps = []
    if permute and pack:
        none = np.zeros(0, np.intp)
        steps.append(_exchange(
            none, none, none, 1, False, "ag permute-in", _copies(ranks, 1)
        ))
    elif strategy is Strategy.SEND and initial_exchange:
        pi_inv = np.asarray(global_pi_inv(p), dtype=np.intp)
        moved = ranks[pi_inv != ranks]
        steps.append(_exchange(
            moved, pi_inv[moved], np.ones(moved.size, np.int64), 1, False,
            "ag send-reorder",
        ))
    for k in range(s):
        j = s - 1 - k
        if strategy in _PI_SPACE:
            _check_windows(bf, stats, j + 1, ranks)
        post = [p] if permute and k == s - 1 else []
        steps.append(_exchange(
            ranks, np.asarray(bf.partners[j], dtype=np.intp), stats.size[j + 1],
            _seg_counts(stats, j + 1, ranks, strategy), False, f"ag[{k}]",
            _copies(ranks, *post),
        ))
    return steps


def _phase_meta(collective: str, bf: Butterfly, strategy: Strategy, **extra) -> dict:
    return {
        "collective": collective, "algorithm": bf.kind,
        "strategy": strategy.value, "p": bf.p, "n": bf.p, **extra,
    }


def reduce_scatter_table(
    bf: Butterfly,
    op: str = "sum",
    strategy: Strategy = Strategy.NATURAL,
    *,
    fixup: bool = True,
) -> TransferTable:
    """``lower_schedule(reduce_scatter_butterfly(bf, bf.p, op, strategy,
    fixup=fixup))``, emitted without building the schedule.

    Example::

        >>> from repro.core.butterfly import bine_butterfly_doubling
        >>> t = reduce_scatter_table(bine_butterfly_doubling(8), strategy=Strategy.SEND)
        >>> t.num_steps, t.nelems[:8].tolist(), int(t.num_segments.max())
        (4, [4, 4, 4, 4, 4, 4, 4, 4], 1)
    """
    steps = _rs_steps(bf, op, strategy, fixup=fixup, unpack=True)
    return table_from_steps(
        bf.p, _phase_meta("reduce_scatter", bf, strategy, op=op), steps
    )


def allgather_table(
    bf: Butterfly,
    strategy: Strategy = Strategy.NATURAL,
    *,
    initial_exchange: bool = True,
) -> TransferTable:
    """``lower_schedule(allgather_butterfly(bf, bf.p, strategy,
    initial_exchange=initial_exchange))``, emitted without building it."""
    steps = _ag_steps(bf, strategy, initial_exchange=initial_exchange, pack=True)
    return table_from_steps(bf.p, _phase_meta("allgather", bf, strategy), steps)


def allreduce_recursive_table(bf: Butterfly, op: str = "sum") -> TransferTable:
    """``lower_schedule(allreduce_recursive(bf, bf.p, op))``, without building it."""
    p = bf.p
    ranks = np.arange(p, dtype=np.intp)
    steps = [
        _exchange(
            ranks, np.asarray(bf.partners[j], dtype=np.intp),
            np.full(p, p, np.int64), 1, op is not None, f"ar[{j}]",
        )
        for j in range(bf.num_steps)
    ]
    meta = {
        "collective": "allreduce", "algorithm": f"recursive-{bf.kind}",
        "p": p, "n": p, "op": op,
    }
    return table_from_steps(p, meta, steps)


def allreduce_rsag_table(
    bf: Butterfly,
    op: str = "sum",
    strategy: Strategy = Strategy.NATURAL,
    *,
    segmented: bool = False,
) -> TransferTable:
    """``lower_schedule(allreduce_reduce_scatter_allgather(bf, bf.p, op,
    strategy, segmented=segmented))``, emitted without building it."""
    seam = strategy is not Strategy.PERMUTE
    steps = _rs_steps(bf, op, strategy, fixup=False, unpack=seam)
    steps += _ag_steps(bf, strategy, initial_exchange=False, pack=seam)
    meta = {
        "collective": "allreduce", "algorithm": f"rsag-{bf.kind}",
        "strategy": strategy.value, "p": bf.p, "n": bf.p, "op": op,
        "segmented": segmented,
    }
    return table_from_steps(bf.p, meta, steps)
