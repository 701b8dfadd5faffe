"""Seeded, stdlib-only generators for property/metamorphic tests.

A miniature hypothesis-style toolkit: every generator takes an explicit
``random.Random`` (or a seed) so failures reproduce exactly, and builds
plausible *sweep-record grids* — the input domain shared by the tune,
summarize, report and diff layers.  Used by ``tests/test_tune_properties.py``
and available to any test that wants randomized-but-deterministic record
sets.

No third-party dependency: the point is metamorphic coverage (build is
order-invariant, batch == scalar loop, winner == argmin), not shrinking.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

from repro.analysis.sweep import SweepRecord
from repro.faults import HEAL_TARGETS, FaultTimeline, TimelineEvent
from repro.topology.mapping import RankMap, hostname_sorted

T = TypeVar("T")

#: plausible algorithm inventory per family, mirroring the registry's shape
FAMILIES = {
    "bine": ("bine", "bine-rsag", "bine-scatter-allgather"),
    "binomial": ("binomial", "binomial-scatter-allgather"),
    "ring": ("ring",),
    "bruck": ("bruck",),
}

SYSTEMS = ("lumi", "leonardo", "fugaku")
COLLECTIVES = ("bcast", "allgather", "allreduce", "alltoall")
FAULT_LABELS = ("none", "links2-seed13", "links1-global0.5")


def rng_for(seed: int) -> random.Random:
    """A fresh deterministic stream; use one per test for isolation."""
    return random.Random(seed)


def grid_axes(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A sorted (p_grid, n_grid) pair of power-of-two axes."""
    p_count = rng.randint(1, 4)
    n_count = rng.randint(1, 4)
    p_grid = sorted(rng.sample([2 ** k for k in range(2, 11)], p_count))
    n_grid = sorted(rng.sample([32 * 8 ** k for k in range(7)], n_count))
    return tuple(p_grid), tuple(n_grid)


def record_grid(
    rng: random.Random,
    *,
    systems: Sequence[str] = ("lumi",),
    collectives: Sequence[str] = ("bcast",),
    faults: Sequence[str] = ("none",),
    ppns: Sequence[int] = (1,),
    tie_fraction: float = 0.0,
) -> list[SweepRecord]:
    """A full cross-product record grid with randomized times.

    Every ``(system, faults, collective, ppn, p, n)`` cell gets one record
    per algorithm of 2–4 randomly chosen families, so cells always have a
    well-defined argmin winner.  ``tie_fraction`` forces that share of
    cells to contain two records with *exactly equal* best times — the
    adversarial case for order-invariance (the tie must break on the
    algorithm name, not on input order).
    """
    p_grid, n_grid = grid_axes(rng)
    fams = rng.sample(sorted(FAMILIES), rng.randint(2, len(FAMILIES)))
    records = []
    for system in systems:
        for fault in faults:
            for coll in collectives:
                for ppn in ppns:
                    for p in p_grid:
                        for nb in n_grid:
                            cell = []
                            for fam in fams:
                                for algo in FAMILIES[fam]:
                                    t = rng.uniform(1e-6, 1e-2)
                                    cell.append(SweepRecord(
                                        system, coll, algo, fam, p, nb,
                                        t, float(nb * p // 2),
                                        faults=fault, ppn=ppn,
                                    ))
                            if len(cell) >= 2 and rng.random() < tie_fraction:
                                best = min(cell, key=lambda r: r.time)
                                other = rng.choice(
                                    [r for r in cell if r is not best]
                                )
                                cell[cell.index(other)] = SweepRecord(
                                    other.system, other.collective,
                                    other.algorithm, other.family,
                                    other.p, other.n_bytes, best.time,
                                    other.global_bytes,
                                    faults=other.faults, ppn=other.ppn,
                                )
                            records.extend(cell)
    return records


#: link classes a timeline derate event may target (labels, not enums)
TIMELINE_CLASSES = ("local", "global", "torus", "intra")


def timeline_event(rng: random.Random, at: float) -> TimelineEvent:
    """One plausible :class:`TimelineEvent` at time ``at``.

    Covers all three event shapes the grammar allows — damage (victim
    counts), rate changes (derate / background) and heals — while never
    generating an invalid event (the constructor rejects no-op and mixed
    heal+damage events).
    """
    kind = rng.choice(("damage", "rates", "heal"))
    if kind == "heal":
        return TimelineEvent(at=at, heal=rng.choice(HEAL_TARGETS))
    if kind == "rates":
        if rng.random() < 0.5:
            cls = rng.choice(TIMELINE_CLASSES)
            return TimelineEvent(
                at=at, derate={cls: rng.choice((0.25, 0.5, 0.75, 1.0))}
            )
        return TimelineEvent(at=at, background=rng.choice((0.0, 0.125, 0.5, 0.9)))
    return TimelineEvent(
        at=at,
        links=rng.randint(1, 3),  # >= 1 so the event is never a no-op
        nodes=rng.randint(0, 2),
        nics=rng.randint(0, 2),
        seed=rng.randint(0, 99),
    )


def timeline(rng: random.Random, *, max_events: int = 4) -> FaultTimeline:
    """A random :class:`FaultTimeline` of 0–``max_events`` distinct-time events."""
    count = rng.randint(0, max_events)
    ats: set[float] = set()
    while len(ats) < count:
        ats.add(round(rng.uniform(0.0, 0.05), rng.randint(3, 9)))
    return FaultTimeline(tuple(timeline_event(rng, at) for at in sorted(ats)))


#: what a DES oracle timeline perturbs (see :func:`des_timeline`)
DES_TIMELINE_KINDS = ("links", "stalls")


def des_timeline(rng: random.Random, kind: str, *, events: int = 4) -> FaultTimeline:
    """A timeline whose events land *inside* collective runs.

    Event times are log-uniform over ``[1e-7, 1e-2]`` s, so runs from a
    few microseconds (KiB vectors) to milliseconds (MiB vectors) all see
    events fire mid-phase.  ``kind`` picks the damage:

    * ``"links"`` — global links fail (``links=K``) and heal;
    * ``"stalls"`` — background traffic, class derates, NIC outages and
      node failures, up to most of the machine, so in-flight flows lose
      their endpoints and stall; ``heal`` events of any target.
    """
    ats: set[float] = set()
    while len(ats) < events:
        ats.add(float(f"{10 ** rng.uniform(-7, -2):.4g}"))
    out = []
    for at in sorted(ats):
        if kind == "links":
            if rng.random() < 0.3:
                event = TimelineEvent(at=at, heal="links")
            else:
                event = TimelineEvent(
                    at=at, links=rng.randint(4, 40), seed=rng.randint(0, 99)
                )
        else:
            shape = rng.choice(("background", "derate", "nics", "nodes", "heal"))
            if shape == "background":
                event = TimelineEvent(at=at, background=rng.choice((0.25, 0.5, 0.9)))
            elif shape == "derate":
                event = TimelineEvent(at=at, derate={
                    rng.choice(("local", "global")): rng.choice((0.25, 0.5))
                })
            elif shape == "nics":
                event = TimelineEvent(
                    at=at, nics=rng.randint(1, 64), seed=rng.randint(0, 99)
                )
            elif shape == "nodes":
                event = TimelineEvent(
                    at=at, nodes=rng.choice((1, 100, 700)),
                    seed=rng.randint(0, 99),
                )
            else:
                event = TimelineEvent(at=at, heal=rng.choice(HEAL_TARGETS))
        out.append(event)
    return FaultTimeline(tuple(out))


def shuffled(items: Sequence[T], rng: random.Random) -> list[T]:
    """An independently shuffled copy (the metamorphic transform)."""
    out = list(items)
    rng.shuffle(out)
    return out


def rank_map(rng: random.Random, num_nodes: int, p: int, ppn: int = 1) -> RankMap:
    """A scattered ``p``-rank, ``ppn``-per-node placement on ``num_nodes``.

    Like a scheduler allocation: random nodes, hostname-sorted, filled
    block-wise; a non-multiple ``p`` leaves the last node part-filled.
    """
    nodes = rng.sample(range(num_nodes), -(-p // ppn))
    return RankMap(hostname_sorted(nodes, ppn).nodes[:p])


def queries_for(
    records: Sequence[SweepRecord], rng: random.Random, count: int,
    *, off_grid: bool = False,
) -> list[tuple[int, int]]:
    """``count`` (p, n_bytes) query points drawn from the records' grid.

    With ``off_grid`` the points are perturbed off the grid values, which
    only the ``nearest``/``refuse`` policies can answer.
    """
    ps = sorted({r.p for r in records})
    ns = sorted({r.n_bytes for r in records})
    out = []
    for _ in range(count):
        p, nb = rng.choice(ps), rng.choice(ns)
        if off_grid:
            p = max(1, p + rng.choice((-1, 1)) * rng.randint(1, max(1, p // 3)))
            nb = max(1, nb + rng.choice((-1, 1)) * rng.randint(1, max(1, nb // 3)))
        out.append((p, nb))
    return out
