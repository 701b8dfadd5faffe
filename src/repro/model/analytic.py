"""Fast analytic profiles for linear-step algorithms at large rank counts.

Ring, pairwise-alltoall, Bruck-alltoall and Bine-alltoall build ``Θ(p²)`` or
``Θ(p² log p)`` explicit schedules — exact but needlessly slow when only the
*cost profile* is needed for a sweep at ``p`` in the hundreds or thousands.
These builders produce the same :class:`~repro.model.simulator.StepProfile`
aggregates directly from the algorithms' regular structure:

* **ring**: every step is the same neighbour matching carrying one block —
  profile one step, replicate ``p − 1`` times (exact);
* **pairwise alltoall**: step ``k`` is the offset-``k`` matching with one
  block — profile a spread sample of offsets and replicate to neighbours
  (step costs vary smoothly in ``k``; sampling error only affects the
  latency/load of the skipped offsets);
* **Bruck / Bine alltoall**: ``log p`` steps of ``p/2`` blocks per rank;
  transfers (hence routing/groups) are exact, segment counts use the
  phase-0 structural value ``p / 2^{k+2}`` runs (later phases interleave
  slots similarly; exact builders are used for small ``p`` and agree within
  the tie threshold in tests).

The sweep layer switches to these above ``ANALYTIC_THRESHOLD`` ranks;
correctness tests always run the exact schedule builders.  Every step is
collapsed by ``routes.profile_step`` on a
:class:`~repro.model.compiled.CompiledRouteTable` — the sweep passes its
shared table; omitted, each call builds a private one.
"""

from __future__ import annotations

from repro.core.butterfly import bine_butterfly_doubling
from repro.model.compiled import CompiledRouteTable
from repro.model.simulator import ScheduleProfile, StepProfile
from repro.topology.base import Topology
from repro.topology.mapping import RankMap

__all__ = [
    "ANALYTIC_THRESHOLD",
    "ANALYTIC_PROFILES",
    "ring_profile",
    "pairwise_alltoall_profile",
    "bruck_alltoall_profile",
    "bine_alltoall_profile",
]

#: use exact schedule builders at or below this rank count
ANALYTIC_THRESHOLD = 128


def _ctx(
    p: int, topo: Topology, rank_map: RankMap,
    routes: CompiledRouteTable | None,
):
    if rank_map.num_ranks != p:
        raise ValueError("mapping size mismatch")
    if routes is None:
        routes = CompiledRouteTable(topo)
    return rank_map.groups(topo), routes


def ring_profile(
    p: int, topo: Topology, rank_map: RankMap, variant: str,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Exact ring profile: one representative step, replicated.

    ``variant``: ``"reduce_scatter"``, ``"allgather"`` or ``"allreduce"``.
    """
    groups, rtab = _ctx(p, topo, rank_map, routes)
    rs_step = rtab.profile_step(
        ((r, (r + 1) % p, 1, 1, True) for r in range(p)),
        (), rank_map.nodes, groups,
    )
    ag_step = rtab.profile_step(
        ((r, (r + 1) % p, 1, 1, False) for r in range(p)),
        (), rank_map.nodes, groups,
    )
    if variant == "reduce_scatter":
        steps = (rs_step,) * (p - 1)
        meta = {"collective": "reduce_scatter", "algorithm": "ring"}
    elif variant == "allgather":
        steps = (ag_step,) * (p - 1)
        meta = {"collective": "allgather", "algorithm": "ring"}
    elif variant == "allreduce":
        steps = (rs_step,) * (p - 1) + (ag_step,) * (p - 1)
        meta = {"collective": "allreduce", "algorithm": "ring", "segmented": True}
    else:
        raise ValueError(f"unknown ring variant {variant!r}")
    meta.update({"p": p, "n": p, "analytic": True})
    return ScheduleProfile(p=p, n_build=p, meta=meta, steps=steps)


def pairwise_alltoall_profile(
    p: int, topo: Topology, rank_map: RankMap, samples: int = 32,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Pairwise alltoall: sample the offset space, replicate to neighbours."""
    groups, rtab = _ctx(p, topo, rank_map, routes)
    offsets = sorted({max(1, round(1 + k * (p - 2) / max(1, samples - 1))) for k in range(samples)})
    sampled: dict[int, StepProfile] = {}
    for k in offsets:
        sampled[k] = rtab.profile_step(
            ((r, (r + k) % p, 1, 1, False) for r in range(p)),
            (), rank_map.nodes, groups,
        )
    keys = sorted(sampled)
    steps = []
    for k in range(1, p):
        nearest = min(keys, key=lambda x: abs(x - k))
        steps.append(sampled[nearest])
    meta = {"collective": "alltoall", "algorithm": "pairwise", "p": p, "n": p,
            "analytic": True}
    return ScheduleProfile(p=p, n_build=p, meta=meta, steps=tuple(steps))


def bruck_alltoall_profile(
    p: int, topo: Topology, rank_map: RankMap,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Bruck alltoall: packed sends (the rotation trick) + per-step pack copy.

    Real Bruck implementations rotate/pack blocks so each phase transmits
    contiguously; we charge one buffer-wide local copy per phase for it.
    """
    groups, rtab = _ctx(p, topo, rank_map, routes)
    s = max(1, (p - 1).bit_length())
    steps = []
    for k in range(s):
        dist = 1 << k
        nelems = sum(1 for off in range(p) if (off >> k) & 1)
        steps.append(
            rtab.profile_step(
                ((r, (r + dist) % p, nelems, 1, False) for r in range(p)),
                ((r, p, False) for r in range(p)),
                rank_map.nodes, groups,
            )
        )
    # final local unpack (inverse rotation)
    steps.append(
        rtab.profile_step(
            (), ((r, p, False) for r in range(p)), rank_map.nodes, groups
        )
    )
    meta = {"collective": "alltoall", "algorithm": "bruck", "p": p, "n": p,
            "analytic": True}
    return ScheduleProfile(p=p, n_build=p, meta=meta, steps=tuple(steps))


def bine_alltoall_profile(
    p: int, topo: Topology, rank_map: RankMap,
    routes: CompiledRouteTable | None = None,
) -> ScheduleProfile:
    """Bine alltoall with the paper's packing scheme (Sec. 4.4).

    "Each rank moves the data it wants to keep to the left of its buffer and
    the data it needs to send to the right, similar to the rotations in
    Bruck's algorithm" — contiguous wire transfers (1 segment) at Bine's
    short distances, one buffer-wide local copy per step, plus the final
    reorder permutation.  (The executor's exact builder instead tracks
    scattered slots — same bytes and routes, fragmented wire — so the
    correctness oracle and the cost profile describe the same algorithm with
    the two data-handling choices the paper discusses.)
    """
    groups, rtab = _ctx(p, topo, rank_map, routes)
    bf = bine_butterfly_doubling(p)
    steps = []
    for j in range(bf.num_steps):
        steps.append(
            rtab.profile_step(
                ((r, bf.partner(r, j), p // 2, 1, False) for r in range(p)),
                ((r, p, False) for r in range(p)),
                rank_map.nodes, groups,
            )
        )
    steps.append(
        rtab.profile_step(
            (), ((r, p, False) for r in range(p)), rank_map.nodes, groups
        )
    )
    meta = {"collective": "alltoall", "algorithm": "bine", "p": p, "n": p,
            "analytic": True}
    return ScheduleProfile(p=p, n_build=p, meta=meta, steps=tuple(steps))


#: (collective, algorithm) → analytic builder(p, topo, rank_map)
ANALYTIC_PROFILES = {
    ("reduce_scatter", "ring"):
        lambda p, t, m, routes=None: ring_profile(p, t, m, "reduce_scatter", routes),
    ("allgather", "ring"):
        lambda p, t, m, routes=None: ring_profile(p, t, m, "allgather", routes),
    ("allreduce", "ring"):
        lambda p, t, m, routes=None: ring_profile(p, t, m, "allreduce", routes),
    ("alltoall", "pairwise"):
        lambda p, t, m, routes=None: pairwise_alltoall_profile(p, t, m, routes=routes),
    ("alltoall", "bruck"): bruck_alltoall_profile,
    ("alltoall", "bine"): bine_alltoall_profile,
}
