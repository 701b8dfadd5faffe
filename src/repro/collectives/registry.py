"""String-keyed registry of every collective algorithm in the library.

The sweep harness (:mod:`repro.analysis.sweep`) and the benchmarks address
algorithms as ``(collective, name)``.  Each entry knows its family (``bine``
/ ``binomial`` / ``ring`` / …) so the paper's "Bine vs binomial" and
"Bine vs best state-of-the-art" summaries can group correctly, plus its
constraints (power-of-two ranks, divisibility).

Builders share the signature ``build(p, n, root=0, op="sum") -> Schedule``.
Entries built from a butterfly phase also carry a columnar lowering
(``columnar(p) -> TransferTable``), which the profiler's
:func:`~repro.model.compiled.transfer_table_for` uses instead of building
and lowering the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.bine_tree import (
    bine_tree_distance_doubling,
    bine_tree_distance_halving,
)
from repro.core.binomial_tree import (
    binomial_tree_distance_doubling,
    binomial_tree_distance_halving,
)
from repro.core.butterfly import (
    bine_butterfly_doubling,
    bine_butterfly_halving,
    recursive_doubling_butterfly,
    recursive_halving_butterfly,
    swing_butterfly,
)
from repro.collectives import alltoall as a2a
from repro.collectives import ring as ringmod
from repro.collectives.bruck_allgather import allgather_bruck, allgather_sparbit
from repro.collectives.butterfly_collectives import (
    allgather_butterfly,
    allgather_table,
    allreduce_recursive,
    allreduce_recursive_table,
    allreduce_reduce_scatter_allgather,
    allreduce_rsag_table,
    reduce_scatter_butterfly,
    reduce_scatter_table,
)
from repro.collectives.common import Strategy
from repro.collectives.composed import (
    bcast_scatter_allgather_bine,
    bcast_scatter_allgather_bine_table,
    bcast_scatter_allgather_binomial,
    bcast_scatter_allgather_binomial_table,
    reduce_rsag_bine,
    reduce_rsag_bine_table,
    reduce_rsag_rabenseifner,
    reduce_rsag_rabenseifner_table,
)
from repro.collectives.tree_collectives import (
    bcast_from_tree,
    gather_from_tree,
    reduce_from_tree,
    scatter_from_tree,
)
from repro.model.compiled import TransferTable
from repro.runtime.schedule import Schedule

__all__ = [
    "AlgorithmSpec",
    "ALGORITHMS",
    "build",
    "algorithms_for",
    "COLLECTIVES",
    "spec_for",
    "iter_specs",
    "families",
]

COLLECTIVES = (
    "bcast",
    "reduce",
    "gather",
    "scatter",
    "allgather",
    "reduce_scatter",
    "allreduce",
    "alltoall",
)


@dataclass(frozen=True)
class AlgorithmSpec:
    collective: str
    name: str
    family: str  # 'bine' | 'binomial' | 'ring' | 'bruck' | 'swing' | 'linear' | 'sota'
    builder: Callable[..., Schedule]
    pow2_only: bool = True
    needs_divisible: bool = False
    description: str = ""
    #: optional sweep cap: schedules with Θ(p²) wire segments (per-block
    #: strategies) are skipped above this rank count
    max_p: int | None = None
    #: internal: ``lower_schedule(build(p, p))`` emitted without building the
    #: schedule (butterfly-based entries); not a user-facing choice
    columnar: Callable[[int], TransferTable] | None = field(
        default=None, repr=False, compare=False
    )

    def build(self, p: int, n: int, root: int = 0, op: str = "sum") -> Schedule:
        return self.builder(p, n, root, op)

    @property
    def constraints(self) -> tuple[str, ...]:
        """Human-readable applicability constraints, for catalogs and CLIs.

        >>> from repro.collectives.registry import spec_for
        >>> spec_for("allreduce", "bine-rsag").constraints
        ('p power of two', 'n divisible by p')
        """
        out: list[str] = []
        if self.pow2_only:
            out.append("p power of two")
        if self.needs_divisible:
            out.append("n divisible by p")
        if self.max_p is not None:
            out.append(f"sweeps cap p at {self.max_p}")
        return tuple(out)


ALGORITHMS: dict[tuple[str, str], AlgorithmSpec] = {}


def _rs(butterfly, strategy: Strategy) -> dict:
    """``builder`` + ``columnar`` of a butterfly reduce-scatter entry."""
    return dict(
        builder=lambda p, n, root, op: reduce_scatter_butterfly(
            butterfly(p), n, op, strategy),
        columnar=lambda p: reduce_scatter_table(butterfly(p), "sum", strategy),
    )


def _ag(butterfly, strategy: Strategy) -> dict:
    """``builder`` + ``columnar`` of a butterfly allgather entry."""
    return dict(
        builder=lambda p, n, root, op: allgather_butterfly(butterfly(p), n, strategy),
        columnar=lambda p: allgather_table(butterfly(p), strategy),
    )


def _recursive(butterfly) -> dict:
    """``builder`` + ``columnar`` of a whole-vector butterfly allreduce."""
    return dict(
        builder=lambda p, n, root, op: allreduce_recursive(butterfly(p), n, op),
        columnar=lambda p: allreduce_recursive_table(butterfly(p)),
    )


def _rsag(butterfly, strategy: Strategy, segmented: bool = False) -> dict:
    """``builder`` + ``columnar`` of a reduce-scatter + allgather allreduce."""
    return dict(
        builder=lambda p, n, root, op: allreduce_reduce_scatter_allgather(
            butterfly(p), n, op, strategy, segmented=segmented),
        columnar=lambda p: allreduce_rsag_table(
            butterfly(p), "sum", strategy, segmented=segmented),
    )


def _register(spec: AlgorithmSpec) -> None:
    key = (spec.collective, spec.name)
    if key in ALGORITHMS:
        raise ValueError(f"duplicate algorithm {key}")
    ALGORITHMS[key] = spec


def build(collective: str, name: str, p: int, n: int, root: int = 0, op: str = "sum") -> Schedule:
    """Build a schedule for a registered algorithm.

    >>> from repro.collectives.registry import build
    >>> build("bcast", "bine", 8, 8).num_steps
    3
    """
    return spec_for(collective, name).build(p, n, root, op)


def algorithms_for(collective: str) -> list[str]:
    """Registered algorithm names for a collective.

    >>> from repro.collectives.registry import algorithms_for
    >>> "bine" in algorithms_for("bcast")
    True
    """
    return sorted(name for (c, name) in ALGORITHMS if c == collective)


def spec_for(collective: str, name: str) -> AlgorithmSpec:
    """The registered :class:`AlgorithmSpec`, with a helpful lookup error.

    >>> from repro.collectives.registry import spec_for
    >>> spec_for("allreduce", "ring").family
    'ring'
    """
    try:
        return ALGORITHMS[(collective, name)]
    except KeyError:
        raise KeyError(
            f"no algorithm {name!r} for {collective!r}; "
            f"have {algorithms_for(collective)}"
        ) from None


def iter_specs(
    collective: str | None = None, family: str | None = None
) -> list[AlgorithmSpec]:
    """Registry entries in deterministic ``(collective, name)`` order.

    Both filters are optional; this is the introspection entry point the
    CLI's ``repro list`` (and the generated algorithm catalog) sit on.

    >>> from repro.collectives.registry import iter_specs
    >>> [s.name for s in iter_specs("alltoall", family="bine")]
    ['bine']
    """
    return [
        spec
        for (coll, _), spec in sorted(ALGORITHMS.items())
        if (collective is None or coll == collective)
        and (family is None or spec.family == family)
    ]


def families() -> list[str]:
    """All algorithm families present in the registry, sorted.

    >>> from repro.collectives.registry import families
    >>> {"bine", "binomial", "ring"} <= set(families())
    True
    """
    return sorted({spec.family for spec in ALGORITHMS.values()})


# --------------------------------------------------------------------------
# bcast
# --------------------------------------------------------------------------
_register(AlgorithmSpec(
    "bcast", "binomial-dd", "binomial",
    lambda p, n, root, op: bcast_from_tree(binomial_tree_distance_doubling(p, root), n),
    description="Open MPI binomial broadcast (distance doubling, Fig. 1 top)",
))
_register(AlgorithmSpec(
    "bcast", "binomial-dh", "binomial",
    lambda p, n, root, op: bcast_from_tree(binomial_tree_distance_halving(p, root), n),
    description="MPICH binomial broadcast (distance halving, Fig. 1 bottom)",
))
_register(AlgorithmSpec(
    "bcast", "bine", "bine",
    lambda p, n, root, op: bcast_from_tree(bine_tree_distance_halving(p, root), n),
    description="Bine distance-halving tree broadcast (Listing 1)",
))
_register(AlgorithmSpec(
    "bcast", "scatter-allgather", "binomial",
    lambda p, n, root, op: bcast_scatter_allgather_binomial(p, n, root),
    columnar=bcast_scatter_allgather_binomial_table,
    description="MPICH large-vector broadcast: binomial scatter + recdoub allgather",
))
_register(AlgorithmSpec(
    "bcast", "bine-scatter-allgather", "bine",
    lambda p, n, root, op: bcast_scatter_allgather_bine(p, n, root),
    columnar=bcast_scatter_allgather_bine_table,
    needs_divisible=True,
    description="Bine large-vector broadcast: dd-tree π scatter + dh butterfly allgather",
))

# --------------------------------------------------------------------------
# reduce
# --------------------------------------------------------------------------
_register(AlgorithmSpec(
    "reduce", "binomial-dd", "binomial",
    lambda p, n, root, op: reduce_from_tree(binomial_tree_distance_doubling(p, root), n, op),
    description="binomial tree reduce (distance doubling)",
))
_register(AlgorithmSpec(
    "reduce", "binomial-dh", "binomial",
    lambda p, n, root, op: reduce_from_tree(binomial_tree_distance_halving(p, root), n, op),
    description="binomial tree reduce (distance halving)",
))
_register(AlgorithmSpec(
    "reduce", "bine", "bine",
    lambda p, n, root, op: reduce_from_tree(bine_tree_distance_halving(p, root), n, op),
    description="Bine distance-halving tree reduce (small vectors)",
))
_register(AlgorithmSpec(
    "reduce", "rabenseifner", "binomial",
    lambda p, n, root, op: reduce_rsag_rabenseifner(p, n, root, op),
    columnar=reduce_rsag_rabenseifner_table,
    description="reduce-scatter + binomial gather (the standard butterfly large reduce)",
))
_register(AlgorithmSpec(
    "reduce", "bine-rsag", "bine",
    lambda p, n, root, op: reduce_rsag_bine(p, n, root, op),
    columnar=reduce_rsag_bine_table,
    needs_divisible=True,
    description="Bine large reduce: dd butterfly RS (send) + reversed dd-tree gather",
))

# --------------------------------------------------------------------------
# gather / scatter
# --------------------------------------------------------------------------
_register(AlgorithmSpec(
    "gather", "binomial", "binomial",
    lambda p, n, root, op: gather_from_tree(binomial_tree_distance_halving(p, root), n),
    description="binomial gather (contiguous subtree ranges)",
))
_register(AlgorithmSpec(
    "gather", "bine", "bine",
    lambda p, n, root, op: gather_from_tree(bine_tree_distance_halving(p, root), n),
    description="Bine gather with circular ranges (Fig. 7)",
))
_register(AlgorithmSpec(
    "gather", "linear", "linear",
    lambda p, n, root, op: ringmod.linear_gather(p, n, root),
    pow2_only=False,
    description="flat gather: everyone sends directly to the root",
))
_register(AlgorithmSpec(
    "scatter", "binomial", "binomial",
    lambda p, n, root, op: scatter_from_tree(binomial_tree_distance_halving(p, root), n),
    description="binomial scatter",
))
_register(AlgorithmSpec(
    "scatter", "bine", "bine",
    lambda p, n, root, op: scatter_from_tree(bine_tree_distance_halving(p, root), n),
    description="Bine scatter (Sec. 4.2)",
))
_register(AlgorithmSpec(
    "scatter", "linear", "linear",
    lambda p, n, root, op: ringmod.linear_scatter(p, n, root),
    pow2_only=False,
    description="flat scatter",
))

# --------------------------------------------------------------------------
# allgather
# --------------------------------------------------------------------------
_register(AlgorithmSpec(
    "allgather", "recursive-doubling", "binomial",
    **_ag(recursive_halving_butterfly, Strategy.NATURAL),
    description="standard recursive-doubling allgather (contiguous)",
))
_register(AlgorithmSpec(
    "allgather", "ring", "ring",
    lambda p, n, root, op: ringmod.ring_allgather(p, n),
    pow2_only=False,
    description="ring allgather",
))
_register(AlgorithmSpec(
    "allgather", "bruck", "bruck",
    lambda p, n, root, op: allgather_bruck(p, n),
    pow2_only=False,
    description="Bruck allgather",
))
_register(AlgorithmSpec(
    "allgather", "sparbit", "sota",
    lambda p, n, root, op: allgather_sparbit(p, n),
    pow2_only=False, max_p=512,
    description="sparbit-like allgather (log steps, per-block sends)",
))
_register(AlgorithmSpec(
    "allgather", "swing", "swing",
    **_ag(swing_butterfly, Strategy.NATURAL),
    description="Swing allgather (Bine matchings, natural non-contiguous blocks)",
))
for _strat, _div in (
    (Strategy.NATURAL, False), (Strategy.BLOCKS, False),
    (Strategy.PERMUTE, True), (Strategy.SEND, True),
):
    _register(AlgorithmSpec(
        "allgather", f"bine-{_strat.value}", "bine",
        **_ag(bine_butterfly_doubling, _strat),
        needs_divisible=_div,
        max_p=512 if _strat is Strategy.BLOCKS else None,
        description=f"Bine allgather, {_strat.value} strategy (Sec. 4.3.1)",
    ))
_register(AlgorithmSpec(
    "allgather", "bine-two-transmissions", "bine",
    **_ag(bine_butterfly_halving, Strategy.TWO_TRANSMISSIONS),
    description="Bine allgather via dist-halving-RS reversal (≤2 segments)",
))

# --------------------------------------------------------------------------
# reduce_scatter
# --------------------------------------------------------------------------
_register(AlgorithmSpec(
    "reduce_scatter", "recursive-halving", "binomial",
    **_rs(recursive_halving_butterfly, Strategy.NATURAL),
    description="standard recursive-halving reduce-scatter",
))
_register(AlgorithmSpec(
    "reduce_scatter", "ring", "ring",
    lambda p, n, root, op: ringmod.ring_reduce_scatter(p, n, op),
    pow2_only=False,
    description="ring reduce-scatter",
))
_register(AlgorithmSpec(
    "reduce_scatter", "swing", "swing",
    **_rs(swing_butterfly, Strategy.NATURAL),
    description="Swing reduce-scatter (natural non-contiguous blocks)",
))
for _strat, _div in (
    (Strategy.NATURAL, False), (Strategy.BLOCKS, False),
    (Strategy.PERMUTE, True), (Strategy.SEND, True),
):
    _register(AlgorithmSpec(
        "reduce_scatter", f"bine-{_strat.value}", "bine",
        **_rs(bine_butterfly_doubling, _strat),
        needs_divisible=_div,
        max_p=512 if _strat is Strategy.BLOCKS else None,
        description=f"Bine reduce-scatter, {_strat.value} strategy",
    ))
_register(AlgorithmSpec(
    "reduce_scatter", "bine-two-transmissions", "bine",
    **_rs(bine_butterfly_halving, Strategy.TWO_TRANSMISSIONS),
    description="Bine reduce-scatter on the dist-halving butterfly (≤2 segments)",
))

# --------------------------------------------------------------------------
# allreduce
# --------------------------------------------------------------------------
_register(AlgorithmSpec(
    "allreduce", "recursive-doubling", "binomial",
    **_recursive(recursive_doubling_butterfly),
    description="recursive-doubling allreduce (small vectors)",
))
_register(AlgorithmSpec(
    "allreduce", "ring", "ring",
    lambda p, n, root, op: ringmod.ring_allreduce(p, n, op),
    pow2_only=False,
    description="ring allreduce (RS + AG)",
))
_register(AlgorithmSpec(
    "allreduce", "rabenseifner", "binomial",
    **_rsag(recursive_halving_butterfly, Strategy.NATURAL),
    description="Rabenseifner allreduce: recursive halving RS + recdoub AG "
                "(the standard butterfly large allreduce)",
))
_register(AlgorithmSpec(
    "allreduce", "swing", "swing",
    **_rsag(swing_butterfly, Strategy.NATURAL),
    description="Swing allreduce (non-contiguous multi-segment sends)",
))
_register(AlgorithmSpec(
    "allreduce", "bine-small", "bine",
    **_recursive(bine_butterfly_halving),
    description="Bine small-vector allreduce: recursive doubling on Bine butterfly",
))
_register(AlgorithmSpec(
    "allreduce", "bine-rsag", "bine",
    **_rsag(bine_butterfly_doubling, Strategy.SEND),
    needs_divisible=True,
    description="Bine large-vector allreduce: RS + AG in send mode (zero reordering)",
))
_register(AlgorithmSpec(
    "allreduce", "bine-rsag-segmented", "bine",
    **_rsag(bine_butterfly_doubling, Strategy.SEND, segmented=True),
    needs_divisible=True,
    description="segmented Bine allreduce (pipelined chunks, Sec. 5.2.2)",
))

# --------------------------------------------------------------------------
# alltoall
# --------------------------------------------------------------------------
_register(AlgorithmSpec(
    "alltoall", "bruck", "bruck",
    lambda p, n, root, op: a2a.alltoall_bruck(p, n),
    pow2_only=False, needs_divisible=True,
    description="Bruck alltoall (log steps)",
))
_register(AlgorithmSpec(
    "alltoall", "pairwise", "linear",
    lambda p, n, root, op: a2a.alltoall_pairwise(p, n),
    pow2_only=False, needs_divisible=True,
    description="pairwise-exchange alltoall (p−1 steps)",
))
_register(AlgorithmSpec(
    "alltoall", "bine", "bine",
    lambda p, n, root, op: a2a.alltoall_bine(p, n),
    needs_divisible=True,
    description="Bine butterfly alltoall (Sec. 4.4)",
))
