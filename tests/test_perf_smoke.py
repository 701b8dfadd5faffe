"""Wall-clock guard against sweep-pipeline performance regressions.

The quadratic ``Step.validate`` re-scan (and the uncached ν-label tables it
hid behind) made a single 256-rank butterfly build+profile take seconds;
the fixed pipeline does it in well under one.  A generous budget keeps the
test portable across CI machines while still failing loudly if an
O(transfers²)-class regression returns.
"""

from __future__ import annotations

import time

from repro.analysis.sweep import ProfileCache, clear_memo_caches, sweep_system
from repro.collectives.butterfly_collectives import allgather_butterfly
from repro.collectives.registry import build, spec_for
from repro.collectives.verify import check, init_buffers, run_and_check_compiled
from repro.core.butterfly import bine_butterfly_doubling
from repro.des import records as des_records
from repro.faults import FaultSpec
from repro.model.analytic import pairwise_alltoall_profile
from repro.model.compiled import CompiledRouteTable, profile_schedule
from repro.runtime.compiled import compile_plan
from repro.runtime.executor import execute
from repro.runtime.schedule import schedule_validation
from repro.systems import lumi
from repro.topology.mapping import block_mapping

#: generous ceiling — the pre-fix pipeline exceeded it several times over
BUDGET_S = 5.0
#: route-interning ceiling for the p=1024 pairwise alltoall cell
ROUTE_BUDGET_S = 1.5
#: DES cell ceiling: about three times the phase drain's time for the cell
#: (5.5 ms on a 2-vCPU Xeon box; the per-entry event heap took 34 ms)
DES_CELL_BUDGET_S = 0.016


def test_256_rank_allgather_build_profile_under_budget():
    clear_memo_caches()  # cold start: include label-table construction
    preset = lumi()
    topo = preset.build_topology()
    t0 = time.perf_counter()
    schedule = allgather_butterfly(bine_butterfly_doubling(256), 256)
    profile = profile_schedule(schedule, topo, block_mapping(256))
    elapsed = time.perf_counter() - t0
    assert len(profile.steps) == schedule.num_steps == 8
    assert elapsed < BUDGET_S, f"build+profile took {elapsed:.2f}s (budget {BUDGET_S}s)"


def test_256_rank_compiled_oracle_under_reference_budget():
    """Compile + batched execute must stay under the reference executor's
    wall-clock for the same work — the compiled path's reason to exist.

    The cell is a 256-rank ring allreduce (Θ(p²) transfers: per-transfer
    interpreter overhead dominates) verified at two seeds; the reference
    budget is measured in-process so the assertion is machine-independent.
    A small floor keeps timer noise from failing near-zero measurements.
    """
    seeds = (0, 1)
    schedule = build("allreduce", "ring", 256, 256)
    with schedule_validation(False):  # identical settings for both engines
        t0 = time.perf_counter()
        for seed in seeds:
            bufs = init_buffers(schedule, seed)
            execute(schedule, bufs)
            check(schedule, bufs, seed)
        reference_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        run_and_check_compiled(schedule, seeds)  # includes compile_plan
        compiled_s = time.perf_counter() - t0
    assert compiled_s < max(reference_s, 0.05), (
        f"compile+execute took {compiled_s:.3f}s, "
        f"reference budget is {reference_s:.3f}s"
    )


def test_4096_rank_sweep_cell_under_budget():
    """One cold p=4096 sweep cell — build, lower, profile through the CSR
    route matrix, evaluate all nine paper sizes in one grid pass — must
    stay comfortably interactive (the compiled profile pipeline's reason
    to exist; this cell measured ~1.4 s cold on the bench box).  LUMI has
    24 x 124 = 2976 nodes, so 4096 ranks run at ppn=2 like the paper's
    multi-rank-per-node configurations.
    """
    clear_memo_caches()  # cold start: include table lowering + routing
    t0 = time.perf_counter()
    records = sweep_system(
        lumi(),
        ("allreduce",),
        node_counts=(4096,),
        vector_bytes=tuple(32 * 8**k for k in range(9)),
        algorithms=("bine-rsag",),
        ppn=2,
        profile_engine="compiled",
    )
    elapsed = time.perf_counter() - t0
    assert len(records) == 9
    assert all(r.p == 4096 and r.time > 0 for r in records)
    assert elapsed < BUDGET_S * 2, (
        f"p=4096 sweep cell took {elapsed:.2f}s (budget {BUDGET_S * 2}s)"
    )


def test_1024_rank_compiled_oracle_absolute_budget():
    """A p=1024 butterfly cell — compile once, verify two seeds — must stay
    comfortably interactive (the grid-scale `repro verify` building block)."""
    schedule = build("allreduce", "bine-rsag", 1024, 1024)
    with schedule_validation(False):
        t0 = time.perf_counter()
        plan = compile_plan(schedule)
        run_and_check_compiled(schedule, (0, 1), plan)
        elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_S, (
        f"compile+verify took {elapsed:.2f}s (budget {BUDGET_S}s)"
    )


def test_1024_rank_pairwise_alltoall_routing_under_budget():
    """Analytic pairwise alltoall at p=1024 interns ~32k node pairs, one
    step's batch at a time, into a fresh CSR route table.  Interning must
    stay linear in the number of pairs: when every new batch rebuilt the
    whole route matrix this cell took 0.5-2.4 s depending on the host;
    batch appends into growable buffers take ~0.25 s.  The ceiling is
    six times that.
    """
    topo = lumi().build_topology()
    mapping = block_mapping(1024)
    routes = CompiledRouteTable(topo)
    t0 = time.perf_counter()
    profile = pairwise_alltoall_profile(1024, topo, mapping, routes=routes)
    elapsed = time.perf_counter() - t0
    assert len(profile.steps) == 1023
    assert len(routes) > 30_000
    assert elapsed < ROUTE_BUDGET_S, (
        f"pairwise alltoall p=1024 took {elapsed:.2f}s (budget {ROUTE_BUDGET_S}s)"
    )


def test_des_timeline_cell_under_budget():
    """One DES sweep cell — allgather Bine at p=128, 16 MiB, with four
    global links failing at 100 µs and healing at 20 ms — simulated over a
    warm profile cache, best of five.  The per-entry event heap pushed and
    popped one event per (flow, resource) entry and took several times
    the ceiling; the phase drain computes each queue's finish times as one
    running sum.
    """
    preset = lumi()
    cache = ProfileCache(
        preset, profile_engine="des",
        faults=FaultSpec(timeline="at=0.0001:links=4,seed=9;at=0.02:heal=links"),
    )
    spec = spec_for("allgather", "bine-send")
    profile = cache.get(spec, 128)
    best = float("inf")
    for _ in range(5):
        des_records._SIM_CACHE.clear()
        t0 = time.perf_counter()
        (record,) = des_records.des_records(
            cache, preset.name, spec, 128, (16777216,), preset.params, 1, profile
        )
        best = min(best, time.perf_counter() - t0)
    assert not record.stalled
    assert best < DES_CELL_BUDGET_S, (
        f"DES cell took {best * 1e3:.1f} ms (budget {DES_CELL_BUDGET_S * 1e3:.0f} ms)"
    )
