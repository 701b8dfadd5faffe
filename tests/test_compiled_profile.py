"""Compiled profile pipeline == scalar oracle, bit for bit.

The profiling kernel (transfer tables, CSR route matrices, grid
evaluation — :mod:`repro.model.compiled`) must be a pure optimization of
the scalar reference profiler in ``tests/oracle_profile.py``: every
:class:`StepProfile`, every evaluated time and every sweep record must
equal the oracle's output exactly, not merely within tolerance.  These
tests pin that contract across the whole algorithm registry (including
non-power-of-two rank counts and ppn=2), the analytic profile builders,
the torus catalog, and the sweep layer itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.analysis.sweep import (
    ProfileCache,
    clear_memo_caches,
    sweep_system,
    sweep_torus,
)
from repro.collectives.butterfly_collectives import (
    allgather_butterfly,
    allgather_table,
    allreduce_reduce_scatter_allgather,
    allreduce_rsag_table,
    reduce_scatter_butterfly,
    reduce_scatter_table,
)
from repro.collectives.common import Strategy
from repro.collectives.registry import ALGORITHMS, spec_for
from repro.core.butterfly import (
    Butterfly,
    bine_butterfly_halving,
    recursive_doubling_butterfly,
    recursive_halving_butterfly,
)
from repro.model.analytic import ANALYTIC_PROFILES
from repro.model.compiled import (
    _TABLE_CACHE,
    CompiledRouteTable,
    _seq_sum,
    evaluate_grid,
    evaluate_time,
    lower_schedule,
    profile_schedule,
    profile_table,
    resolve_profile_engine,
    transfer_table_for,
)
from repro.runtime.errors import ScheduleError
from repro.runtime.schedule import schedule_validation
from repro.systems import fugaku, lumi
from repro.systems.presets import PAPER_VECTOR_BYTES
from repro.topology.mapping import block_mapping

import oracle_profile as oracle
from strategies import rank_map, rng_for, shuffled

RANK_COUNTS = (4, 8, 16, 17, 32)
#: geometric size grid (the paper's 32 B ... 512 MiB ladder, thinned)
N_BYTES = tuple(32 * 8**k for k in range(0, 9, 2))


def _buildable_schedules(p):
    """Every registry schedule that exists at ``p`` (validation off)."""
    for (coll, name), spec in sorted(ALGORITHMS.items()):
        if spec.max_p is not None and p > spec.max_p:
            continue
        try:
            with schedule_validation(False):
                yield coll, name, spec.build(p, p)
        except ValueError:
            continue  # pow2/divisibility constraint not met


class TestStepProfileEquivalence:
    @pytest.mark.parametrize("ppn", [1, 2])
    @pytest.mark.parametrize("p", RANK_COUNTS)
    def test_registry_profiles_bit_identical(self, p, ppn):
        # ppn > 1 exercises the intra-node (shared-memory copy) branch
        preset = lumi()
        topo = preset.build_topology()
        mapping = block_mapping(p, ppn=ppn)
        routes = oracle.RouteTable(topo)
        croutes = CompiledRouteTable(topo)
        checked = 0
        for coll, name, sched in _buildable_schedules(p):
            ref = oracle.profile_schedule(sched, topo, mapping, routes=routes)
            co = profile_table(
                lower_schedule(sched), topo, mapping, routes=croutes
            )
            assert ref == co, f"{coll}/{name} p={p} ppn={ppn}"
            checked += 1
        # the registry actually covered this p (non-pow2 thins the field)
        assert checked >= (10 if p & (p - 1) == 0 else 8)

    def test_ppn2_same_node_copies_bit_identical(self):
        preset = lumi()
        topo = preset.build_topology()
        mapping = block_mapping(16, ppn=2)
        for coll, name in (("allreduce", "bine-rsag"), ("bcast", "binomial-dd")):
            sched = ALGORITHMS[(coll, name)].build(16, 16)
            ref = oracle.profile_schedule(sched, topo, mapping)
            assert ref == profile_table(lower_schedule(sched), topo, mapping)
            assert ref == profile_schedule(sched, topo, mapping)

    def test_analytic_builders_share_the_kernel(self):
        # the analytic builders call routes.profile_step: the oracle
        # RouteTable, passed as a fake CompiledRouteTable, must give the
        # same profiles as the compiled kernel
        preset = lumi()
        topo = preset.build_topology()
        routes = oracle.RouteTable(topo)
        croutes = CompiledRouteTable(topo)
        for (coll, name), builder in sorted(ANALYTIC_PROFILES.items()):
            for p in (16, 256):
                mapping = block_mapping(p)
                assert builder(p, topo, mapping, routes=routes) == builder(
                    p, topo, mapping, routes=croutes
                ), f"analytic {coll}/{name} p={p}"
                # omitted, the builder routes on a private compiled table
                assert builder(p, topo, mapping) == builder(
                    p, topo, mapping, routes=croutes
                ), f"analytic {coll}/{name} p={p}"

    def test_profile_table_rejects_foreign_topology(self):
        topo_a = lumi().build_topology()
        topo_b = lumi().build_topology()
        sched = ALGORITHMS[("bcast", "bine")].build(8, 8)
        with pytest.raises(ValueError, match="different topology"):
            profile_table(
                lower_schedule(sched), topo_a, block_mapping(8),
                routes=CompiledRouteTable(topo_b),
            )

    def test_profile_table_rejects_mapping_mismatch(self):
        topo = lumi().build_topology()
        sched = ALGORITHMS[("bcast", "bine")].build(8, 8)
        with pytest.raises(ValueError, match="8"):
            profile_table(lower_schedule(sched), topo, block_mapping(4))


class TestRouteInterningHistory:
    """A profile must not depend on what the route table interned before.

    The sweep shares one :class:`CompiledRouteTable` across every
    algorithm of a campaign, and serial, ``--workers`` and resumed runs
    visit cells in different orders, so the same schedule meets tables
    with different interning histories (pair, link and signature ids in
    a different order).  Every history must give the same profiles.
    """

    @staticmethod
    def _assert_csr_is_view(routes):
        csr = routes._csr()
        for name in ("off", "link", "width", "cls", "sig", "nic", "hops"):
            col, buf = getattr(csr, name), getattr(routes, "_" + name)
            if buf.size:
                assert np.shares_memory(col, buf), f"_csr().{name} is a copy"

    @pytest.mark.parametrize("ppn", [1, 2])
    @pytest.mark.parametrize("p", [8, 17, 64])
    def test_profiles_independent_of_interning_order(self, p, ppn):
        rng = rng_for(100 * p + ppn)
        topo = lumi().build_topology()
        mapping = rank_map(rng, topo.num_nodes, p, ppn)
        tables = {
            (coll, name): lower_schedule(sched)
            for coll, name, sched in _buildable_schedules(p)
        }
        fresh = {
            key: profile_table(table, topo, mapping)
            for key, table in tables.items()
        }
        # one table pre-warmed by the other algorithms, in shuffled order
        shared = CompiledRouteTable(topo)
        for key in shuffled(sorted(tables), rng):
            assert profile_table(
                tables[key], topo, mapping, routes=shared
            ) == fresh[key], f"{key} on a pre-warmed table"
        self._assert_csr_is_view(shared)
        # a table that interned every pair alone, one resolve per pair
        nodes = np.asarray(mapping.nodes, dtype=np.intp)
        pairs = sorted({
            (int(a), int(b))
            for table in tables.values()
            for a, b in zip(nodes[table.src], nodes[table.dst])
        })
        single = CompiledRouteTable(topo)
        for a, b in shuffled(pairs, rng):
            single.resolve(np.array([a]), np.array([b]))
        assert len(single) == len(shared) == len(pairs)
        for key, table in tables.items():
            assert profile_table(
                table, topo, mapping, routes=single
            ) == fresh[key], f"{key} on a pair-by-pair table"
        self._assert_csr_is_view(single)


#: the paper's size ladder plus tiny vectors (scale < 1 in elements)
ORACLE_N_ELEMS = (1.0, 3.0) + tuple(nb / 4 for nb in PAPER_VECTOR_BYTES)


def _assert_grid_matches_oracle(profile, params, n_elems, where):
    """evaluate_grid and evaluate_time == the scalar oracle, every cell."""
    grid = evaluate_grid(profile, params, n_elems)
    for j, n in enumerate(n_elems):
        ref = oracle.evaluate_time(profile, params, n)
        assert grid.time[j] == ref.time, f"{where} n={n}"
        assert grid.global_bytes[j] == ref.global_bytes, f"{where} n={n}"
        assert {
            cls: arr[j] for cls, arr in grid.bytes_by_class.items()
        } == ref.bytes_by_class, f"{where} n={n}"
        assert evaluate_time(profile, params, n) == ref, f"{where} n={n}"
    return len(n_elems)


class TestEvaluateGrid:
    """evaluate_grid (and its one-size wrapper) == the scalar evaluator."""

    @pytest.mark.parametrize("ppn", [1, 2])
    @pytest.mark.parametrize("p", RANK_COUNTS)
    def test_registry_matches_oracle(self, p, ppn):
        preset = lumi()
        topo = preset.build_topology()
        mapping = block_mapping(p, ppn=ppn)
        routes = CompiledRouteTable(topo)
        cells = 0
        for coll, name, sched in _buildable_schedules(p):
            profile = profile_table(
                lower_schedule(sched), topo, mapping, routes=routes
            )
            cells += _assert_grid_matches_oracle(
                profile, preset.params, ORACLE_N_ELEMS,
                f"{coll}/{name} p={p} ppn={ppn}",
            )
        assert cells >= 8 * len(ORACLE_N_ELEMS)

    @pytest.mark.parametrize("p", [256, 1024])
    def test_analytic_profiles_match_oracle(self, p):
        # thousands of replicated steps: the _lat_array id-memo path
        preset = lumi()
        topo = preset.build_topology()
        mapping = block_mapping(p)
        routes = CompiledRouteTable(topo)
        for (coll, name), builder in sorted(ANALYTIC_PROFILES.items()):
            _assert_grid_matches_oracle(
                builder(p, topo, mapping, routes=routes), preset.params,
                ORACLE_N_ELEMS, f"analytic {coll}/{name} p={p}",
            )

    def test_pipelined_meta_matches(self):
        # the trinaryx torus chains carry the ``pipelined`` cost flag
        from repro.collectives.torus import torus_specs
        from repro.core.torus_opt import TorusShape
        from repro.topology.torus import Torus

        preset = fugaku()
        shape, topo = TorusShape((2, 2, 2)), Torus((2, 2, 2))
        mapping = block_mapping(shape.num_ranks)
        seen_pipelined = False
        for spec in torus_specs():
            with schedule_validation(False):
                sched = spec.build(shape)
            seen_pipelined |= bool(sched.meta.get("pipelined"))
            profile = profile_schedule(sched, topo, mapping)
            _assert_grid_matches_oracle(
                profile, preset.params, ORACLE_N_ELEMS, spec.name
            )
        assert seen_pipelined  # the flag's code path was actually exercised

    def test_seq_sum_matches_sequential_loop(self):
        # the summation must add rows in step order (no pairwise
        # regrouping) — the property the bit-identity contract leans on;
        # single-column matrices are the historical trap (np.add.reduce
        # regroups them)
        rng = np.random.default_rng(7)
        for cols in (1, 9):
            term = rng.random((4097, cols)) * np.logspace(-18, 3, 4097)[:, None]
            expect = np.zeros(cols)
            for row in term:
                expect = expect + row
            assert np.array_equal(_seq_sum(term, cols), expect)
            assert np.array_equal(_seq_sum(np.asfortranarray(term), cols), expect)
            assert np.array_equal(_seq_sum(term[:0], cols), np.zeros(cols))


class TestSweepRecordEquivalence:
    """Compiled sweep records == oracle profile + oracle evaluate_time."""

    @staticmethod
    def _assert_sweep_matches_oracle(collectives, **kwargs):
        preset = lumi()
        cache = ProfileCache(preset)
        co = sweep_system(preset, collectives, cache=cache, **kwargs)
        # the oracle reuses the mappings the sweep sampled
        assert oracle.oracle_sweep_records(cache, collectives, **kwargs) == co
        return co

    def test_sweep_records_bit_identical_to_oracle(self):
        collectives = tuple(sorted({c for c, _ in ALGORITHMS}))
        records = self._assert_sweep_matches_oracle(
            collectives, node_counts=(8, 16, 17, 32), vector_bytes=N_BYTES,
            max_p={"alltoall": 16},
        )
        assert len(records) > 300

    def test_reference_lumi_campaign_bit_identical(self):
        # the BENCH_sweep.json campaign's shape (3 collectives, the nine
        # paper sizes) — the acceptance contract for the compiled engine
        records = self._assert_sweep_matches_oracle(
            ("allreduce", "allgather", "bcast"), node_counts=(16, 64, 256),
            vector_bytes=PAPER_VECTOR_BYTES,
        )
        assert len(records) > 500

    def test_sweep_records_identical_with_ppn(self):
        assert self._assert_sweep_matches_oracle(
            ("allreduce",), node_counts=(16, 32), vector_bytes=(1024,), ppn=2
        )

    def test_torus_sweep_bit_identical(self):
        preset = fugaku()
        collectives = ("bcast", "allreduce", "allgather")
        for dims in ((2, 4), (2, 2, 2)):
            co = sweep_torus(preset, dims, collectives, vector_bytes=N_BYTES)
            assert co == oracle.oracle_torus_records(
                preset, dims, collectives, vector_bytes=N_BYTES
            ) and co

    def test_profile_cache_matches_oracle_including_analytic(self):
        # p=256 allreduce/ring crosses ANALYTIC_THRESHOLD: the cache must
        # hand the analytic builder its CSR table and still produce the
        # same profile object graph
        cache = ProfileCache(lumi())
        routes = oracle.RouteTable(cache.topo)
        spec = spec_for("allreduce", "ring")
        for p in (256, 16):
            assert cache.get(spec, p) == oracle.oracle_profile(
                cache, spec, p, 1, routes
            )


class TestTransferTableMemo:
    def test_memoized_per_registry_cell(self):
        clear_memo_caches()
        spec = spec_for("bcast", "bine")
        first = transfer_table_for(spec, 16)
        assert first is transfer_table_for(spec, 16)
        clear_memo_caches()
        rebuilt = transfer_table_for(spec, 16)
        assert rebuilt is not first
        assert np.array_equal(rebuilt.src, first.src)
        assert np.array_equal(rebuilt.nelems, first.nelems)

    def test_constraint_miss_cached_as_none(self):
        spec = spec_for("bcast", "bine")  # pow2-only
        assert transfer_table_for(spec, 24) is None
        assert transfer_table_for(spec, 24) is None

    def test_lowering_matches_schedule(self):
        sched = spec_for("allreduce", "bine-rsag").build(16, 16)
        table = lower_schedule(sched)
        assert table.num_steps == sched.num_steps
        assert table.num_transfers == sum(
            len(s.transfers) for s in sched.steps
        )
        assert int(table.nelems.sum()) == sched.total_comm_elems()
        # local ops keep pre-then-post step order
        for i, step in enumerate(sched.steps):
            lo, hi = table.local_off[i], table.local_off[i + 1]
            assert hi - lo == len(step.pre) + len(step.post)


#: registry entries that emit their transfer table column by column
COLUMNAR = sorted(key for key, spec in ALGORITHMS.items() if spec.columnar is not None)
TABLE_COLUMNS = (
    "step_off", "src", "dst", "nelems", "num_segments", "has_op",
    "local_off", "local_rank", "local_nelems", "local_has_op",
)


def _assert_tables_equal(got, want, where):
    assert (got.p, got.n_build) == (want.p, want.n_build), where
    assert got.meta == want.meta and list(got.meta) == list(want.meta), where
    for name in TABLE_COLUMNS:
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), (where, name)
        assert np.array_equal(g, w), (where, name)


def _lowered(spec, p):
    with schedule_validation(False):
        return lower_schedule(spec.build(p, p))


class TestColumnarLowering:
    """Columnar butterfly tables == lowering the object schedule, exactly."""

    def test_every_butterfly_entry_is_columnar(self):
        assert len(COLUMNAR) == 24
        assert {coll for coll, _ in COLUMNAR} == {
            "allgather", "reduce_scatter", "allreduce", "bcast", "reduce",
        }

    @pytest.mark.parametrize("p", [2, 4, 8, 16, 32, 64, 128, 256, 1024])
    def test_equals_lowered_schedule(self, p):
        clear_memo_caches()
        for key in COLUMNAR:
            spec = ALGORITHMS[key]
            if spec.max_p is not None and p > spec.max_p:
                continue
            with schedule_validation(False):
                got = spec.columnar(p)
            _assert_tables_equal(got, _lowered(spec, p), (key, p))

    @pytest.mark.parametrize("key", [("allreduce", "bine-rsag"), ("allgather", "bine-send")])
    def test_single_segment_entries_at_4096(self, key):
        spec = ALGORITHMS[key]
        with schedule_validation(False):
            got = spec.columnar(4096)
        _assert_tables_equal(got, _lowered(spec, 4096), (key, 4096))

    def test_transfer_table_for_skips_the_schedule(self):
        clear_memo_caches()
        spec = spec_for("allreduce", "bine-rsag")
        table = transfer_table_for(spec, 64)
        assert obs.counters().get("lower.columnar") == 1
        _assert_tables_equal(table, _lowered(spec, 64), "bine-rsag")
        assert transfer_table_for(spec, 64) is table  # memo hit, no new count
        assert obs.counters().get("lower.columnar") == 1

    @pytest.mark.parametrize("p", [17, 24])
    def test_non_pow2_cached_as_none(self, p):
        clear_memo_caches()
        for key in COLUMNAR:
            spec = ALGORITHMS[key]
            assert transfer_table_for(spec, p) is None, key
            assert _TABLE_CACHE[(*key, p)] is None
        assert "lower.columnar" not in obs.counters()

    def test_cold_rebuild_equal(self):
        clear_memo_caches()
        first = {key: transfer_table_for(ALGORITHMS[key], 32) for key in COLUMNAR}
        clear_memo_caches()
        for key in COLUMNAR:
            rebuilt = transfer_table_for(ALGORITHMS[key], 32)
            assert rebuilt is not first[key]
            _assert_tables_equal(rebuilt, first[key], key)

    @pytest.mark.parametrize(
        "butterfly",
        [recursive_halving_butterfly, recursive_doubling_butterfly, bine_butterfly_halving],
    )
    @pytest.mark.parametrize("strategy", [Strategy.SEND, Strategy.PERMUTE])
    def test_same_errors_as_object_path(self, butterfly, strategy):
        """π windows that are not contiguous fail the same way, naming the
        same first rank and step."""
        bf = butterfly(8)
        pairs = (
            (lambda: reduce_scatter_butterfly(bf, 8, "sum", strategy),
             lambda: reduce_scatter_table(bf, "sum", strategy)),
            (lambda: allgather_butterfly(bf, 8, strategy),
             lambda: allgather_table(bf, strategy)),
            (lambda: allreduce_reduce_scatter_allgather(bf, 8, "sum", strategy),
             lambda: allreduce_rsag_table(bf, "sum", strategy)),
        )
        for build_schedule, build_table in pairs:
            with pytest.raises(AssertionError) as want:
                build_schedule()
            with pytest.raises(AssertionError) as got:
                build_table()
            assert str(got.value) == str(want.value)

    def test_self_transfer_rejected_like_object_path(self):
        # not a matching: rank 1 is its own partner at step 1
        bf = Butterfly(4, "rechalv", ((2, 3, 0, 1), (1, 1, 3, 2)))
        try:
            for build_schedule, build_table in (
                (lambda: reduce_scatter_butterfly(bf, 4), lambda: reduce_scatter_table(bf)),
                (lambda: allgather_butterfly(bf, 4), lambda: allgather_table(bf)),
            ):
                with pytest.raises(ScheduleError) as want:
                    build_schedule()
                with pytest.raises(ScheduleError) as got:
                    build_table()
                assert str(got.value) == str(want.value)
        finally:
            # the segment and statistics memos key on (kind, p): drop what
            # this impostor "rechalv" butterfly left behind
            clear_memo_caches()


class TestEngineKnob:
    def test_default_is_compiled(self):
        assert resolve_profile_engine() == "compiled"
        assert resolve_profile_engine("des") == "des"

    def test_retired_python_engine_names_replacement(self):
        with pytest.raises(ValueError, match="'compiled'"):
            resolve_profile_engine("python")
        with pytest.raises(ValueError, match="'compiled'"):
            ProfileCache(lumi(), profile_engine="python")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown profile engine"):
            resolve_profile_engine("fortran")
        with pytest.raises(ValueError, match="unknown profile engine"):
            ProfileCache(lumi(), profile_engine="fortran")
