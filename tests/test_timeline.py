"""Fault timelines and the discrete-event fabric engine (DES).

* Grammar properties (seeded, ``tests/strategies.py``): canonical labels
  round-trip (``FaultTimeline.parse(tl.label) == tl``), event order never
  matters, duplicate event times are rejected, invalid events fail loudly.
* Calibration contract: with an empty timeline the DES engine's sweep
  records are **exactly** equal — bit for bit — to the compiled analytic
  engine's, on both the calm fast path and the forced phase drain (every
  registry algorithm with a lowered table); healing everything at t=0, or
  a timeline that fires only after the run, changes nothing but the label.
* Oracle gate: the array phase drain equals the per-entry event heap of
  ``tests/oracle_des.py`` — times, stalls and tallies — over seeded
  timelines (link failures and heals; background, derates, NIC outages
  and node failures; static plus dynamic faults), an event tied with a
  finish time, and a rate factor that underflows to zero.
* Determinism: timeline runs reproduce across processes-worth of reruns,
  and parallel sharding is byte-identical to serial.
* Partition semantics: a timeline that cuts off in-flight flows yields
  structured ``stalled=True`` records and CLI exit code 8 — never a hang
  or a traceback.
* Satellites: a derate that underflows link width to zero is rejected as
  a :class:`FaultSpecError` (not a silent ``inf``), and disk-cache
  corruption recovery warns once per corrupt file per process.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from collections import Counter

import numpy as np
import pytest
from oracle_des import engine_run, oracle_run
from strategies import DES_TIMELINE_KINDS, des_timeline, rank_map, rng_for, timeline

from repro.analysis.sweep import _CACHE_MAGIC, clear_memo_caches, sweep_system
from repro.cli.formatters import records_json
from repro.cli.main import main
from repro.cli.manifest import ManifestError, manifest_from_dict, manifest_to_dict
from repro.collectives.registry import ALGORITHMS, spec_for
from repro.des import FlowProgram, simulate_profile
from repro.des.engine import _queue_sums, _Simulation
from repro.faults import DegradedTopology, FaultSpec, FaultTimeline, TimelineEvent
from repro.model.compiled import (
    CompiledRouteTable,
    profile_table,
    transfer_table_for,
)
from repro.runtime.errors import DESEngineError, FaultSpecError
from repro.systems import lumi
from repro.topology.mapping import block_mapping


class TestTimelineGrammar:
    def test_label_round_trip(self):
        for seed in range(60):
            tl = timeline(rng_for(seed))
            assert FaultTimeline.parse(tl.label) == tl
            assert FaultTimeline.parse(tl.label).label == tl.label

    def test_order_invariance(self):
        for seed in range(30):
            rng = rng_for(1000 + seed)
            tl = timeline(rng, max_events=5)
            events = list(tl.events)
            rng.shuffle(events)
            assert FaultTimeline(tuple(events)) == tl
            assert FaultTimeline(tuple(events)).label == tl.label

    def test_empty_timeline(self):
        assert FaultTimeline().label == "none"
        assert FaultTimeline.parse("none").is_null
        assert FaultTimeline.parse("").is_null

    def test_duplicate_at_rejected(self):
        with pytest.raises(FaultSpecError, match="duplicate"):
            FaultTimeline((TimelineEvent(at=0.01, links=1),
                           TimelineEvent(at=0.01, heal="links")))
        with pytest.raises(FaultSpecError, match="duplicate"):
            FaultTimeline.parse("at=0.01:links=1;at=0.01:heal=links")

    def test_invalid_events_rejected(self):
        cases = {
            "at=-1:links=1": "finite and >= 0",
            "at=0.01:heal=links,links=1": "heal events carry no",
            "at=0.01:": "does nothing",
            "at=0.01:heal=bogus": "unknown",
            "at=0.01:background=1.5": r"in \[0, 1\)",
            "at=0.01:local=0": r"in \(0, 1\]",
            "bogus": "expected 'at=",
            "at=0.01:wat=1": "unknown field",
        }
        for text, match in cases.items():
            with pytest.raises(FaultSpecError, match=match):
                FaultTimeline.parse(text)

    def test_fault_spec_composition(self):
        static = FaultSpec.parse("links=2,seed=13")
        tl = FaultTimeline.parse("at=0.001:links=1,seed=7;at=0.01:heal=links")
        timed = dataclasses.replace(static, timeline=tl)
        # the static label keys caches/records; the timeline has its own
        assert timed.label == static.label
        assert timed.timeline_label == tl.label
        assert not timed.is_null and timed.has_static
        assert FaultSpec.from_dict(timed.to_dict()) == timed
        only = FaultSpec(timeline=tl)
        assert only.label == "none"
        assert not only.is_null and not only.has_static
        assert FaultSpec.from_dict(only.to_dict()) == only


#: the three-collective LUMI calibration grid asserted by the contract
CALIBRATION_GRID = dict(
    collectives=("allgather", "allreduce", "bcast"),
    node_counts=(16, 64),
    vector_bytes=(1024, 16777216),
)


class TestCalibration:
    def test_des_records_exactly_equal_compiled(self):
        compiled = sweep_system(lumi(), profile_engine="compiled",
                                **CALIBRATION_GRID)
        des = sweep_system(lumi(), profile_engine="des", **CALIBRATION_GRID)
        assert compiled  # a vacuous grid would prove nothing
        assert des == compiled

    @pytest.mark.parametrize("ppn", (1, 2))
    def test_event_loop_exactly_equals_fast_path(self, ppn):
        preset = lumi()
        topo = preset.build_topology()
        checked = 0
        for cell in lowered_cells(topo, (16, 17, 64), ppn, rng_for(ppn)):
            spec, p, table, mapping, profile, program = cell
            for nb in SIZES:
                args = (table, profile, topo, mapping, preset.params,
                        FaultTimeline(), nb / preset.params.itemsize)
                fast = simulate_profile(*args)
                slow = simulate_profile(
                    *args, force_event_loop=True, program=program
                )
                assert not fast.stalled and not slow.stalled
                assert slow.time == fast.time, (spec.collective, spec.name, p, nb)
                checked += 1
        assert checked > 250  # ~100 lowered (algorithm, p) cells x 3 sizes

    def test_heal_all_at_zero_gives_calm_records(self):
        calm = sweep_system(lumi(), profile_engine="des", **CALIBRATION_GRID)
        tl = FaultTimeline.parse("at=0:heal=all")
        healed = sweep_system(lumi(), profile_engine="des",
                              faults=FaultSpec(timeline=tl), **CALIBRATION_GRID)
        assert {r.timeline for r in healed} == {tl.label}
        assert [dataclasses.replace(r, timeline="none") for r in healed] == calm

    def test_events_after_the_run_give_calm_records(self):
        calm = sweep_system(lumi(), profile_engine="des", **CALIBRATION_GRID)
        late = 2 * max(r.time for r in calm)
        tl = FaultTimeline.parse(
            f"at={late!r}:links=8,seed=3;at={2 * late!r}:background=0.5"
        )
        after = sweep_system(lumi(), profile_engine="des",
                             faults=FaultSpec(timeline=tl), **CALIBRATION_GRID)
        assert [dataclasses.replace(r, timeline="none") for r in after] == calm


#: vector sizes of the DES cell grids: KiB phases drain in microseconds,
#: 16 MiB phases in milliseconds, so seeded event times hit both
SIZES = (1024, 65536, 16777216)


def lowered_cells(topo, node_counts, ppn, rng):
    """``(spec, p, table, mapping, profile, program)`` for every registry
    algorithm with a lowered table at each ``p``, on scattered mappings
    (a non-multiple ``p`` leaves the last node part-filled)."""
    routes = CompiledRouteTable(topo)
    for _, spec in sorted(ALGORITHMS.items()):
        for p in node_counts:
            table = transfer_table_for(spec, p)
            if table is None:
                continue
            mapping = rank_map(rng, topo.num_nodes, p, ppn)
            yield (
                spec, p, table, mapping,
                profile_table(table, topo, mapping, routes=routes),
                FlowProgram(table, topo, mapping, routes=routes),
            )


#: scenario -> (static fault spec, timeline kind; None draws one per cell)
ORACLE_SCENARIOS = {
    "links": (None, "links"),
    "stalls": (None, "stalls"),
    "static+dynamic": ("links=2,nics=2,seed=13", None),
}


class TestDrainMatchesOracle:
    """The array phase drain reproduces the per-entry event heap bit for
    bit: ``SimResult`` (time, stalled, stalls) and the tallies (events
    processed, preemptions, reroutes)."""

    @pytest.mark.parametrize("ppn", (1, 2))
    @pytest.mark.parametrize("scenario", sorted(ORACLE_SCENARIOS))
    def test_registry_grid(self, scenario, ppn):
        static, kind = ORACLE_SCENARIOS[scenario]
        preset = lumi()
        topo = preset.build_topology()
        if static:
            topo = DegradedTopology(topo, FaultSpec.parse(static))
        rng = rng_for(100 * sorted(ORACLE_SCENARIOS).index(scenario) + ppn)
        seen: Counter = Counter()
        for cell in lowered_cells(topo, (8, 16, 17, 64), ppn, rng):
            spec, p, table, mapping, profile, program = cell
            tl = des_timeline(rng, kind or rng.choice(DES_TIMELINE_KINDS))
            for nb in SIZES:
                args = (table, profile, topo, mapping, preset.params, tl,
                        nb / preset.params.itemsize)
                want = oracle_run(*args)
                got = engine_run(*args, program=program)
                assert got == want, (spec.collective, spec.name, p, nb, tl.label)
                result, (events, preemptions, reroutes) = got
                seen.update(events=events, preemptions=preemptions,
                            reroutes=reroutes, stalled=result.stalled)
        # the grid genuinely drives every mid-phase path
        assert seen["preemptions"]
        if kind != "stalls":
            assert seen["reroutes"]
        if kind != "links":
            assert seen["stalled"]

    @pytest.mark.parametrize("lens", ([2] * 60, [700] + [1, 3] * 30))
    def test_queue_sums_add_left_to_right(self, lens):
        # FIFO finish times are running sums per queue; float addition is
        # not associative, so only strict left-to-right order matches the
        # heap.  Short queues sum as a padded matrix; one long queue among
        # short ones is summed position by position.
        rng = rng_for(len(lens))
        head = np.zeros(sum(lens), dtype=bool)
        head[np.cumsum([0] + lens[:-1])] = True
        values = [rng.uniform(1e-9, 1e-3) for _ in range(head.size)]
        want, acc = [], 0.0
        for v, starts_queue in zip(values, head):
            acc = v if starts_queue else acc + v
            want.append(acc)
        assert _queue_sums(head, np.array(values)).tolist() == want

    @staticmethod
    def _tie_cell():
        """A binomial bcast at p=8: step 0 is one inter-node flow."""
        preset = lumi()
        topo = preset.build_topology()
        table = transfer_table_for(spec_for("bcast", "binomial-dh"), 8)
        assert table.step_off[1] == 1
        mapping = block_mapping(8)
        profile = profile_table(table, topo, mapping)
        return preset.params, (table, profile, topo, mapping)

    @staticmethod
    def _phase_starts(cell, params, n_elems) -> list[float]:
        starts: list[float] = []

        class Probe(_Simulation):
            def _drain_phase(self, s, t0):
                starts.append(t0)
                return super()._drain_phase(s, t0)

        Probe(*cell, params, FaultTimeline(), n_elems, force_event_loop=True).run()
        return starts

    def test_event_exactly_on_a_finish_time(self):
        params, cell = self._tie_cell()
        table, profile = cell[:2]
        n_elems = 65536 / params.itemsize
        t0 = self._phase_starts(cell, params, n_elems)[0]
        # the flow's injection and ejection ports finish at t0 + ne * cunit
        # (rate factor 1.0)
        ports = min(params.ports, int(profile.meta.get("ports_used", 1)))
        cunit = n_elems / profile.n_build * params.itemsize * params.inj_beta / ports
        finish = t0 + float(table.nelems[0]) * cunit
        preempted = {}
        for name, at in (("before", np.nextafter(finish, 0.0)),
                         ("tie", finish),
                         ("after", np.nextafter(finish, np.inf))):
            # the calm fast path would settle the phase unsimulated: a tied
            # event lands exactly at t0 + bw
            args = (*cell, params,
                    FaultTimeline((TimelineEvent(at=float(at), background=0.5),)),
                    n_elems)
            got = engine_run(*args, force_event_loop=True)
            assert got == oracle_run(*args, force_event_loop=True), name
            preempted[name] = got[1][1]
        # the ports (and the one link, which ties with them) finish last: a
        # tied event fires first and its rate change preempts all three;
        # one ulp later the phase has drained and the event waits
        assert preempted["tie"] == preempted["before"] == 3
        assert preempted["after"] == 0

    def test_zero_rate_factor_raises_like_the_oracle(self):
        params, cell = self._tie_cell()
        n_elems = 65536 / params.itemsize
        mid = self._phase_starts(cell, params, n_elems)[0] * 1.01
        # a denormal derate times background traffic underflows to zero,
        # before the first phase or while its flows are in service
        for text in ("at=0:local=5e-324;at=1e-15:background=0.5",
                     f"at=0:background=0.5;at={mid!r}:local=5e-324"):
            tl = FaultTimeline.parse(text)
            with pytest.raises(DESEngineError, match="underflowed") as want:
                oracle_run(*cell, params, tl, n_elems)
            with pytest.raises(DESEngineError, match="underflowed") as got:
                engine_run(*cell, params, tl, n_elems)
            assert str(got.value) == str(want.value)


#: background traffic claims half of *every* link for a window — perturbs
#: any in-flight flow on the grid, never stalls
PERTURB_TIMELINE = "at=0.0005:background=0.5;at=0.01:heal=background"


class TestTimelineDeterminism:
    def _sweep(self, tl: str | None, workers: int | None = None):
        # the 16 MiB size keeps flows in flight past the first event time,
        # so the timeline demonstrably perturbs part of the grid
        return sweep_system(
            lumi(), ("allgather", "bcast"), node_counts=(16, 64),
            vector_bytes=(1024, 16777216), profile_engine="des",
            faults=FaultSpec(timeline=tl) if tl else None, workers=workers,
        )

    def test_reruns_and_parallel_shards_byte_identical(self):
        serial = self._sweep(PERTURB_TIMELINE)
        clear_memo_caches()
        assert self._sweep(PERTURB_TIMELINE) == serial
        clear_memo_caches()
        parallel = self._sweep(PERTURB_TIMELINE, workers=2)
        assert parallel == serial
        assert records_json(parallel) == records_json(serial)

    def test_timeline_perturbs_and_labels_records(self):
        calm = self._sweep(None)
        perturbed = self._sweep(PERTURB_TIMELINE)
        label = FaultTimeline.parse(PERTURB_TIMELINE).label
        assert all(r.timeline == label for r in perturbed)
        assert all(not r.stalled for r in perturbed)
        assert all(r.faults == "none" for r in perturbed)  # static label
        # the contention window actually slows something down somewhere on
        # the grid — a timeline that never perturbs would be a silent no-op
        assert any(a.time > b.time for a, b in zip(perturbed, calm))

    def test_link_failure_genuinely_reroutes(self):
        # the p=64 scheduler mapping spans exactly two groups and routes
        # every inter-group byte over one global bundle; seed 54 samples
        # that bundle as a victim, so the flows must detour (through a
        # third group's representative) instead of merely re-timing
        grid = dict(collectives=("allgather",), algorithms=("bine-send",),
                    node_counts=(64,), vector_bytes=(16777216,))
        calm = sweep_system(lumi(), profile_engine="des", **grid)
        hit = sweep_system(
            lumi(), profile_engine="des",
            faults=FaultSpec(timeline="at=1e-05:links=2,seed=54"), **grid)
        (calm_rec,), (hit_rec,) = calm, hit
        assert not hit_rec.stalled
        assert hit_rec.time > 1.5 * calm_rec.time  # measured ~1.8x


#: LUMI has 2976 nodes; killing 2970 must hit any 16-node mapping
STALL_TIMELINE = "at=1e-09:nodes=2970,seed=1"


class TestPartitionStall:
    def test_cli_emits_stalled_records_and_exits_8(self, tmp_path, capsys):
        out = tmp_path / "records.json"
        with pytest.warns(RuntimeWarning, match="stalled under timeline"):
            code = main(["sweep", "--system", "lumi", "--collective", "bcast",
                         "--nodes", "16", "--sizes", "1024",
                         "--profile-engine", "des",
                         "--timeline", STALL_TIMELINE,
                         "--format", "json", "--output", str(out)])
        assert code == 8
        assert "stalled" in capsys.readouterr().err
        rows = json.loads(out.read_text())  # records still fully emitted
        assert rows and all(row["stalled"] for row in rows)
        expected = FaultTimeline.parse(STALL_TIMELINE).label
        assert all(row["timeline"] == expected for row in rows)

    def test_timeline_without_des_engine_exits_8(self, capsys):
        code = main(["sweep", "--system", "lumi", "--collective", "bcast",
                     "--nodes", "16", "--sizes", "1024",
                     "--timeline", "at=0.001:links=1"])
        assert code == 8
        assert "DESEngineError" in capsys.readouterr().err

    def test_analytic_cells_reject_timelines(self):
        # alltoall is always analytic: no lowered transfer program to replay
        with pytest.raises(DESEngineError, match="analytic"):
            sweep_system(lumi(), ("alltoall",), node_counts=(16,),
                         vector_bytes=(1024,), profile_engine="des",
                         faults=FaultSpec(timeline="at=0.001:links=1"))

    def test_bad_timeline_exits_3(self, capsys):
        code = main(["sweep", "--system", "lumi", "--collective", "bcast",
                     "--nodes", "16", "--sizes", "1024",
                     "--profile-engine", "des",
                     "--timeline", "at=0.01:wat=1"])
        assert code == 3
        assert "FaultSpecError" in capsys.readouterr().err


class TestManifestEngine:
    BASE = {
        "campaign": {"name": "t", "system": "lumi"},
        "grid": [{"collectives": ["bcast"], "node_counts": [16],
                  "vector_bytes": [1024]}],
    }

    def test_timeline_scenario_requires_des_engine(self):
        data = json.loads(json.dumps(self.BASE))
        data["faults"] = [{"timeline": "at=0.001:links=1"}]
        with pytest.raises(ManifestError, match='engine = "des"'):
            manifest_from_dict(data)
        data["campaign"]["engine"] = "des"
        m = manifest_from_dict(data)
        assert m.engine == "des"
        assert m.faults[0].timeline_label == "at=0.001:links=1"
        # engine and timeline survive the to_dict/from_dict round trip
        assert manifest_from_dict(manifest_to_dict(m)) == m

    def test_unknown_engine_rejected(self, tmp_path, capsys):
        data = json.loads(json.dumps(self.BASE))
        data["campaign"]["engine"] = "quantum"
        with pytest.raises(ManifestError, match="unknown engine"):
            manifest_from_dict(data)
        # the retired scalar engine names its replacement, and the CLI
        # exits 2 like any other invalid manifest
        data["campaign"]["engine"] = "python"
        with pytest.raises(ManifestError, match='use "compiled"'):
            manifest_from_dict(data)
        path = tmp_path / "python_engine.json"
        path.write_text(json.dumps(data))
        assert main(["campaign", str(path)]) == 2
        assert 'use "compiled"' in capsys.readouterr().err


class TestZeroWidthDerate:
    def test_underflowing_derate_rejected_not_inf(self):
        # 5e-324 (the smallest denormal) times the 0.5 NIC derate rounds
        # to exactly 0.0; a zero-width link used to turn every load it
        # carried into a silent divide-to-inf record
        from repro.faults import DegradedTopology, _group_members

        spec = FaultSpec.parse("nics=1,local=5e-324,seed=1")
        deg = DegradedTopology(lumi().build_topology(), spec)
        victim = sorted(deg.nic_outages)[0]
        peer = next(
            w for w in _group_members(deg.inner)[deg.group_of(victim)]
            if w != victim
        )
        with pytest.raises(FaultSpecError, match="underflow"):
            deg.route(victim, peer)


class TestCorruptionWarningDedupe:
    KWARGS = dict(collectives=("allgather",), node_counts=(16,),
                  vector_bytes=(1024,))

    def _corrupt(self, disk):
        entries = sorted(disk.rglob("*.pkl"))
        assert entries
        for f in entries:
            blob = f.read_bytes()
            f.write_bytes(blob[: max(len(_CACHE_MAGIC) + 8, len(blob) // 2)])
        return entries

    def test_one_warning_per_corrupt_file_per_process(self, tmp_path):
        disk = tmp_path / "cache"
        cold = sweep_system(lumi(), disk_dir=disk, **self.KWARGS)
        entries = self._corrupt(disk)
        with warnings.catch_warnings(record=True) as first:
            warnings.simplefilter("always")
            assert sweep_system(lumi(), disk_dir=disk, **self.KWARGS) == cold
        assert sum(
            "truncated" in str(w.message) for w in first
        ) == len(entries)
        # same files corrupted again: this process already warned for them
        self._corrupt(disk)
        with warnings.catch_warnings(record=True) as second:
            warnings.simplefilter("always")
            assert sweep_system(lumi(), disk_dir=disk, **self.KWARGS) == cold
        assert not [w for w in second if "truncated" in str(w.message)]
