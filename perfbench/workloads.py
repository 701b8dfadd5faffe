"""The benchmark's workloads: inputs from a seed, one timed pass, a correctness check.

Each workload is the flow a user of the repo reruns, driven through the
library's public entry points:

* ``table3_cold`` — the Table 3 LUMI campaign cold, with the disk profile
  cache and the record journal on, then a decision table built from its
  records and a seeded batch of algorithm-selection queries;
* ``timeline_des`` — the mid-run fault-timeline campaign on the
  discrete-event engine;
* ``verify_cold`` — the compiled executor oracle over every registered
  algorithm of all eight collectives.

The seed picks the scheduler-placement seed of both campaigns, the query
batch, and the verify input patterns.  At the manifests' own placement
seed the Table 3 records must equal the committed baseline.

Importing this module imports every library module the passes use, so a
fresh process that imports it and calls ``setup`` pays the whole set-up
cost before the first timed pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import repro.analysis.verifygrid as verifygrid
import repro.cli.campaign as campaign
import repro.des.records  # noqa: F401  (imported lazily by DES sweeps)
import repro.tune.serve as serve
import repro.tune.tables as tables
from repro.analysis.sweep import SweepRecord
from repro.checkpoint.journal import journal_path, read_journal
from repro.cli.manifest import CampaignManifest, load_manifest
from repro.collectives.registry import COLLECTIVES
from repro.faults import FaultSpec
from repro.report.artifacts import records_digest
from repro.report.diff import diff_record_sets, load_record_set, record_set_from_records
from repro.runtime.errors import TuneArtifactError

ROOT = Path(__file__).resolve().parents[1]
TABLE3_MANIFEST = ROOT / "campaigns" / "table3_lumi.toml"
TABLE3_BASELINE = ROOT / "campaigns" / "baselines" / "table3_lumi.json"
TIMELINE_MANIFEST = ROOT / "campaigns" / "timeline_lumi.toml"

#: select_algorithms queries per collective in one table3_cold pass
QUERIES_PER_COLLECTIVE = 1000
VERIFY_NODE_COUNTS = (16, 64, 256)
VERIFY_ELEMS_PER_RANK = 4


@dataclass
class Outcome:
    """What one timed pass produced."""

    records: int  # output records (or verify cells): the records_per_s numerator
    data: object
    dirs: dict[str, Path | None] = field(default_factory=dict)


@dataclass
class Check:
    """Correctness verdict on one pass's outputs."""

    attempted: int
    failed: int
    digest: str
    notes: list[str]


def _seeded(manifest: CampaignManifest, seed: int) -> CampaignManifest:
    return dataclasses.replace(manifest, seed=seed)


# -- table3_cold -------------------------------------------------------------


@dataclass(frozen=True)
class Table3Inputs:
    manifest: CampaignManifest
    #: collective -> (p values, n_bytes values) of the query batch
    queries: dict[str, tuple[list[int], list[int]]]


def table3_setup(seed: int) -> Table3Inputs:
    manifest = _seeded(load_manifest(TABLE3_MANIFEST), seed)
    rng = random.Random(seed)
    queries = {}
    for grid in manifest.grids:
        for coll in grid.collectives:
            queries[coll] = (
                [rng.choice(grid.node_counts) for _ in range(QUERIES_PER_COLLECTIVE)],
                [rng.choice(grid.vector_bytes) for _ in range(QUERIES_PER_COLLECTIVE)],
            )
    return Table3Inputs(manifest, queries)


def table3_run(inputs: Table3Inputs, scratch: Path) -> Outcome:
    dirs = {"cache": scratch / "cache", "journal": scratch / "journal"}
    result = campaign.run_campaign(
        inputs.manifest, disk_dir=dirs["cache"], journal=dirs["journal"]
    )
    table = tables.build_decision_table(
        result.records, name=inputs.manifest.name, source=str(TABLE3_MANIFEST)
    )
    answers = {
        coll: serve.select_algorithms(
            table, coll, inputs.manifest.system, ps, 1, ns
        )
        for coll, (ps, ns) in inputs.queries.items()
    }
    journal = journal_path(dirs["journal"], inputs.manifest.name)
    return Outcome(len(result.records), (result.records, table, answers, journal), dirs)


def table3_check(inputs: Table3Inputs, outcome: Outcome) -> Check:
    records, table, answers, journal = outcome.data
    attempted, failed, notes = 0, 0, []

    baseline = json.loads(TABLE3_BASELINE.read_text())
    if baseline["seed"] == inputs.manifest.seed:
        diff = diff_record_sets(
            load_record_set(TABLE3_BASELINE),
            record_set_from_records(records, label="table3_cold"),
        )
        bad = len(diff.added) + len(diff.removed) + len(diff.changed)
        attempted += max(len(records), len(baseline["records"]))
        failed += bad
        notes.append(f"baseline: {bad} drifted of {len(baseline['records'])} cells")
    else:
        notes.append(
            f"baseline: not compared (baseline seed {baseline['seed']}, "
            f"run seed {inputs.manifest.seed})"
        )

    attempted += 1
    try:
        table.verify_against_records(records)
        notes.append("decision table: provenance digest ok")
    except TuneArtifactError as exc:
        failed += 1
        notes.append(f"decision table: {exc}")

    best: dict[tuple, float] = {}
    by_algo: dict[tuple, float] = {}
    for r in records:
        cell = (r.collective, r.p, r.n_bytes)
        best[cell] = min(best.get(cell, float("inf")), r.time)
        by_algo[cell + (r.algorithm,)] = r.time
    wrong = 0
    for coll, (ps, ns) in inputs.queries.items():
        for p, n, algo in zip(ps, ns, answers[coll]):
            if by_algo.get((coll, p, n, algo)) != best.get((coll, p, n)):
                wrong += 1
    attempted += sum(len(a) for a in answers.values())
    failed += wrong
    notes.append(f"queries: {wrong} answers not the fastest record")

    attempted += 1
    cells = [e for e in read_journal(journal).entries if e.get("kind") == "cell"]
    replayed = [SweepRecord.from_dict(d) for e in cells for d in e["records"]]
    if records_digest(replayed) == records_digest(records):
        notes.append(f"journal: {len(cells)} cells replay the records")
    else:
        failed += 1
        notes.append("journal: replayed records differ from the run")
    return Check(attempted, failed, records_digest(records), notes)


# -- timeline_des ------------------------------------------------------------


def timeline_setup(seed: int) -> CampaignManifest:
    return _seeded(load_manifest(TIMELINE_MANIFEST), seed)


def timeline_run(manifest: CampaignManifest, scratch: Path) -> Outcome:
    with warnings.catch_warnings():
        # stalled cells warn; they are simulated outcomes, counted in check
        warnings.simplefilter("ignore", RuntimeWarning)
        result = campaign.run_campaign(manifest)
    return Outcome(len(result.records), result.records)


def timeline_check(manifest: CampaignManifest, outcome: Outcome) -> Check:
    records = outcome.data
    # the calibration contract: calm DES records equal the compiled engine's
    calm = campaign.run_campaign(
        manifest, profile_engine="compiled", faults=(FaultSpec(),)
    ).records
    expected = {(r.key, r.algorithm): r.to_dict() for r in calm}
    pristine = [r for r in records if r.faults == "none" and r.timeline == "none"]
    failed = sum(
        expected.get((r.key, r.algorithm)) != r.to_dict() for r in pristine
    )
    failed += abs(len(pristine) - len(calm))
    stalled = sum(r.stalled for r in records)
    notes = [
        f"pristine DES == compiled: {len(pristine) - failed} of {len(calm)} records",
        f"stalled records (simulated outcomes): {stalled}",
    ]
    return Check(len(records), failed, records_digest(records), notes)


# -- verify_cold -------------------------------------------------------------


def verify_setup(seed: int) -> tuple[int, int]:
    return (2 * seed, 2 * seed + 1)


def verify_run(seeds: tuple[int, int], scratch: Path) -> Outcome:
    recs = verifygrid.verify_grid(
        COLLECTIVES,
        VERIFY_NODE_COUNTS,
        elems_per_rank=VERIFY_ELEMS_PER_RANK,
        seeds=seeds,
    )
    return Outcome(len(recs), recs)


def verify_check(seeds: tuple[int, int], outcome: Outcome) -> Check:
    recs = outcome.data
    bad = [r for r in recs if r.status != "ok"]
    rows = sorted(
        json.dumps({k: v for k, v in r.to_dict().items() if k != "elapsed_s"},
                   sort_keys=True)
        for r in recs
    )
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
    notes = [f"cells ok: {len(recs) - len(bad)} of {len(recs)}"]
    notes += [f"{r.collective}/{r.algorithm} p={r.p}: {r.status} {r.detail}" for r in bad[:5]]
    return Check(len(recs), len(bad), digest, notes)


@dataclass(frozen=True)
class Workload:
    """A workload's three steps; why each was chosen is in BENCHMARK.json."""

    name: str
    setup: Callable[[int], object]
    run: Callable[[object, Path], Outcome]
    check: Callable[[object, Outcome], Check]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table3_cold", table3_setup, table3_run, table3_check),
        Workload("timeline_des", timeline_setup, timeline_run, timeline_check),
        Workload("verify_cold", verify_setup, verify_run, verify_check),
    )
}
