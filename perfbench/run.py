"""Run one benchmark workload and print its metrics as JSON on the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3_cold --seed 7 --seconds 40 --trace 0

Each run is one serial process (closed loop: one pass at a time, no worker
pools).  A pass is one cold run of the workload: every process-level memo
cache is cleared first and the disk profile cache and journal live in a
fresh directory under ``.perfbench_tmp/`` that is removed afterwards.
Passes repeat while one more is expected to end within ``--seconds``
(at least one pass).

Timed metrics are on the scale of a reference host: each timed region's
wall time is multiplied by the host speed that ``host.HostProbe`` samples
during it, so a shared host slowing down for a while does not read as
slower code (see ``perfbench/host.py``).  The raw wall-clock rate is
printed too.

``--trace 0`` reports the end-to-end metrics: ``records_per_s`` (median
over passes), ``setup_s`` (median of several fresh-process imports plus
manifest and grid parsing) and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``perfbench/layers.py``, with the traced-minus-untraced time as tracing
overhead.  Every pass's outputs are checked; failures feed
``failed``/``error_rate`` and make the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
#: fresh processes timed for setup_s (the median is reported)
SETUP_REPEATS = 15
# prints the host speed sampled while it imports and parses
SETUP_SNIPPET = """
import sys
sys.path[:0] = sys.argv[1:3]
import host
with host.HostProbe() as probe:
    import workloads
    workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]))
print(probe.speed())
"""
#: per-layer metrics in these units are times, put on the reference scale
TIME_UNITS = ("s", "us")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name: str, seed: int) -> list[float]:
    """Reference-scale time of fresh processes that import the workload and
    parse its inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in 50 ms steps, which
        # would quantize the measurement
        child = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE), name, str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t0
        times.append(wall * float(child.stdout.split()[-1]))
    return times


@dataclass
class Pass:
    """One timed pass and the verdict of its check."""

    wall_s: float
    #: host speed sampled during the pass; wall_s * speed is reference time
    speed: float
    records: int
    check: object
    #: traced passes only: per-layer metrics and per-layer self times
    layer_metrics: dict | None = None
    self_s: dict | None = None


def run_pass(workload, inputs, traced: bool) -> Pass:
    """One cold pass, then its check.

    The check runs after the clock stops and before the pass's scratch
    directory is removed.
    """
    from repro import obs
    from repro.analysis.sweep import clear_memo_caches

    import host
    import layers

    clear_memo_caches()
    gc.collect()
    scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=SCRATCH))
    tracer = layers.LayerTracer() if traced else contextlib.nullcontext()
    try:
        if traced:
            obs.begin_session(None)
        try:
            with tracer, host.HostProbe() as probe:
                t0 = time.perf_counter()
                outcome = workload.run(inputs, scratch)
                wall = time.perf_counter() - t0
        finally:
            if traced:
                _, stats = obs.end_session()
        speed = probe.speed()
        done = Pass(wall, speed, outcome.records, workload.check(inputs, outcome))
        if traced:
            done.layer_metrics = {
                name: value * speed if layers.LAYER_METRICS[name] in TIME_UNITS else value
                for name, value in tracer.metrics(
                    stats["counters"], stats["spans"], outcome.dirs
                ).items()
            }
            done.self_s = {layer: t * speed for layer, t in tracer.self_s.items()}
        return done
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]

    import host
    import layers
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_times = [] if args.trace else measure_setup(workload.name, args.seed)
    inputs = workload.setup(args.seed)
    calibration = host.calibration_s()
    SCRATCH.mkdir(exist_ok=True)

    plain: list[Pass] = []
    traced: list[Pass] = []
    rounds = 0
    start = time.perf_counter()
    try:
        # closed loop: start another round only if one more fits the window
        while not rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= args.seconds:
            rounds += 1
            plain.append(run_pass(workload, inputs, traced=False))
            if args.trace:
                traced.append(run_pass(workload, inputs, traced=True))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except Exception:
        traceback.print_exc()
        print("error_rate 1 ratio (the workload raised)")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's passes are still using it

    checks = [p.check for p in plain + traced]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    digests = sorted({c.digest for c in checks})
    if len(digests) > 1:
        failed += 1  # passes of one run disagree with each other
    correct = failed == 0

    print(f"workload {workload.name}  seed {args.seed}  passes {len(checks)}  "
          f"trace {args.trace}")
    print("host " + json.dumps(host.host_block(calibration), sort_keys=True))
    print(f"records_digest {' '.join(digests)}")
    for note in checks[-1].notes:
        print(f"check  {note}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    print("host_speed " + " ".join(f"{p.speed:.4f}" for p in plain + traced))

    if args.trace:
        wall = statistics.median(p.wall_s * p.speed for p in traced)
        overhead = wall - statistics.median(p.wall_s * p.speed for p in plain)
        values = {"trace.overhead_s": overhead, "host.calibration_s": calibration}
        metrics = {
            name: {
                "value": values[name] if name in values else
                statistics.median(p.layer_metrics[name] for p in traced),
                "unit": unit,
            }
            for name, unit in layers.LAYER_METRICS.items()
        }
        print(f"{'layer':<20}{'self_s':>9}{'share':>8}  predicted to move")
        for layer in layers.LAYERS:
            self_s = statistics.median(p.self_s[layer] for p in traced)
            print(f"{layer:<20}{self_s:>9.3f}{self_s / wall:>8.1%}  "
                  f"{layers.PREDICTIONS[layer]}")
        print(f"{'traced pass':<20}{wall:>9.3f}  tracing overhead {overhead:+.3f} s")
    else:
        wall_rate = statistics.median(p.records / p.wall_s for p in plain)
        print(f"records_per_wall_s {wall_rate:.6g} 1/s (not host-scaled)")
        metrics = {
            "records_per_s": {
                "value": statistics.median(p.records / (p.wall_s * p.speed) for p in plain),
                "unit": "1/s",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
