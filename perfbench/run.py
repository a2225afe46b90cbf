"""The repository's standing benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-compile --seed 1 \
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``paper-compile`` — cold compile of six networks on the paper's
  12x5x20 overlay, bit-true simulation of four of them, and batch-1
  serving of the compiled seqCNN.
* ``serve-chaos`` — SmallCNN on four 3x2x2 replicas under seeded crash,
  slowdown, TPE and DRAM faults with ABFT detect-correct.
* ``serve-fleet`` — SmallCNN on a 100-rack x 4-board fleet, two tenants,
  hedging and autoscaling, with rack0 losing power mid-run.

Every repetition runs ``worker.py`` in a fresh interpreter, so each one
starts cold.  With ``--trace 0`` the command repeats the workload until
``--seconds`` of wall time have passed (at least once), reports the median of each end-to-end metric over the
repetitions and ``setup_s`` as the median over all set-ups, and prints
the medians of the host-time figures (``compile_s``, ``sim_maccs_per_s``,
``req_per_s``) beside them.  With ``--trace 1`` it makes one untraced and
one traced repetition and reports the per-layer metrics of the traced
one, the host-time figures of the untraced one and ``trace.overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits 1 when a correctness gate fails (a simulated layer differs from
its golden output or miscounts MACCs, a served request is lost from the
accounting, or a virtual-clock metric differs between repetitions of the
same seed), and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"

#: The whole command must finish within this many seconds.
BUDGET_S = 170.0

#: Repetitions a run makes even when ``--seconds`` has already passed.
#: One is enough for the end-to-end metrics: the virtual ones repeat
#: exactly, and the in-process repeats already check that they do.
MIN_REPS = 1

#: Set-ups sampled per run; workloads whose repetitions are fewer add
#: set-up-only repetitions.
SETUP_SAMPLES = 2


class WorkerError(RuntimeError):
    """A repetition crashed, timed out or printed no result."""


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_worker(args, *, trace: int = 0, setup_only: bool = False,
               spans: Path | None = None, timeout: float) -> dict:
    """One repetition in a fresh interpreter; returns its JSON result."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Every set-up compiles the sources the same way, and none writes.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # One thread per repetition, also inside NumPy's BLAS.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Own session, so a timeout can stop the worker and any children.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(
            f"repetition exited {proc.returncode}:\n{err.strip()}"
        )
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(
            f"repetition printed no result:\n{err.strip()}"
        ) from None


def virtual_gate(reps: list[dict]) -> list[str]:
    """Virtual-clock metrics must repeat exactly for one seed."""
    first = reps[0]["virtual"]
    return [
        f"virtual metrics differ between repetitions: {first} != "
        f"{rep['virtual']}"
        for rep in reps[1:] if rep["virtual"] != first
    ]


def measure(args, spec: dict,
            started: float) -> tuple[dict, dict, list[dict]]:
    """Untraced repetitions; the end-to-end metrics are their medians.

    Also returns the medians of the host-time figures, which are printed
    but are not end-to-end metrics.
    """
    reps: list[dict] = []
    setups: list[float] = []
    while True:
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and (
            elapsed >= args.seconds
            or elapsed + max(r["wall_s"] for r in reps) > BUDGET_S
        ):
            break
        t0 = time.perf_counter()
        rep = run_worker(args, timeout=BUDGET_S - elapsed)
        rep["wall_s"] = time.perf_counter() - t0
        reps.append(rep)
        setups.append(rep["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        elapsed = time.perf_counter() - started
        probe = run_worker(args, setup_only=True, timeout=BUDGET_S - elapsed)
        setups.append(probe["setup_s"])
    metrics = {"setup_s": statistics.median(setups)}
    for name in spec["end_to_end"]:
        if name != "setup_s":
            metrics[name] = statistics.median(r["e2e"][name] for r in reps)
    host = {
        name: statistics.median(r["host"][name] for r in reps)
        for name in reps[0]["host"]
    }
    return metrics, host, reps


def measure_traced(args, started: float) -> tuple[dict, list[dict]]:
    """One untraced and one traced repetition; per-layer metrics.

    The host-time figures come from the untraced repetition.
    """
    base = run_worker(args, timeout=BUDGET_S)
    elapsed = time.perf_counter() - started
    traced = run_worker(
        args, trace=1, timeout=BUDGET_S - elapsed,
        spans=SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json",
    )
    metrics = dict(traced["per_layer"])
    metrics.update(base["host"])
    metrics["trace.overhead"] = traced["measured_s"] / base["measured_s"]
    return metrics, [base, traced]


def provenance() -> str:
    import platform

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return (
        f"python {platform.python_version()}, numpy {numpy_version}, "
        f"nproc {os.cpu_count()}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(spec['workloads'])}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        host = {}
        if args.trace:
            metrics, reps = measure_traced(args, started)
        else:
            metrics, host, reps = measure(args, spec, started)
    except WorkerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    units = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 1
    mismatches = virtual_gate(reps)
    errors = [e for rep in reps for e in rep["errors"]] + mismatches
    for error in errors:
        print(f"gate failed: {error}", file=sys.stderr)

    print(f"# {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{time.perf_counter() - started:.1f} s; {provenance()}")
    for name, unit in units.items():
        print(f"{name:>40s} {metrics[name]:>16.6g} {unit}")
    for name, value in host.items():
        unit = spec["per_layer"][name]
        print(f"{name:>40s} {value:>16.6g} {unit} (host time, unbounded)")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps) + len(mismatches),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
