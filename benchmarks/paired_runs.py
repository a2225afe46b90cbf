"""Paired runs of the standing benchmark: a change against its parent.

A host-time claim needs paired evidence (see ``perfbench/README.md``):
the same workload and seed run on both checkouts back to back, at least
ten pairs, alternating which side runs first so slow drift of the host
hits both sides alike.

    python3 benchmarks/paired_runs.py --parent ../parent --change . \
        --workload serve-chaos --seeds 1-10

Each run is ``perfbench/run.py --trace 0`` of that checkout, in that
checkout, for the ``run_seconds`` that ``BENCHMARK.json`` sets.  Its
last JSON line gives the end-to-end metrics; its "host time, unbounded"
lines give the host-time figures.  The tool prints, per metric, each
side's median and quartiles, the ratio of the medians, and the share of
pairs the change wins (strictly better in the metric's direction from
``BENCHMARK.json``), ties and losses; the last line of output is the
same summary, plus every run's metrics, as one JSON object.  Timing is
left entirely to the benchmark: this script reads no clock.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Fewer pairs than this are not evidence for a host-time claim.
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """``"1-10"``, ``"1,2,5"`` or a mix of both."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def load_spec(checkout: Path) -> tuple[float, dict[str, str]]:
    """The benchmark's run length, and ``better`` of every metric."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {
        metric["name"]: metric["better"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict[str, float]:
    """One benchmark run; its end-to-end and host-time metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{checkout} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr.strip()}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout} seed {seed}: a correctness gate failed")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        if line.endswith("(host time, unbounded)"):
            name, value = line.split()[:2]
            metrics[name] = float(value)
    return metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]],
              better: dict[str, str]) -> dict[str, dict]:
    """Per metric: both sides' quartiles and the change's win share."""
    summary = {}
    for name in pairs[0][0]:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1 if better.get(name, "lower") == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        summary[name] = {
            "better": better.get(name, "lower"),
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "ratio": cq[1] / pq[1] if pq[1] else None,
            "wins": wins / len(pairs),
            "ties": ties / len(pairs),
            "losses": (len(pairs) - wins - ties) / len(pairs),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default="1-10",
                        help="one pair per seed, e.g. 1-10 or 1,2,1000")
    args = parser.parse_args()

    seconds, better = load_spec(args.change)
    checkouts = (args.parent, args.change)
    pairs = []
    for n, seed in enumerate(args.seeds):
        results: list[dict] = [{}, {}]
        for side in ((0, 1) if n % 2 == 0 else (1, 0)):
            results[side] = run_once(checkouts[side], args.workload, seed,
                                     seconds)
        pairs.append((results[0], results[1]))
        print(f"# pair {n + 1}/{len(args.seeds)} seed {seed}: "
              f"{'parent' if n % 2 == 0 else 'change'} ran first",
              flush=True)

    summary = summarize(pairs, better)
    if len(pairs) < MIN_PAIRS:
        print(f"# only {len(pairs)} pairs: not evidence for a host-time "
              f"claim (needs {MIN_PAIRS})")
    print(f"{'metric':>26s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>7s} "
          f"{'wins':>5s} {'ties':>5s}")
    for name, row in summary.items():
        cells = [
            f"{row[side]['median']:.6g} [{row[side]['q1']:.6g}, "
            f"{row[side]['q3']:.6g}]"
            for side in ("parent", "change")
        ]
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{name:>26s} {cells[0]:>34s} {cells[1]:>34s} {ratio:>7s} "
              f"{row['wins']:>5.0%} {row['ties']:>5.0%}")
    print(json.dumps({
        "workload": args.workload,
        "seeds": args.seeds,
        "pairs": len(pairs),
        "metrics": summary,
        "runs": [
            {"seed": seed, "parent": parent, "change": change}
            for seed, (parent, change) in zip(args.seeds, pairs)
        ],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
