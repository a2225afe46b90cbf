"""Search manifest: the chosen mapping and search counters, layer by layer.

The manifest pins what :class:`~repro.compiler.search.ScheduleSearch`
returns (winning mapping, its cycles) and how it got there (candidates
priced, step clock, capacity prunes, spatial-beam cuts) for every
accelerated layer of a set of networks.  Any change to the search's
enumeration order, pruning or pricing shows up as a line diff.

Regenerate the golden (only when a change is *meant* to move it)::

    PYTHONPATH=src python -m tests.search_manifest \
        > tests/golden/search_manifest.txt
"""

from __future__ import annotations

from repro.compiler.cache import layer_signature
from repro.compiler.memo import TemporalMemo
from repro.compiler.search import ScheduleSearch
from repro.overlay.config import PAPER_EXAMPLE_CONFIG, OverlayConfig
from repro.workloads.models.smallcnn import build_smallcnn
from repro.workloads.registry import build_workload, registered_workloads

#: The conformance harness's budget beams.
BUDGET_BEAMS = (16, 24)
#: The search's default beams.
DEFAULT_BEAMS = (160, 240)

SMALL_CONFIGS = {
    "3x2x2": OverlayConfig(3, 2, 2),
    "2x2x2-nopump": OverlayConfig(2, 2, 2, double_pump=False),
    "6x4x4": OverlayConfig(6, 4, 4),
}

#: The networks the standing benchmark cold-compiles on the paper grid.
PAPER_NETS = (
    "AlphaGoZero", "Sentimental-seqCNN", "Sentimental-seqLSTM",
    "Transformer-base", "Transformer-MLP", "TinyAttention",
)


def _network(name: str):
    return build_smallcnn() if name == "SmallCNN" else build_workload(name)


def manifest_lines(case, config, networks, beams):
    """One line per accelerated layer; shape twins share one search."""
    spatial_beam, temporal_beam = beams
    memo = TemporalMemo()
    searched: dict[tuple, str] = {}
    lines = []
    for net in networks:
        for layer in _network(net).accelerated_layers():
            key = layer_signature(layer)
            if key not in searched:
                search = ScheduleSearch(
                    layer, config, spatial_beam=spatial_beam,
                    temporal_beam=temporal_beam, temporal_memo=memo,
                )
                best = search.run()[0]
                searched[key] = (
                    f"{best.mapping.describe()} | c_exe={best.cycles} "
                    f"cand={search.candidates_evaluated} "
                    f"steps={search.steps} "
                    f"pruned={search.pruned_by_capacity} "
                    f"dropped={search.spatial_beam_dropped}"
                )
            lines.append(f"{case} {net} {layer.name}: {searched[key]}")
    return lines


def search_manifest() -> list[str]:
    """The whole manifest, one line per (case, network, layer).

    * every registered workload plus SmallCNN on three small grids at
      the budget beams;
    * SmallCNN with beams small enough that the temporal beam fills
      partway through one T tile's L choices;
    * the standing benchmark's six networks on the paper grid at the
      default beams.
    """
    networks = [spec.name for spec in registered_workloads()] + ["SmallCNN"]
    lines = []
    for label, config in SMALL_CONFIGS.items():
        lines += manifest_lines(label, config, networks, BUDGET_BEAMS)
    lines += manifest_lines(
        "3x2x2-beam5x7", SMALL_CONFIGS["3x2x2"], ["SmallCNN"], (5, 7)
    )
    lines += manifest_lines(
        "12x5x20", PAPER_EXAMPLE_CONFIG, PAPER_NETS, DEFAULT_BEAMS
    )
    return lines


if __name__ == "__main__":
    print("\n".join(search_manifest()))
