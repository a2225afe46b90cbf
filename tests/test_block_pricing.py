"""The search's array paths against scalar references.

The search prices candidates in int64 blocks (``price_block``); only the
top-k winners are re-priced through ``evaluate_mapping``.  Here every
row of every block a search scores is materialized and checked against
``evaluate_mapping`` and against an independent scalar transcription of
Eqns 7-9, 12-13 on Python ints, term by term.  The temporal stage's
masked array expansion is checked against a depth-first walk over
tuples, combos and prune counts alike, and the spatial ranking against
a sort of Python tuples.
"""

from __future__ import annotations

import itertools
from math import prod

import numpy as np
import pytest

from repro.compiler import search as search_module
from repro.compiler.mapping import HW_LEVELS, MappingVectors
from repro.compiler.model import evaluate_mapping
from repro.compiler.search import (
    ScheduleSearch,
    _level_assignments,
    ceil_tile_candidates,
)
from repro.overlay.config import OverlayConfig
from repro.units import ceil_div
from repro.workloads.layers import ConvLayer, MatMulLayer

BLOCK_LEVELS = ("D1", "D2", "D3", "X", "L", "T")


def _random_conv(rng, groups: int = 1) -> ConvLayer:
    channels = groups * int(rng.integers(1, 5))
    return ConvLayer(
        "conv", in_channels=channels,
        out_channels=groups * int(rng.integers(1, 5)),
        in_h=int(rng.integers(4, 12)), in_w=int(rng.integers(4, 12)),
        kernel_h=int(rng.choice([1, 3])), kernel_w=int(rng.choice([1, 3])),
        stride=int(rng.integers(1, 3)), padding=1, groups=groups,
    )


def _random_mm(rng, weight_source: str | None = None) -> MatMulLayer:
    return MatMulLayer(
        "mm", in_features=int(rng.integers(8, 80)),
        out_features=int(rng.integers(4, 40)),
        batch=int(rng.integers(1, 9)), weight_source=weight_source,
    )


CASES = {
    "no-double-buffer": (
        OverlayConfig(3, 2, 2, double_buffer=False), _random_conv),
    "weights-resident": (
        OverlayConfig(3, 2, 2, weights_resident=True), _random_mm),
    "no-double-pump": (
        OverlayConfig(2, 2, 2, double_pump=False), _random_conv),
    "fractional-actbus": (
        OverlayConfig(3, 2, 2, actbus_words_per_cycle=2.5), _random_conv),
    "grouped-conv": (
        OverlayConfig(4, 2, 3), lambda rng: _random_conv(rng, groups=2)),
    "streamed-mm": (
        OverlayConfig(3, 2, 2), lambda rng: _random_mm(rng, "k")),
}


def _reference_terms(layer, config, mapping) -> dict:
    """Eqns 7-9, 12-13 for one mapping, on Python ints and dict tiles."""
    dims = layer.loop_dims()
    x, l_trips, t_trips = mapping.x, mapping.l, mapping.t
    t_tile = mapping.tile(("T",))
    stalled = config.double_pump and prod(
        t_tile[d.name] for d in dims if not d.in_weights) < 2
    c_comp = x * (l_trips * t_trips * (2 if stalled else 1)
                  + config.pipeline_latency)
    psum_words = layer.out_footprint(mapping.tile(("T", "L")))
    f_act_row = layer.act_footprint(mapping.tile(("T", "D1")))
    c_actbus = int(-(-x * l_trips * f_act_row // config.actbus_wpc))
    round_trips = 2 if any(
        mapping.trips["X"][d.name] > 1 for d in dims if d.reduction) else 1
    used_d3 = mapping.level_product("D3")
    used_d2 = mapping.level_product("D2")
    c_psumbus = int(-(-x * used_d3 * psum_words * round_trips
                      // config.psumbus_words_per_cycle))
    act_read = x * l_trips * layer.act_footprint(
        mapping.tile(("T", "D1", "D3")))
    psum_total = x * used_d2 * used_d3 * psum_words
    stored = mapping.used_tpes() * layer.weight_footprint(
        mapping.tile(("X", "L", "T")))
    read = act_read + psum_total * (round_trips - 1)
    if not config.weights_resident:
        read += stored
    c_dram_rd = int(-(-read // config.dram_rd_words_per_cycle()))
    c_dram_wr = int(-(-psum_total // config.dram_wr_words_per_cycle()))
    terms = (c_comp, c_actbus, c_psumbus, c_dram_rd, c_dram_wr)
    c_exe = max(terms) if config.double_buffer else sum(terms)
    e_wbuf = min(1.0, layer.weight_words / stored)
    c_min = max(1, ceil_div(layer.maccs, config.n_tpe))
    return dict(
        c_comp=c_comp, c_actbus=c_actbus, c_psumbus=c_psumbus,
        c_dram_rd=c_dram_rd, c_dram_wr=c_dram_wr, c_exe=c_exe,
        e_wbuf=e_wbuf, score=c_min / c_exe + e_wbuf,
    )


def _priced_rows(monkeypatch, layer, config, objective):
    """Run one search; yield (tiles per level, block terms) per row."""
    blocks = []
    real = search_module.price_block

    def recording(layer, config, *tiles):
        estimate = real(layer, config, *tiles)
        blocks.append((tiles, estimate))
        return estimate

    monkeypatch.setattr(search_module, "price_block", recording)
    # Tiny chunks: many blocks, most of them splitting no spatial choice.
    monkeypatch.setattr(search_module, "_CHUNK_ROWS", 7)
    search = ScheduleSearch(layer, config, objective=objective,
                            spatial_beam=8, temporal_beam=16)
    search.run()
    monkeypatch.undo()
    assert sum(len(e.c_exe) for _, e in blocks) == \
        search.candidates_evaluated
    for tiles, estimate in blocks:
        for row in range(len(estimate.c_exe)):
            per_level = {
                level: tiles[i][row].tolist()
                for i, level in enumerate(BLOCK_LEVELS)
            }
            terms = {
                name: getattr(estimate, name)[row].item()
                for name in ("c_comp", "c_actbus", "c_psumbus", "c_dram_rd",
                             "c_dram_wr", "c_exe", "e_wbuf", "score")
            }
            yield per_level, terms


@pytest.mark.parametrize("objective", ["performance", "balance"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_priced_row_matches_model(monkeypatch, case, objective):
    config, make_layer = CASES[case]
    rng = np.random.default_rng(sorted(CASES).index(case))
    for _ in range(3):
        layer = make_layer(rng)
        names = tuple(d.name for d in layer.loop_dims())
        rows = 0
        for per_level, terms in _priced_rows(
            monkeypatch, layer, config, objective
        ):
            mapping = MappingVectors.from_partial(names, {
                level: dict(zip(names, per_level[level]))
                for level in HW_LEVELS
            })
            model = evaluate_mapping(layer, config, mapping)
            assert terms == {
                "c_comp": model.c_comp, "c_actbus": model.c_actbus,
                "c_psumbus": model.c_psumbus, "c_dram_rd": model.c_dram_rd,
                "c_dram_wr": model.c_dram_wr, "c_exe": model.c_exe,
                "e_wbuf": model.e_wbuf, "score": model.score,
            }, (layer, mapping.describe())
            assert terms == _reference_terms(layer, config, mapping), (
                layer, mapping.describe())
            rows += 1
        assert rows > 0


@pytest.mark.parametrize("layer", [
    ConvLayer("grouped", 8, 12, in_h=9, in_w=9, kernel_h=3, kernel_w=3,
              stride=2, padding=1, groups=4),
    MatMulLayer("mm", in_features=24, out_features=10, batch=3),
], ids=lambda layer: layer.name)
def test_footprints_agree_on_dict_tuple_and_array_tiles(layer):
    """One footprint definition serves dict tiles (constraints), tuples
    and int64 row blocks (the search)."""
    rng = np.random.default_rng(7)
    names = [d.name for d in layer.loop_dims()]
    sizes = [d.size for d in layer.loop_dims()]
    rows = np.stack([rng.integers(1, size + 3, size=50) for size in sizes],
                    axis=1)
    for footprint in ("act_footprint", "out_footprint", "weight_footprint"):
        method = getattr(layer, footprint)
        block = method(rows)
        assert block.dtype == np.int64 and block.shape == (50,)
        for row, value in zip(rows.tolist(), block.tolist()):
            assert method(dict(zip(names, row))) == value
            assert method(tuple(row)) == value


def _reference_combos(search, rem):
    """The temporal stage as a depth-first walk over tuples: the combos
    ``(T, L, X)`` in enumeration order, and the capacity prunes."""
    layer, config = search.layer, search.config
    k, beam = len(rem), search.temporal_beam
    names = [d.name for d in layer.loop_dims()]
    t_loops = [names.index(n) for n in search._allowed_loops("T")]
    l_loops = [names.index(n) for n in search._allowed_loops("L")]
    pruned = 0

    def fits(tile, act):
        return (layer.out_footprint(tile) <= config.psumbuf_usable_words
                and layer.weight_footprint(tile) <= config.s_wbuf_words
                and (not act
                     or layer.act_footprint(tile)
                     <= config.actbuf_usable_words))

    def walk(active, current):
        nonlocal pruned
        if not active:
            yield tuple(current)
            return
        i = active[0]
        for tile in reversed(ceil_tile_candidates(rem[i], rem[i])):
            current[i] = tile
            if fits(tuple(current), act=True):
                yield from walk(active[1:], current)
            else:
                pruned += 1
        current[i] = 1

    t_tiles = list(walk([i for i in t_loops if rem[i] > 1], [1] * k))
    combos = []
    for t in t_tiles or [(1,) * k]:
        if beam is not None and len(combos) >= beam:
            break
        choices = [(1,) * k]
        for i in l_loops:
            remaining = -(-rem[i] // t[i])
            if remaining <= 1:
                continue
            extended = []
            for base in choices:
                for tile in reversed(ceil_tile_candidates(remaining,
                                                          remaining)):
                    l = base[:i] + (tile,) + base[i + 1:]
                    if fits(tuple(a * b for a, b in zip(t, l)), act=False):
                        extended.append(l)
                    else:
                        pruned += 1
            choices = extended or choices
        for l in choices:
            if beam is not None and len(combos) >= beam:
                break
            x = tuple(-(-r // (a * b)) for r, a, b in zip(rem, t, l))
            combos.append((t, l, x))
    return combos, pruned


@pytest.mark.parametrize("beam", [None, 1, 7, 40])
@pytest.mark.parametrize("case", sorted(CASES))
def test_temporal_block_matches_depth_first_walk(case, beam):
    config, make_layer = CASES[case]
    rng = np.random.default_rng(100 + sorted(CASES).index(case))
    for _ in range(4):
        layer = make_layer(rng)
        search = ScheduleSearch(layer, config, temporal_beam=beam)
        rem = tuple(int(rng.integers(1, size + 1))
                    for size in (d.size for d in layer.loop_dims()))
        steps0, pruned0 = search.steps, search.pruned_by_capacity
        block = search._temporal_block(rem)
        combos, pruned = _reference_combos(search, rem)
        assert list(zip(map(tuple, block.t.tolist()),
                        map(tuple, block.l.tolist()),
                        map(tuple, block.x.tolist()))) == combos
        assert search.pruned_by_capacity - pruned0 == pruned
        assert search.steps - steps0 == len(combos)


def _reference_spatial(search):
    """Joint spatial choices ranked on Python tuples and floats."""
    names, sizes = search._loop_names, search._sizes
    per_level = [
        _level_assignments(dict(zip(names, sizes)),
                           search._allowed_loops(level), cap)
        for level, cap in (("D1", search.config.d1),
                           ("D2", search.config.d2),
                           ("D3", search.config.d3))
    ]
    joint = []
    for assignments in itertools.product(*per_level):
        tiles = tuple(tuple(a.get(n, 1) for n in names) for a in assignments)
        used = prod(prod(tile) for tile in tiles)
        pad = 1.0
        for i, size in enumerate(sizes):
            split = prod(tile[i] for tile in tiles)
            covered = -(-size // split) * split
            pad *= covered / size if covered > size else 1.0
        joint.append((used, pad, tiles))
    joint.sort(key=lambda item: (-item[0], item[1]))
    return [tiles for _, _, tiles in joint]


@pytest.mark.parametrize("beam", [None, 3, 50])
@pytest.mark.parametrize("case", sorted(CASES))
def test_spatial_ranking_matches_tuple_sort(case, beam):
    config, make_layer = CASES[case]
    rng = np.random.default_rng(200 + sorted(CASES).index(case))
    for _ in range(3):
        search = ScheduleSearch(make_layer(rng), config, spatial_beam=beam)
        reference = _reference_spatial(search)
        chosen = search._spatial_choices()
        assert [tuple(map(tuple, tiles)) for tiles in chosen.tolist()] == \
            reference[:beam]
        assert search.spatial_enumerated == len(reference)
        assert search.spatial_beam_dropped == len(reference) - len(chosen)
