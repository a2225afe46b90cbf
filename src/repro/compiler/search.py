"""Mapping-vector search (paper §IV-D4).

The paper's searching scheme, reproduced: generate candidates under the
guidance of the adjacency matrix, exclude infeasible ones against the
constraints, evaluate the rest with the analytical model, and keep the
top-k under the requested objective.

Enumeration strategy (kept exhaustive over the *structured* space):

1. **Spatial** — per level (D1, D2, D3), enumerate per-loop tile sizes
   from the ceiling-divisor lattice of each loop's trip count, bounded by
   the level's resource cap (Eqn 10).  Joint spatial choices are ranked by
   TPE utilization and padding so a configurable beam keeps the search
   tractable without losing the high-performance region.
2. **Temporal** — for each spatial choice's per-loop remainders, enumerate
   LoopT tiles under the ActBUF capacity, then LoopL tiles (adjacency-
   restricted) under the PSumBUF/WBUF capacities.  LoopX is then *forced*:
   the minimal cover of each loop's remainder (Eqn 11), which is always
   optimal because X is unconstrained and outermost.  Both tile stages
   are breadth-first masked expansions over int64 arrays of positional
   tiles, largest tile first, so rows come out in depth-first leaf
   order.  A remainder vector's combos form one struct-of-arrays
   :class:`~repro.compiler.memo.TemporalBlock`, memoized per remainder
   vector — spatial twins share it.

Pricing uses the one cost model,
:func:`repro.compiler.model.price_block`: each search prices its
spatial x temporal candidates as array blocks (chunked, so memory stays
bounded) and keeps the top-k by a stable lexsort on the objective key,
enumeration order last.  The winners are materialized as full
:class:`MappingVectors` and re-priced by
:func:`~repro.compiler.model.evaluate_mapping` (the model's one-row
case), which also re-checks every constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from repro.compiler.adjacency import adjacency_matrix
from repro.compiler.constraints import check_constraints
from repro.compiler.mapping import MappingVectors
from repro.compiler.memo import TemporalBlock, TemporalMemo
from repro.compiler.model import (
    BlockEstimate,
    PerformanceEstimate,
    evaluate_mapping,
    price_block,
)
from repro.errors import ScheduleError
from repro.overlay.config import OverlayConfig
from repro.trace.metrics import MetricsRegistry, as_metrics
from repro.trace.span import Tracer, as_tracer
from repro.units import ceil_div
from repro.workloads.layers import ConvLayer, MatMulLayer

AcceleratedLayer = ConvLayer | MatMulLayer

#: Valid objective names.
OBJECTIVES = ("performance", "balance")

#: Candidate rows priced per block; bounds the pricer's peak memory.
_CHUNK_ROWS = 1 << 13


@dataclass(frozen=True)
class Schedule:
    """One feasible schedule: mapping vectors plus their price."""

    layer: AcceleratedLayer
    config: OverlayConfig
    mapping: MappingVectors
    estimate: PerformanceEstimate
    objective: str

    @property
    def cycles(self) -> int:
        return self.estimate.c_exe

    @property
    def hardware_efficiency(self) -> float:
        return self.estimate.hardware_efficiency

    def describe(self) -> str:
        est = self.estimate
        return (
            f"{self.layer.name}: {est.c_exe} cycles, "
            f"eff {est.hardware_efficiency:.1%}, E_WBUF {est.e_wbuf:.2f}, "
            f"bound by {est.bottleneck} | {self.mapping.describe()}"
        )


@lru_cache(maxsize=65536)
def _ceil_tile_lattice(size: int, cap: int) -> tuple[int, ...]:
    """The memoized lattice behind :func:`ceil_tile_candidates`."""
    if size <= 0:
        raise ScheduleError(f"loop size must be positive, got {size}")
    cap = min(cap, size)
    if cap < 1:
        return (1,)
    values = set()
    m = 1
    while m <= size:
        tile = ceil_div(size, m)
        if tile <= cap:
            values.add(tile)
        # Jump to the next m that can change ceil(size / m).
        m = max(m + 1, size // tile + 1) if tile > 1 else size + 1
    values.add(1)
    return tuple(sorted(values))


@lru_cache(maxsize=65536)
def _descending_lattice(size: int) -> np.ndarray:
    """Every tile worth trying on a ``size`` loop, largest first."""
    lattice = np.array(_ceil_tile_lattice(size, size)[::-1], dtype=np.int64)
    lattice.setflags(write=False)
    return lattice


def _lattice_rows(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each size's descending lattice, concatenated, and their lengths."""
    unique, inverse = np.unique(sizes, return_inverse=True)
    lattices = [_descending_lattice(int(size)) for size in unique]
    unique_lengths = np.array([len(lattice) for lattice in lattices])
    lengths = unique_lengths[inverse]
    # Output slot ends[r] - lengths[r] + j takes concatenated starts[r] + j.
    starts = (np.cumsum(unique_lengths) - unique_lengths)[inverse]
    ends = np.cumsum(lengths)
    index = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
    return np.concatenate(lattices)[index], lengths


def ceil_tile_candidates(size: int, cap: int) -> list[int]:
    """Tile sizes worth considering for a loop of ``size``, at most ``cap``.

    The ceiling-divisor lattice ``{ceil(size / m)}`` contains, for every
    possible split count ``m``, the smallest tile covering the loop — any
    other tile only adds padding.  O(sqrt(size)) distinct values.

    The lattice itself is process-wide memoized (it is a pure function of
    its arguments and the search calls it once per loop per level per
    candidate); callers get a fresh list each time.
    """
    return list(_ceil_tile_lattice(size, cap))


def _level_assignments(
    loop_sizes: dict[str, int],
    allowed: list[str],
    cap: int,
) -> list[dict[str, int]]:
    """All per-loop tile dicts for one hardware level, product <= cap."""
    assignments: list[dict[str, int]] = []

    def recurse(index: int, current: dict[str, int], budget: int) -> None:
        if index == len(allowed):
            assignments.append(dict(current))
            return
        name = allowed[index]
        for tile in _ceil_tile_lattice(loop_sizes[name], budget):
            current[name] = tile
            recurse(index + 1, current, budget // tile)
        current.pop(name, None)

    recurse(0, {}, cap)
    return assignments


class ScheduleSearch:
    """Top-k mapping-vector search for one layer on one overlay config.

    Args:
        layer: CONV or MM layer to schedule.
        config: Overlay hardware configuration.
        objective: ``"performance"`` (Objective 1: min execution time) or
            ``"balance"`` (Objective 2: max corrected Eqn-13 score).
        top_k: Number of schedules to return, best first.
        spatial_beam: Max joint spatial choices explored (ranked by TPE
            utilization, then padding).  ``None`` explores all.
        temporal_beam: Max (T, L) combos per remainder vector.  ``None``
            explores all.
        tracer: Optional :class:`~repro.trace.span.Tracer`; the search
            opens per-phase spans stamped with a monotonic step counter
            (``step_base`` + work units done) — never wall clock.
        metrics: Optional :class:`~repro.trace.metrics.MetricsRegistry`;
            candidate / pruning / memo counters are mirrored into it at
            the end of each :meth:`run`.
        step_base: Offset added to this search's step clock so several
            searches sharing one tracer stay on one monotonic timeline.
        temporal_memo: Optional :class:`~repro.compiler.memo.TemporalMemo`
            shared across searches (incremental reuse across batch sizes
            and fault masks).  Shared hits replay the original step/prune
            accounting, so results, trace spans, and mirrored counters
            are bit-identical whether the memo was cold or warm.
    """

    def __init__(
        self,
        layer: AcceleratedLayer,
        config: OverlayConfig,
        objective: str = "performance",
        top_k: int = 1,
        spatial_beam: int | None = 160,
        temporal_beam: int | None = 240,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        step_base: int = 0,
        temporal_memo: TemporalMemo | None = None,
    ):
        if objective not in OBJECTIVES:
            raise ScheduleError(
                f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
            )
        if top_k < 1:
            raise ScheduleError(f"top_k must be >= 1, got {top_k}")
        self.layer = layer
        self.config = config
        self.objective = objective
        self.top_k = top_k
        self.spatial_beam = spatial_beam
        self.temporal_beam = temporal_beam
        self._adjacency = adjacency_matrix(layer)
        dims = layer.loop_dims()
        self._loop_names = tuple(d.name for d in dims)
        self._sizes = tuple(d.size for d in dims)
        self._reduction = tuple(d.reduction for d in dims)
        self._in_weights = tuple(d.in_weights for d in dims)
        self._k = len(dims)
        self._t_loops, self._l_loops = (
            [self._loop_names.index(n) for n in self._allowed_loops(level)]
            for level in ("T", "L")
        )
        self.candidates_evaluated = 0
        self.tracer = as_tracer(tracer)
        self.metrics = as_metrics(metrics)
        self.step_base = step_base
        #: Monotonic work counter (spatial choices ranked + temporal
        #: combos built + candidates priced) — the search's trace clock.
        self.steps = 0
        self.spatial_enumerated = 0
        self.spatial_beam_dropped = 0
        self.pruned_by_capacity = 0
        self.temporal_memo_hits = 0
        self.temporal_memo = temporal_memo
        #: Remainder vectors served from the *shared* cross-search memo.
        self.shared_memo_hits = 0
        #: Loops with iterations that the adjacency matrix (Fig. 5) bars
        #: from some hardware level — the search space it never visits.
        self.adjacency_excluded_loops = sum(
            1
            for level in ("D1", "D2", "D3", "T", "L")
            for name, size in zip(self._loop_names, self._sizes)
            if size > 1 and not self._adjacency[level][name]
        )

    def _now(self) -> int:
        """Current step-clock timestamp for trace spans."""
        return self.step_base + self.steps

    # ------------------------------------------------------------------ #
    # spatial stage
    # ------------------------------------------------------------------ #
    def _allowed_loops(self, level: str) -> list[str]:
        return [
            name for name, size in zip(self._loop_names, self._sizes)
            if self._adjacency[level][name] and size > 1
        ]

    def _spatial_choices(self) -> np.ndarray:
        """Joint (D1, D2, D3) positional tiles, beam-ranked: ``(S, 3, K)``.

        Every triple of per-level assignments, D3 varying fastest, ranked
        by TPEs used (descending) then padding; the sort is stable, so
        ties keep enumeration order.
        """
        sizes = dict(zip(self._loop_names, self._sizes))
        levels = [
            np.array([
                [assignment.get(name, 1) for name in self._loop_names]
                for assignment in _level_assignments(
                    sizes, self._allowed_loops(level), cap)
            ], dtype=np.int64)
            for level, cap in zip(("D1", "D2", "D3"), self.config.grid)
        ]
        picks = np.indices([len(tiles) for tiles in levels]).reshape(3, -1)
        used = prod(tiles.prod(axis=1)[pick] for tiles, pick in zip(levels, picks))
        # The padding factor is a float product taken in loop order.
        pad = np.ones(len(used))
        for i, size in enumerate(self._sizes):
            split = prod(tiles[pick, i] for tiles, pick in zip(levels, picks))
            covered = -(-size // split) * split
            pad *= np.where(covered > size, covered / size, 1.0)
        order = np.lexsort((pad, -used))
        self.spatial_enumerated += len(order)
        self.steps += len(order)
        if self.spatial_beam is not None and len(order) > self.spatial_beam:
            self.spatial_beam_dropped += len(order) - self.spatial_beam
            order = order[: self.spatial_beam]
        return np.stack(
            [tiles[pick[order]] for tiles, pick in zip(levels, picks)], axis=1
        )

    # ------------------------------------------------------------------ #
    # temporal stage (memoized per remainder vector)
    # ------------------------------------------------------------------ #
    def temporal_context(self) -> tuple:
        """Everything the temporal stage reads besides the remainder vector.

        Two searches with equal contexts enumerate identical combos for
        equal remainders — the key of the shared :class:`TemporalMemo`.
        Note the spatial grid ``(D1, D2, D3)`` is deliberately absent: a
        fault-mask recompile shrinks the grid but keeps every buffer
        capacity, so the whole temporal memo carries over.
        """
        layer = self.layer
        if isinstance(layer, ConvLayer):
            kind = ("conv", layer.stride, layer.groups,
                    layer.group_out_channels)
        else:
            kind = ("mm",)
        return (
            kind,
            self._loop_names,
            self._reduction,
            self._in_weights,
            tuple(self._allowed_loops("T")),
            tuple(self._allowed_loops("L")),
            self.config.actbuf_usable_words,
            self.config.psumbuf_usable_words,
            self.config.s_wbuf_words,
            self.config.double_pump,
            self.temporal_beam,
        )

    def _fits(self, tiles: np.ndarray, act: bool) -> np.ndarray:
        """Which rows of ``tiles`` fit PSumBUF and WBUF (and ActBUF)."""
        layer, config = self.layer, self.config
        fits = (layer.out_footprint(tiles) <= config.psumbuf_usable_words) & (
            layer.weight_footprint(tiles) <= config.s_wbuf_words
        )
        if act:
            fits &= layer.act_footprint(tiles) <= config.actbuf_usable_words
        return fits

    def _t_tiles(self, rem: tuple[int, ...]) -> np.ndarray:
        """LoopT tiles of ``rem`` under all three buffer capacities.

        A breadth-first masked expansion over the active loops, largest
        tile first (they amortize LoopX overhead best): rows come out
        prefix-major, a depth-first walk's leaf order.  Every failing
        (prefix, tile) pair counts as one prune.
        """
        tiles = np.ones((1, self._k), dtype=np.int64)
        for i in self._t_loops:
            if rem[i] <= 1:
                continue
            lattice = _descending_lattice(rem[i])
            expanded = np.repeat(tiles, len(lattice), axis=0)
            expanded[:, i] = np.tile(lattice, len(tiles))
            fits = self._fits(expanded, act=True)
            self.pruned_by_capacity += len(fits) - int(np.count_nonzero(fits))
            tiles = expanded[fits]
        return tiles if len(tiles) else np.ones((1, self._k), dtype=np.int64)

    def _l_tiles(
        self, rem: tuple[int, ...], t_tiles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """LoopL tiles for every row of ``t_tiles``, under PSumBUF/WBUF.

        The same masked expansion over the L-allowed loops that still
        carry iterations after T.  When no tile of a loop fits, a T tile
        keeps its previous choices (that loop stays at 1).  Returns the
        L tiles, the ``t_tiles`` row each belongs to (grouped by T tile,
        in order) and the prunes counted per T tile.
        """
        n = len(t_tiles)
        l_tiles = np.ones_like(t_tiles)
        owner = np.arange(n)
        pruned = np.zeros(n, dtype=np.int64)
        for i in self._l_loops:
            remaining = -(-rem[i] // t_tiles[owner, i])
            active = remaining > 1
            if not active.any():
                continue
            values, lengths = _lattice_rows(remaining[active])
            expanded = np.repeat(l_tiles[active], lengths, axis=0)
            expanded[:, i] = values
            expanded_owner = np.repeat(owner[active], lengths)
            fits = self._fits(t_tiles[expanded_owner] * expanded, act=False)
            pruned += np.bincount(expanded_owner[~fits], minlength=n)
            extended = np.bincount(expanded_owner[fits], minlength=n) > 0
            keep = ~extended[owner]
            owner = np.concatenate((owner[keep], expanded_owner[fits]))
            order = np.argsort(owner, kind="stable")
            owner = owner[order]
            l_tiles = np.concatenate((l_tiles[keep], expanded[fits]))[order]
        return l_tiles, owner, pruned

    def _temporal_block(self, rem: tuple[int, ...]) -> TemporalBlock:
        """The (T, L, forced-X) combos of ``rem``, up to the temporal beam.

        T tiles are visited in order while the beam has room; a visited
        T tile's L choices are enumerated (and their prunes counted) in
        full, then taken in order until the beam is full.
        """
        beam = self.temporal_beam
        t_tiles = self._t_tiles(rem)
        if beam is not None:
            # Every T tile yields at least one combo.
            t_tiles = t_tiles[:beam]
        l_tiles, owner, pruned = self._l_tiles(rem, t_tiles)
        visited = len(t_tiles)
        if beam is not None:
            filled = np.cumsum(np.bincount(owner, minlength=visited))
            visited = min(visited, int(np.searchsorted(filled, beam)) + 1)
            l_tiles = l_tiles[owner < visited][:beam]
            owner = owner[owner < visited][:beam]
        self.pruned_by_capacity += int(pruned[:visited].sum())
        self.steps += len(l_tiles)
        t_tiles = t_tiles[owner]
        x_tiles = -(-np.array(rem, dtype=np.int64) // (t_tiles * l_tiles))
        return TemporalBlock(t=t_tiles, l=l_tiles, x=x_tiles)

    # ------------------------------------------------------------------ #
    def run(self) -> list[Schedule]:
        """Execute the search; returns top-k schedules, best first.

        Raises:
            ScheduleError: if no feasible mapping exists (e.g. buffers too
                small for any tile of this layer).
        """
        tracer = self.tracer
        depth0 = tracer.open_depth
        snapshot = (
            self.candidates_evaluated, self.steps, self.spatial_enumerated,
            self.spatial_beam_dropped, self.pruned_by_capacity,
            self.temporal_memo_hits,
        )
        tracer.begin(
            f"search:{self.layer.name}", at=self._now(), track="search",
            objective=self.objective,
            grid=f"{self.config.d1}x{self.config.d2}x{self.config.d3}",
        )
        try:
            return self._run_traced(tracer)
        finally:
            # Error paths may leave phase spans open; close everything
            # this call opened (root included) at the final step clock.
            while tracer.open_depth > depth0:
                tracer.end(self._now())
            self._mirror_metrics(snapshot)

    def _memoized_block(
        self,
        rem: tuple[int, ...],
        context: tuple | None,
    ) -> TemporalBlock:
        """Temporal combos for ``rem``, via the shared memo when available.

        A shared hit replays the recorded step and capacity-prune charges
        so the search's virtual step clock is independent of memo warmth.
        """
        memo = self.temporal_memo
        if memo is None:
            return self._temporal_block(rem)
        entry = memo.lookup(context, rem)
        if entry is not None:
            self.steps += entry.steps
            self.pruned_by_capacity += entry.pruned
            self.shared_memo_hits += 1
            return entry.block
        steps0 = self.steps
        pruned0 = self.pruned_by_capacity
        block = self._temporal_block(rem)
        memo.store(
            context, rem, block,
            steps=self.steps - steps0,
            pruned=self.pruned_by_capacity - pruned0,
        )
        return block

    def _run_traced(self, tracer: Tracer) -> list[Schedule]:
        blocks: dict[tuple[int, ...], TemporalBlock] = {}
        context = (
            self.temporal_context() if self.temporal_memo is not None else None
        )

        span = tracer.begin("spatial", at=self._now(), track="search")
        spatials = self._spatial_choices()
        tracer.end(self._now(), span)

        span = tracer.begin("evaluate", at=self._now(), track="search")
        rems = -(-np.array(self._sizes) // spatials.prod(axis=1))
        per_spatial = []
        for rem in map(tuple, rems.tolist()):
            block = blocks.get(rem)
            if block is None:
                block = blocks[rem] = self._memoized_block(rem, context)
            else:
                self.temporal_memo_hits += 1
            per_spatial.append(block)
        winners = self._top_candidates(spatials, per_spatial)
        tracer.end(self._now(), span)

        if not len(winners):
            raise ScheduleError(
                f"no feasible schedule for layer {self.layer.name!r} on "
                f"({self.config.d1}, {self.config.d2}, {self.config.d3})"
            )

        span = tracer.begin("materialize", at=self._now(), track="search")
        schedules = [self._materialize(tiles) for tiles in winners]
        tracer.end(self._now(), span)

        violations = check_constraints(self.layer, self.config, schedules[0].mapping)
        if violations:
            raise ScheduleError(
                f"search produced an infeasible winner for {self.layer.name!r}: "
                f"{violations}"
            )
        return schedules

    def _top_candidates(
        self, spatials: np.ndarray, blocks: list[TemporalBlock]
    ) -> np.ndarray:
        """Price every spatial x temporal candidate; return the top-k.

        Candidates are priced in chunks of whole spatial choices, in
        enumeration order, and ranked by the objective key; on a tie the
        later candidate ranks first.  Returns a ``(k, 6, K)`` array: each
        winner's D1, D2, D3, X, L and T tiles, best first.
        """
        picks: list[tuple[np.ndarray, ...]] = []
        index0 = start = rows = 0
        for stop, block in enumerate(blocks, start=1):
            rows += len(block)
            if rows < _CHUNK_ROWS and stop < len(blocks):
                continue
            chunk = blocks[start:stop]
            spatial = np.repeat(
                spatials[start:stop], [len(b) for b in chunk], axis=0
            )
            tiles = (
                spatial[:, 0], spatial[:, 1], spatial[:, 2],
                *(np.concatenate([getattr(b, level) for b in chunk])
                  for level in ("x", "l", "t")),
            )
            estimate = price_block(self.layer, self.config, *tiles)
            index = np.arange(index0, index0 + rows)
            keys = self._objective_keys(estimate) + (-index,)
            top = np.lexsort(keys[::-1])[: self.top_k]
            picks.append(
                tuple(key[top] for key in keys)
                + (np.stack([tile[top] for tile in tiles], axis=1),)
            )
            self.candidates_evaluated += rows
            self.steps += rows
            index0 += rows
            start, rows = stop, 0
        if not picks:
            return np.empty((0, 6, self._k), dtype=np.int64)
        *keys, tiles = (np.concatenate(column) for column in zip(*picks))
        return tiles[np.lexsort(keys[::-1])[: self.top_k]]

    def _objective_keys(self, estimate: BlockEstimate) -> tuple[np.ndarray, ...]:
        """Per-row sort keys of the objective, most significant first."""
        if self.objective == "performance":
            return (estimate.c_exe, -estimate.e_wbuf)
        return (-estimate.score, estimate.c_exe)

    def _mirror_metrics(self, snapshot: tuple[int, ...]) -> None:
        """Publish this run's counter deltas into the metrics registry."""
        metrics = self.metrics
        if not metrics.enabled:
            return
        deltas = {
            "search_candidates_evaluated": self.candidates_evaluated,
            "search_steps": self.steps,
            "search_spatial_choices": self.spatial_enumerated,
            "search_spatial_beam_dropped": self.spatial_beam_dropped,
            "search_pruned_by_capacity": self.pruned_by_capacity,
            "search_temporal_memo_hits": self.temporal_memo_hits,
        }
        helps = {
            "search_candidates_evaluated": "mapping candidates priced",
            "search_steps": "search work units (the trace step clock)",
            "search_spatial_choices": "joint spatial choices enumerated",
            "search_spatial_beam_dropped": "spatial choices cut by the beam",
            "search_pruned_by_capacity": "tiles rejected by buffer capacity",
            "search_temporal_memo_hits": "remainder vectors reused from memo",
        }
        for (name, total), base in zip(deltas.items(), snapshot):
            metrics.counter(name, helps[name]).inc(
                total - base, objective=self.objective
            )
        metrics.counter(
            "search_adjacency_excluded_loops",
            "loop/level pairs the adjacency matrix excludes",
        ).inc(self.adjacency_excluded_loops, objective=self.objective)

    def _materialize(self, tiles: np.ndarray) -> Schedule:
        """Build the full mapping and re-price it authoritatively."""
        names = self._loop_names
        partial = {
            level: dict(zip(names, row))
            for level, row in zip(("D1", "D2", "D3", "X", "L", "T"),
                                  tiles.tolist())
        }
        mapping = MappingVectors.from_partial(names, partial)
        estimate = evaluate_mapping(self.layer, self.config, mapping)
        return Schedule(
            layer=self.layer,
            config=self.config,
            mapping=mapping,
            estimate=estimate,
            objective=self.objective,
        )

def schedule_layer(
    layer: AcceleratedLayer,
    config: OverlayConfig,
    objective: str = "performance",
) -> Schedule:
    """Convenience wrapper: best schedule for ``layer`` on ``config``."""
    return ScheduleSearch(layer, config, objective=objective, top_k=1).run()[0]


def schedule_network(
    network,
    config: OverlayConfig,
    objective: str = "performance",
    cache=None,
    workers: int | None = None,
) -> list[Schedule]:
    """Best schedule per accelerated layer of ``network``, in layer order.

    The whole-network entry point behind network evaluation, the serving
    batch model, and fault-aware degraded compilation: shape twins are
    deduplicated through one :class:`~repro.compiler.cache.ScheduleCache`
    (a fresh unbounded one when ``cache`` is None).

    Args:
        workers: When > 1, independent layer searches fan out across a
            :mod:`multiprocessing` pool (see
            :func:`repro.compiler.parallel.parallel_schedule_network`);
            results are merged deterministically and are byte-for-byte
            identical to the sequential path.  ``None`` or 1 searches
            in-process.

    Raises:
        ScheduleError: if any layer has no feasible mapping on ``config``.
    """
    # Local imports: cache.py / parallel.py import this module at load time.
    from repro.compiler.cache import ScheduleCache

    if cache is None:
        cache = ScheduleCache(config, objective=objective)
    if workers is not None and workers > 1:
        from repro.compiler.parallel import parallel_schedule_network

        return parallel_schedule_network(
            network, config, objective=objective, cache=cache,
            max_workers=workers,
        )
    return [cache.schedule(layer) for layer in network.accelerated_layers()]
