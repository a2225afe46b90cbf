"""Analytical performance model (paper §IV-B, Eqns 7-9, 12-13).

Prices one candidate mapping in CLK_h cycles along every potential
bottleneck — computation, ActBUS, PSumBUS, DRAM read, DRAM write — plus
the WBUF efficiency.  The execution time is the max of the five (Eqn 12)
because double-buffering overlaps communication with computation; the
ablation ``double_buffer=False`` serializes them instead.

Note on Eqn 13: the paper prints ``Score = C_exe / C_exe_min + E_WBUF``
under a *max* objective, which would reward slow schedules; we use the
evidently intended normalization ``C_exe_min / C_exe + E_WBUF`` so both
terms live in (0, 1] and larger is better (this matches the Fig. 7(b)
behaviour: near-peak performance at E_WBUF ≈ 1).

Two refinements the paper leaves implicit:

* **Weight streaming.**  A full network's weights exceed the aggregate
  WBUF of one device (GoogLeNet: 13.7 MB vs 2.4 MB on the vu125), so each
  layer's weights stream from DRAM, overlapped with computation like every
  other transfer.  The streamed volume is the *stored* volume — duplicated
  weights (low ``E_WBUF``) cost real bandwidth, which is exactly why
  Objective 2 matters at network scale.
* **Double-pump weight reuse.**  CLK_h runs at twice the BRAM clock, so a
  schedule must reuse each weight on two consecutive MACCs.  If the LoopT
  tile iterates weight-indexing loops only (e.g. a batch-1 MM), the DSP
  stalls every other cycle and the compute term doubles.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from repro.compiler.adjacency import needs_ewop_reduction
from repro.compiler.mapping import MappingVectors
from repro.overlay.config import OverlayConfig
from repro.units import ceil_div
from repro.workloads.layers import ConvLayer, MatMulLayer

AcceleratedLayer = ConvLayer | MatMulLayer


@dataclass(frozen=True)
class PerformanceEstimate:
    """All analytical quantities for one (layer, config, mapping) triple.

    Cycle counts are in CLK_h cycles.
    """

    c_comp: int
    c_actbus: int
    c_psumbus: int
    c_dram_rd: int
    c_dram_wr: int
    e_wbuf: float
    #: True when the LoopT tile cannot reuse each weight on two consecutive
    #: cycles, halving the double-pumped MACC rate (already in ``c_comp``).
    weight_stalled: bool
    #: Per-TPE words the schedule needs in each buffer.
    actbuf_words: int
    wbuf_words: int
    #: Per-SuperBlock partial-sum tile words.
    psumbuf_words: int
    #: True if a host EWOP must add partial results across D3 rows.
    ewop_accumulate: bool
    #: True MACCs of the layer (excluding padding).
    useful_maccs: int
    #: MACC slots offered: n_tpe * C_exe.
    n_tpe: int
    #: Theoretical minimum cycles on this hardware (ceil(maccs / n_tpe)).
    c_exe_min: int
    #: Whether comm/comp overlap (Eqn 12 max) or serialize (ablation).
    double_buffer: bool

    # ------------------------------------------------------------------ #
    @property
    def c_exe(self) -> int:
        """Overall execution time in cycles (Eqn 12)."""
        terms = (
            self.c_comp, self.c_actbus, self.c_psumbus,
            self.c_dram_rd, self.c_dram_wr,
        )
        return max(terms) if self.double_buffer else sum(terms)

    @property
    def bottleneck(self) -> str:
        """Which term of Eqn 12 binds."""
        named = {
            "compute": self.c_comp,
            "actbus": self.c_actbus,
            "psumbus": self.c_psumbus,
            "dram_rd": self.c_dram_rd,
            "dram_wr": self.c_dram_wr,
        }
        return max(named, key=named.get)  # type: ignore[arg-type]

    @property
    def hardware_efficiency(self) -> float:
        """Useful MACCs over offered MACC slots — the paper's headline
        per-layer metric."""
        return self.useful_maccs / (self.n_tpe * self.c_exe)

    @property
    def score(self) -> float:
        """Objective 2 balance score (corrected Eqn 13)."""
        return self.c_exe_min / self.c_exe + self.e_wbuf

    def gops_at(self, clk_h_mhz: float) -> float:
        """Attained throughput at a clock, in GOPS."""
        seconds = self.c_exe / (clk_h_mhz * 1e6)
        return 2.0 * self.useful_maccs / seconds / 1e9


@dataclass(frozen=True)
class AbftOverhead:
    """ABFT checksum work for one layer, priced in MACCs.

    Protecting a layer adds one checksum row and one checksum column to
    every GEMM the layer lowers to (one per channel group for CONV), so
    the extra work is exactly

    ``checksum_maccs = Σ_groups K·(rows + cols + 1)``

    where ``K`` is the reduction length and ``rows × cols`` the data
    output of one group's GEMM.  Relative to the data work ``rows·K·cols``
    that is exactly ``1/rows + 1/cols + 1/(rows·cols)`` — the paper-style
    intuition "one extra output row and column".  The functional ABFT
    kernels (:mod:`repro.integrity.abft`) count the same quantity from
    the arrays they actually compute, and the two must agree exactly.

    When the schedule protects each *tile* independently (checksums
    re-encoded per LoopX pass instead of once per layer), the rows/cols
    shrink to the tile's and the overhead grows to ``tile_bound`` — with
    output rows spread over TD1·TD2-style spatial tiles this is the
    ``≲ 1/TD1 + 1/TD2`` bound.

    Attributes:
        base_maccs: Unprotected data work of the layer.
        checksum_maccs: Extra MACCs for checksum rows/columns and the
            cross-check term.
        out_rows / out_cols: Data GEMM output shape (per channel group).
        tile_rows / tile_cols: Output tile shape under the given
            mapping (equal to ``out_rows``/``out_cols`` when the whole
            layer is encoded at once).
    """

    base_maccs: int
    checksum_maccs: int
    out_rows: int
    out_cols: int
    tile_rows: int
    tile_cols: int

    @property
    def overhead_fraction(self) -> float:
        """Layer-level checksum work over data work — exactly
        ``1/rows + 1/cols + 1/(rows·cols)``."""
        return self.checksum_maccs / self.base_maccs

    @property
    def tile_bound(self) -> float:
        """Overhead fraction when every output tile is independently
        encoded — the worst case a tiled schedule pays."""
        return (
            1.0 / self.tile_rows + 1.0 / self.tile_cols
            + 1.0 / (self.tile_rows * self.tile_cols)
        )

    @property
    def protected_maccs(self) -> int:
        """Total work of the ABFT-protected layer."""
        return self.base_maccs + self.checksum_maccs

    @property
    def throughput_factor(self) -> float:
        """Attainable fraction of unprotected throughput when the
        checksum work rides the same compute-bound datapath."""
        return self.base_maccs / self.protected_maccs


def abft_overhead(
    layer: AcceleratedLayer,
    mapping: MappingVectors | None = None,
) -> AbftOverhead:
    """Price the ABFT checksum work for ``layer``.

    Without a ``mapping`` the layer is encoded once (what
    :func:`repro.integrity.abft.abft_layer_output` measures).  With one,
    ``tile_rows``/``tile_cols`` reflect the output tile a single LoopX
    pass produces — spatial and temporal levels included, ``X`` excluded
    — capping the per-tile encoding overhead via ``tile_bound``.
    """
    tile: dict[str, int] | None = None
    if mapping is not None:
        tile = mapping.tile(("D3", "D2", "D1", "L", "T"))
    if isinstance(layer, MatMulLayer):
        rows, cols = layer.out_features, layer.batch
        reduction = layer.in_features
        groups = 1
    elif isinstance(layer, ConvLayer):
        rows, cols = layer.group_out_channels, layer.out_h * layer.out_w
        reduction = layer.group_in_channels * layer.kernel_h * layer.kernel_w
        groups = layer.groups
    else:
        raise TypeError(f"no ABFT cost model for layer kind {layer.kind}")
    tile_rows, tile_cols = rows, cols
    if tile is not None:
        if isinstance(layer, MatMulLayer):
            tile_rows = min(rows, tile["N"])
            tile_cols = min(cols, tile["P"])
        else:
            tile_rows = min(rows, tile["M"])
            tile_cols = min(cols, tile["H"] * tile["W"])
    return AbftOverhead(
        base_maccs=groups * rows * reduction * cols,
        checksum_maccs=groups * reduction * (rows + cols + 1),
        out_rows=rows,
        out_cols=cols,
        tile_rows=tile_rows,
        tile_cols=tile_cols,
    )


@dataclass(frozen=True)
class BlockEstimate:
    """:func:`price_block`'s result: arrays with one entry per candidate
    row for a block, Python numbers for a single tuple row."""

    c_comp: np.ndarray
    c_actbus: np.ndarray
    c_psumbus: np.ndarray
    c_dram_rd: np.ndarray
    c_dram_wr: np.ndarray
    #: Eqn 12: max of the five terms (their sum without double-buffering).
    c_exe: np.ndarray
    e_wbuf: np.ndarray
    #: Objective 2 balance score (corrected Eqn 13).
    score: np.ndarray
    weight_stalled: np.ndarray
    actbuf_words: np.ndarray
    wbuf_words: np.ndarray
    psumbuf_words: np.ndarray


def _ceil_words(words, words_per_cycle: float):
    """Cycles to move ``words`` at a (possibly fractional) bus width.

    Float floor division of the negated count, on Python ints and on
    int64 arrays alike (NumPy divides in float64): exact while
    words < 2**53.
    """
    cycles = -(-words // words_per_cycle)
    if isinstance(cycles, np.ndarray):
        return cycles.astype(np.int64)
    return int(cycles)


def _times(*tiles: list) -> list:
    """Per-loop product of positional tiles given as column lists."""
    return [prod(column) for column in zip(*tiles)]


def price_block(
    layer: AcceleratedLayer, config: OverlayConfig,
    d1: np.ndarray, d2: np.ndarray, d3: np.ndarray,
    x: np.ndarray, l: np.ndarray, t: np.ndarray,
) -> BlockEstimate:
    """Price a block of candidate mappings (Eqns 7-9, 12-13).

    Each argument is a positional tile per hardware level, loops in
    ``layer.loop_dims()`` order: an ``(n, K)`` int64 array prices ``n``
    candidates (row ``i`` is candidate ``i``) and yields arrays; a
    length-K tuple of ints is the one-row case and yields Python
    numbers.  Both run the same arithmetic below.  Feasibility is not
    checked here.
    """
    dims = layer.loop_dims()
    d1, d2, d3, x, l, t = (
        layer.tile_columns(tile) for tile in (d1, d2, d3, x, l, t)
    )
    x_trips, l_trips = prod(x), prod(l)

    # --- Eqn 7: computation time ------------------------------------- #
    # Double-pump needs >= 2 consecutive MACCs per weight word; a LoopT
    # tile without a non-weight loop cannot provide them.
    non_weight_reuse = prod(c for c, d in zip(t, dims) if not d.in_weights)
    weight_stalled = (non_weight_reuse < 2) & config.double_pump
    c_comp = x_trips * (l_trips * prod(t) * (1 + weight_stalled)
                        + config.pipeline_latency)

    # --- buffer tiles -------------------------------------------------- #
    # ActBUF holds one LoopT tile per TPE.  WBUF holds one LoopX pass's
    # weight slice; slices swap across passes and the layer's full
    # per-TPE slice streams from DRAM once.  PSumBUF holds the outputs
    # accumulated across one LoopX iteration.
    lt = _times(l, t)
    actbuf_words = layer.act_footprint(t)
    wbuf_words = layer.weight_footprint(lt)
    wbuf_stream_words = layer.weight_footprint(_times(x, lt))
    psumbuf_words = layer.out_footprint(lt)

    # --- Eqn 8: ActBUS ------------------------------------------------- #
    # One row broadcast serves all D2 columns; the D1 TPEs of a SuperBlock
    # need distinct reduction slices, so the row tile spans T and D1.
    td1 = _times(t, d1)
    f_act_row = layer.act_footprint(td1)
    c_actbus = _ceil_words(x_trips * l_trips * f_act_row, config.actbus_wpc)

    # --- Eqn 9: PSumBUS ------------------------------------------------ #
    # Accumulating across LoopX passes re-fetches the tile before storing.
    x_maps_reduction = sum(c > 1 for c, d in zip(x, dims) if d.reduction) > 0
    psum_round_trips = 1 + x_maps_reduction
    used_d3, used_d2 = prod(d3), prod(d2)
    c_psumbus = _ceil_words(
        x_trips * used_d3 * psumbuf_words * psum_round_trips,
        config.psumbus_words_per_cycle,
    )

    # --- DRAM ----------------------------------------------------------- #
    # Activations: rows mapping different activation slices each need their
    # own data, captured by the combined (T, D1, D3) tile footprint.
    act_read_words = x_trips * l_trips * layer.act_footprint(_times(td1, d3))
    psum_total = x_trips * used_d2 * used_d3 * psumbuf_words
    psum_reread_words = psum_total * (psum_round_trips - 1)
    # Weight streaming: every stored (possibly duplicated) weight word
    # crosses the DRAM interface once per layer execution — unless the
    # config declares the weights resident (§III-A1 preload).
    stored_words = prod(d1) * used_d2 * used_d3 * wbuf_stream_words
    read_words = act_read_words + psum_reread_words
    if not config.weights_resident:
        read_words = read_words + stored_words
    c_dram_rd = _ceil_words(read_words, config.dram_rd_words_per_cycle())
    c_dram_wr = _ceil_words(psum_total, config.dram_wr_words_per_cycle())

    # --- Eqn 12 and the WBUF efficiency --------------------------------- #
    terms = (c_comp, c_actbus, c_psumbus, c_dram_rd, c_dram_wr)
    c_exe = np.maximum.reduce(terms) if config.double_buffer else sum(terms)
    e_wbuf = np.minimum(layer.weight_words / stored_words, 1.0)
    c_exe_min = max(1, ceil_div(layer.maccs, config.n_tpe))
    return BlockEstimate(
        c_comp=c_comp, c_actbus=c_actbus, c_psumbus=c_psumbus,
        c_dram_rd=c_dram_rd, c_dram_wr=c_dram_wr, c_exe=c_exe,
        e_wbuf=e_wbuf, score=c_exe_min / c_exe + e_wbuf,
        weight_stalled=weight_stalled, actbuf_words=actbuf_words,
        wbuf_words=wbuf_words, psumbuf_words=psumbuf_words,
    )


def evaluate_mapping(
    layer: AcceleratedLayer,
    config: OverlayConfig,
    mapping: MappingVectors,
) -> PerformanceEstimate:
    """Price ``mapping`` for ``layer`` on ``config`` (Eqns 7-9).

    The one-row case of :func:`price_block`.  The mapping is not checked
    for feasibility here; run
    :func:`repro.compiler.constraints.check_constraints` first when the
    mapping comes from outside the scheduler.
    """
    names = [d.name for d in layer.loop_dims()]
    row = price_block(layer, config, *(
        tuple(mapping.trips[level][name] for name in names)
        for level in ("D1", "D2", "D3", "X", "L", "T")
    ))
    return PerformanceEstimate(
        c_comp=row.c_comp, c_actbus=row.c_actbus, c_psumbus=row.c_psumbus,
        c_dram_rd=row.c_dram_rd, c_dram_wr=row.c_dram_wr,
        e_wbuf=float(row.e_wbuf), weight_stalled=row.weight_stalled,
        actbuf_words=row.actbuf_words, wbuf_words=row.wbuf_words,
        psumbuf_words=row.psumbuf_words,
        ewop_accumulate=needs_ewop_reduction(layer, mapping.trips["D3"]),
        useful_maccs=layer.maccs,
        n_tpe=config.n_tpe,
        c_exe_min=max(1, ceil_div(layer.maccs, config.n_tpe)),
        double_buffer=config.double_buffer,
    )
