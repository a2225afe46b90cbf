"""Layer definitions and their loop-nest views.

Every accelerated layer exposes its computation as a K-level perfect loop
nest (paper Fig. 4): CONV as six loops, MM as three.  Each loop dimension is
tagged with whether it indexes the weights, the activations, or is a
reduction — those tags drive the adjacency matrix (Fig. 5), the WBUF
efficiency model, and the buffer-footprint functions.

Loop naming follows the paper:

* CONV: ``M`` output channels, ``N`` input channels, ``H``/``W`` output
  rows/columns, ``R``/``S`` kernel rows/columns.
* MM (paper Fig. 5 notation): ``M`` input features (the reduction), ``N``
  output features, ``P`` batch columns.

Host layers (EWOP activations/pooling plus the first-class ELTWISE /
SOFTMAX / NORM kinds added for transformer workloads) run on the host CPU
in the paper's system: they are *accounted* and functionally executed by
:mod:`repro.sim.host`, never scheduled onto the TPE grid, and they
perform **zero MACCs** — the honesty the efficiency analysis depends on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from repro.errors import WorkloadError
from repro.units import OPS_PER_MACC


class LayerKind(enum.Enum):
    CONV = "conv"
    MM = "mm"
    EWOP = "ewop"
    ELTWISE = "eltwise"
    SOFTMAX = "softmax"
    NORM = "norm"


#: Kinds the overlay schedules (MACC loop nests on the TPE grid).
ACCELERATED_KINDS = frozenset({LayerKind.CONV, LayerKind.MM})

#: Kinds the host CPU executes (0 MACCs; accounted, never scheduled).
HOST_KINDS = frozenset({
    LayerKind.EWOP, LayerKind.ELTWISE, LayerKind.SOFTMAX, LayerKind.NORM,
})


@dataclass(frozen=True)
class LoopDim:
    """One dimension of a layer's loop nest.

    Attributes:
        name: Paper loop name (``"M"``, ``"N"``, …).
        size: Trip count (the paper's ``W_k``).
        reduction: True if iterations accumulate into the same output.
        in_weights: True if the dimension indexes the weight tensor.
        in_acts: True if the dimension indexes the input activations.
    """

    name: str
    size: int
    reduction: bool
    in_weights: bool
    in_acts: bool

    @property
    def in_output(self) -> bool:
        """A non-reduction dimension indexes the output tensor."""
        return not self.reduction


class _AcceleratedLayer:
    """Shared accounting interface of CONV and MM layers."""

    name: str
    kind: LayerKind

    def loop_dims(self) -> tuple[LoopDim, ...]:
        raise NotImplementedError

    @cached_property
    def _dims(self) -> tuple[LoopDim, ...]:
        """:meth:`loop_dims`, built once: layers are immutable."""
        return self.loop_dims()

    # ------------------------------------------------------------------ #
    @property
    def loop_sizes(self) -> dict[str, int]:
        """Trip count per loop name (the workload's ``W_k`` vector)."""
        return {d.name: d.size for d in self._dims}

    @property
    def maccs(self) -> int:
        """Total multiply-accumulates (product of all trip counts)."""
        return prod(d.size for d in self._dims)

    @property
    def ops(self) -> int:
        """Arithmetic operations (2 per MACC)."""
        return OPS_PER_MACC * self.maccs

    @property
    def weight_words(self) -> int:
        """Unique weight words (product of weight-indexing trip counts)."""
        return prod(d.size for d in self._dims if d.in_weights)

    @property
    def parameter_words(self) -> int:
        """Weight words that are *model parameters* (stored in the model).

        Layers whose "weight" operand is produced at run time by another
        layer (attention score / mixing matmuls, see
        :attr:`MatMulLayer.weight_source`) still stream ``weight_words``
        through WBUF but contribute nothing to the model's size.
        """
        if getattr(self, "weight_source", None) is not None:
            return 0
        return self.weight_words

    @property
    def output_words(self) -> int:
        """Output tensor size (product of non-reduction trip counts)."""
        return prod(d.size for d in self._dims if d.in_output)

    @property
    def input_words(self) -> int:
        """Input activation tensor size."""
        raise NotImplementedError

    def tile_columns(self, tile) -> list:
        """Per-loop tile sizes in loop-nest order.

        ``tile`` is either a dict from loop name to tile size (missing
        names default to 1) or a *positional* tile: a length-K sequence,
        or an int64 array whose last axis runs over the K loops.  An
        array yields one column per loop, so every footprint below prices
        a whole block of candidate tiles at once.
        """
        if isinstance(tile, dict):
            return [tile.get(d.name, 1) for d in self._dims]
        if isinstance(tile, np.ndarray):
            return [tile[..., i] for i in range(tile.shape[-1])]
        return list(tile)

    def act_footprint(self, tile) -> int:
        """Input-activation words touched by one tile (``f_act`` of Eqn 8).

        ``tile`` is a dict or a positional tile (see :meth:`tile_columns`).
        """
        raise NotImplementedError

    def out_footprint(self, tile) -> int:
        """Output/partial-sum words produced by one tile (``f_psum``)."""
        columns = self.tile_columns(tile)
        return prod(c for c, d in zip(columns, self._dims) if d.in_output)

    def weight_footprint(self, tile) -> int:
        """Weight words required by one tile."""
        columns = self.tile_columns(tile)
        return prod(c for c, d in zip(columns, self._dims) if d.in_weights)

    # ------------------------------------------------------------------ #
    # coordinate maps (used by the cycle simulator and golden checks)
    # ------------------------------------------------------------------ #
    def weight_coord(self, idx: dict[str, int]) -> tuple[int, ...]:
        """Weight-tensor coordinates for one workload index tuple."""
        raise NotImplementedError

    def act_coord(self, idx: dict[str, int]) -> tuple[int, ...]:
        """Input-tensor coordinates; may be out of range (zero padding)."""
        raise NotImplementedError

    def out_coord(self, idx: dict[str, int]) -> tuple[int, ...]:
        """Output-tensor coordinates for one workload index tuple."""
        raise NotImplementedError

    def out_shape(self) -> tuple[int, ...]:
        """Logical output tensor shape."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConvLayer(_AcceleratedLayer):
    """A 2-D convolution layer (K = 6 loop nest), optionally grouped.

    Attributes:
        name: Layer identifier within its network.
        in_channels: Input channels (``N`` spans ``in_channels / groups``).
        out_channels: Output channels (filters) ``M``.
        in_h / in_w: Input spatial size (pre-padding).
        kernel_h / kernel_w: Kernel spatial size ``R`` x ``S``.
        stride: Spatial stride (same in both axes).
        padding: Zero padding on each side.
        groups: Channel groups; ``groups == in_channels == out_channels``
            is a depthwise convolution.  With groups the ``M`` loop also
            selects the input-channel group, so ``M`` stops being
            ActBUS-shareable (see :mod:`repro.compiler.adjacency`).
        weight_group: Weight-tying key; layers sharing a group store one
            copy of their weights (``None`` means the layer's own name).
    """

    name: str
    in_channels: int
    out_channels: int
    in_h: int
    in_w: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    groups: int = 1
    weight_group: str | None = None
    kind: LayerKind = LayerKind.CONV

    def __post_init__(self) -> None:
        positive = (
            self.in_channels, self.out_channels, self.in_h, self.in_w,
            self.kernel_h, self.kernel_w, self.stride, self.groups,
        )
        if min(positive) < 1 or self.padding < 0:
            raise WorkloadError(f"conv layer {self.name!r} has invalid shape")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise WorkloadError(
                f"conv layer {self.name!r}: groups={self.groups} must divide "
                f"both in_channels={self.in_channels} and "
                f"out_channels={self.out_channels}"
            )
        if self.out_h < 1 or self.out_w < 1:
            raise WorkloadError(
                f"conv layer {self.name!r} produces empty output "
                f"({self.out_h}x{self.out_w})"
            )

    @property
    def out_h(self) -> int:
        return (self.in_h + 2 * self.padding - self.kernel_h) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.in_w + 2 * self.padding - self.kernel_w) // self.stride + 1

    @property
    def group_in_channels(self) -> int:
        """Input channels seen by one filter (the ``N`` loop's span)."""
        return self.in_channels // self.groups

    @property
    def group_out_channels(self) -> int:
        """Output channels per group."""
        return self.out_channels // self.groups

    def loop_dims(self) -> tuple[LoopDim, ...]:
        return (
            LoopDim("M", self.out_channels, reduction=False, in_weights=True,
                    in_acts=(self.groups > 1)),
            LoopDim("N", self.group_in_channels, reduction=True,
                    in_weights=True, in_acts=True),
            LoopDim("H", self.out_h, reduction=False, in_weights=False, in_acts=True),
            LoopDim("W", self.out_w, reduction=False, in_weights=False, in_acts=True),
            LoopDim("R", self.kernel_h, reduction=True, in_weights=True, in_acts=True),
            LoopDim("S", self.kernel_w, reduction=True, in_weights=True, in_acts=True),
        )

    @property
    def input_words(self) -> int:
        return self.in_channels * self.in_h * self.in_w

    def act_footprint(self, tile) -> int:
        """Input window for a tile: overlapping rows/columns counted once.

        With groups, an ``M`` tile spans input-channel groups; the
        footprint multiplies by the groups touched (contiguous tile
        assumption — exact for group-aligned tiles, tight otherwise).
        """
        m_t, n_t, h_t, w_t, r_t, s_t = self.tile_columns(tile)
        rows = (h_t - 1) * self.stride + r_t
        cols = (w_t - 1) * self.stride + s_t
        footprint = n_t * rows * cols
        if self.groups > 1:
            touched = -(-m_t // self.group_out_channels)
            footprint = footprint * (
                np.minimum(touched, self.groups)
                if isinstance(touched, np.ndarray)
                else min(touched, self.groups)
            )
        return footprint

    def weight_coord(self, idx: dict[str, int]) -> tuple[int, ...]:
        return (idx["M"], idx["N"], idx["R"], idx["S"])

    def act_coord(self, idx: dict[str, int]) -> tuple[int, ...]:
        group = idx["M"] // self.group_out_channels if self.groups > 1 else 0
        return (
            group * self.group_in_channels + idx["N"],
            idx["H"] * self.stride + idx["R"] - self.padding,
            idx["W"] * self.stride + idx["S"] - self.padding,
        )

    def out_coord(self, idx: dict[str, int]) -> tuple[int, ...]:
        return (idx["M"], idx["H"], idx["W"])

    def out_shape(self) -> tuple[int, ...]:
        return (self.out_channels, self.out_h, self.out_w)

    def act_in_range(self, coord: tuple[int, ...]) -> bool:
        """Whether an activation coordinate lies inside the (unpadded)
        input tensor; out-of-range reads return zero (padding)."""
        n, ih, iw = coord
        return (
            0 <= n < self.in_channels
            and 0 <= ih < self.in_h
            and 0 <= iw < self.in_w
        )


@dataclass(frozen=True)
class MatMulLayer(_AcceleratedLayer):
    """A matrix-multiply layer (K = 3): ``out[N, P] = W[N, M] @ act[M, P]``.

    Fully connected layers have ``batch = 1``; LSTM gate computations fold
    their four gates into ``out_features``.  Attention workloads set
    ``weight_source``: the "weight" matrix is then another layer's run-time
    output (K for the score matmul, the softmaxed scores for the mixing
    matmul).  Such layers schedule and stream exactly like weighted MMs —
    the overlay stages the operand into WBUF either way — but they hold no
    stored parameters (``parameter_words == 0``).
    """

    name: str
    in_features: int
    out_features: int
    batch: int = 1
    weight_group: str | None = None
    weight_source: str | None = None
    kind: LayerKind = LayerKind.MM

    def __post_init__(self) -> None:
        if min(self.in_features, self.out_features, self.batch) < 1:
            raise WorkloadError(f"mm layer {self.name!r} has invalid shape")
        if self.weight_source is not None and self.weight_group is not None:
            raise WorkloadError(
                f"mm layer {self.name!r}: a run-time weight_source cannot "
                f"join a stored weight_group"
            )

    def loop_dims(self) -> tuple[LoopDim, ...]:
        return (
            LoopDim("M", self.in_features, reduction=True, in_weights=True, in_acts=True),
            LoopDim("N", self.out_features, reduction=False, in_weights=True, in_acts=False),
            LoopDim("P", self.batch, reduction=False, in_weights=False, in_acts=True),
        )

    @property
    def input_words(self) -> int:
        return self.in_features * self.batch

    def act_footprint(self, tile) -> int:
        m_t, _, p_t = self.tile_columns(tile)
        return m_t * p_t

    def weight_coord(self, idx: dict[str, int]) -> tuple[int, ...]:
        return (idx["N"], idx["M"])

    def act_coord(self, idx: dict[str, int]) -> tuple[int, ...]:
        return (idx["M"], idx["P"])

    def out_coord(self, idx: dict[str, int]) -> tuple[int, ...]:
        return (idx["N"], idx["P"])

    def out_shape(self) -> tuple[int, ...]:
        return (self.out_features, self.batch)

    def act_in_range(self, coord: tuple[int, ...]) -> bool:
        m, p = coord
        return 0 <= m < self.in_features and 0 <= p < self.batch


@dataclass(frozen=True)
class EwopLayer:
    """An element-wise host-CPU layer (activation, residual add, …).

    Attributes:
        name: Layer identifier.
        op: Operation mnemonic (``"relu"``, ``"add"``, ``"sigmoid"``, …).
        n_elements: Elements processed.
        ops_per_element: Arithmetic operations charged per element.
        params: Optional execution parameters as (name, value) pairs —
            e.g. a pooling layer's ``kernel``/``stride``/``padding`` — used
            by the host-CPU executor; accounting ignores them.
    """

    name: str
    op: str
    n_elements: int
    ops_per_element: int = 1
    params: tuple[tuple[str, int], ...] = ()
    kind: LayerKind = LayerKind.EWOP

    def param(self, name: str, default: int | None = None) -> int:
        """Look up one execution parameter.

        Raises:
            WorkloadError: if absent and no default is given.
        """
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise WorkloadError(
                f"ewop layer {self.name!r} has no parameter {name!r}"
            )
        return default

    def __post_init__(self) -> None:
        if self.n_elements < 0 or self.ops_per_element < 1:
            raise WorkloadError(f"ewop layer {self.name!r} has invalid size")

    @property
    def ops(self) -> int:
        return self.n_elements * self.ops_per_element

    @property
    def maccs(self) -> int:
        """EWOPs run on the host: zero overlay MACCs, honestly."""
        return 0

    @property
    def weight_words(self) -> int:
        return 0

    @property
    def parameter_words(self) -> int:
        return 0


def PoolLayer(
    name: str,
    channels: int,
    in_h: int,
    in_w: int,
    kernel: int,
    stride: int,
    padding: int = 0,
    op: str = "pool_max",
) -> EwopLayer:
    """Build the EWOP accounting entry for a pooling layer.

    Pooling runs on the host CPU (Table I counts it under EWOP); each output
    element costs ``kernel**2`` compare/add operations.
    """
    out_h = (in_h + 2 * padding - kernel) // stride + 1
    out_w = (in_w + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise WorkloadError(f"pool layer {name!r} produces empty output")
    return EwopLayer(
        name=name,
        op=op,
        n_elements=channels * out_h * out_w,
        ops_per_element=kernel * kernel,
        params=(("kernel", kernel), ("stride", stride), ("padding", padding)),
    )


# --------------------------------------------------------------------- #
# first-class host layers (transformer suite)
# --------------------------------------------------------------------- #

#: Reserved :attr:`EltwiseLayer.source` naming the network's own input.
NETWORK_INPUT = "@input"

#: Operations charged per element of a fixed-point softmax (max-subtract,
#: shift decompose, pow2 interpolation, normalize divide, clamp).
SOFTMAX_OPS_PER_ELEMENT = 5

#: Operations charged per element of an integer layernorm (mean subtract,
#: square, two reductions amortized, isqrt share, scale divide, clamp).
NORM_OPS_PER_ELEMENT = 6


class _HostLayerBase:
    """Shared interface of the first-class host layer kinds.

    These layers operate on ``(n_features, batch)`` int16 activation
    tensors — the same layout an MM layer's output ``(N, P)`` carries —
    and run on the host CPU (:mod:`repro.sim.host`).  They expose the
    same introspection surface as accelerated layers (``loop_dims`` /
    coordinate maps / ``out_shape``) so tests can check the vectorized
    host kernels against naive per-element enumerators, but they perform
    **zero MACCs**: the overlay never schedules them and the efficiency
    analysis must not credit them with TPE work.
    """

    name: str
    kind: LayerKind
    n_features: int
    batch: int

    @property
    def n_elements(self) -> int:
        return self.n_features * self.batch

    #: Operations charged per output element; subclasses override.
    ops_per_element: int = 1

    @property
    def ops(self) -> int:
        return self.n_elements * self.ops_per_element

    @property
    def maccs(self) -> int:
        """Host layers perform no overlay MACCs."""
        return 0

    @property
    def weight_words(self) -> int:
        return 0

    @property
    def parameter_words(self) -> int:
        return 0

    def loop_dims(self) -> tuple[LoopDim, ...]:
        """The element lattice: ``F`` features x ``B`` batch columns.

        Neither dimension is a *MACC* reduction (there is no weight
        operand); SOFTMAX/NORM additionally reduce along ``F`` inside
        each batch column to form their normalizers.
        """
        return (
            LoopDim("F", self.n_features, reduction=False,
                    in_weights=False, in_acts=True),
            LoopDim("B", self.batch, reduction=False,
                    in_weights=False, in_acts=True),
        )

    @property
    def loop_sizes(self) -> dict[str, int]:
        return {d.name: d.size for d in self.loop_dims()}

    def act_coord(self, idx: dict[str, int]) -> tuple[int, int]:
        """Input-tensor coordinates for one element index."""
        return (idx["F"], idx["B"])

    def out_coord(self, idx: dict[str, int]) -> tuple[int, int]:
        """Output-tensor coordinates (host layers are shape-preserving)."""
        return (idx["F"], idx["B"])

    def out_shape(self) -> tuple[int, int]:
        return (self.n_features, self.batch)

    def _validate_shape(self) -> None:
        if min(self.n_features, self.batch) < 1:
            raise WorkloadError(
                f"{self.kind.value} layer {self.name!r} has invalid shape"
            )


@dataclass(frozen=True)
class EltwiseLayer(_HostLayerBase):
    """An element-wise binary layer (residual add, gating multiply).

    Attributes:
        name: Layer identifier.
        op: ``"add"`` (saturating int16 sum) or ``"mul"`` (int16 product
            arithmetically right-shifted by ``shift``, then saturated).
        n_features / batch: Tensor shape ``(n_features, batch)``.
        source: Name of the earlier layer whose *output* supplies the
            second operand, or :data:`NETWORK_INPUT` for the network's
            input tensor (the transformer residual path).  ``None``
            means the caller passes the operand explicitly.
        shift: Right shift applied to ``mul`` products (fixed-point
            rescale); ignored for ``add``.
    """

    name: str
    op: str
    n_features: int
    batch: int = 1
    source: str | None = None
    shift: int = 0
    kind: LayerKind = LayerKind.ELTWISE

    #: Both eltwise ops are one arithmetic operation per element.
    ops_per_element = 1

    def __post_init__(self) -> None:
        self._validate_shape()
        if self.op not in ("add", "mul"):
            raise WorkloadError(
                f"eltwise layer {self.name!r}: unknown op {self.op!r}"
            )
        if self.shift < 0:
            raise WorkloadError(
                f"eltwise layer {self.name!r}: shift must be >= 0"
            )

    def src_coord(self, idx: dict[str, int]) -> tuple[int, int]:
        """Second-operand coordinates (element-aligned with the input)."""
        return (idx["F"], idx["B"])


@dataclass(frozen=True)
class SoftmaxLayer(_HostLayerBase):
    """A fixed-point softmax along the feature axis of each batch column.

    The kernel is a base-2 softmax computed entirely in integer
    arithmetic (max-subtract, power-of-two decomposition with linear
    interpolation of the fractional part, integer normalization), so it
    is bit-reproducible across platforms — see
    :func:`repro.sim.host.softmax_q15`.  Outputs are Q15 probabilities.

    Attributes:
        name: Layer identifier.
        n_features: Softmax width (attention keys, or classes).
        batch: Independent columns (attention queries, or batch).
        frac_bits: Fractional bits of the logit scale — logits are read
            as Q\\ ``frac_bits`` fixed point, i.e. the temperature is
            ``2**frac_bits``.
    """

    name: str
    n_features: int
    batch: int = 1
    frac_bits: int = 5
    kind: LayerKind = LayerKind.SOFTMAX

    ops_per_element = SOFTMAX_OPS_PER_ELEMENT

    def __post_init__(self) -> None:
        self._validate_shape()
        if not 0 <= self.frac_bits <= 14:
            raise WorkloadError(
                f"softmax layer {self.name!r}: frac_bits out of range"
            )


@dataclass(frozen=True)
class LayerNormLayer(_HostLayerBase):
    """An integer layernorm along the feature axis of each batch column.

    Mean and variance use exact floor division, the standard deviation is
    an exact integer square root, and the normalized output is scaled to
    Q\\ ``out_frac_bits`` — all integer, all bit-reproducible (see
    :func:`repro.sim.host.layernorm_int16`).  The affine gamma/beta pair
    is folded into the adjacent projection weights, as inference
    deployments do with batch norm.

    Attributes:
        name: Layer identifier.
        n_features: Normalization width (``d_model``).
        batch: Independent columns (sequence positions x batch).
        out_frac_bits: Fractional bits of the normalized output scale.
    """

    name: str
    n_features: int
    batch: int = 1
    out_frac_bits: int = 7
    kind: LayerKind = LayerKind.NORM

    ops_per_element = NORM_OPS_PER_ELEMENT

    def __post_init__(self) -> None:
        self._validate_shape()
        if not 0 <= self.out_frac_bits <= 14:
            raise WorkloadError(
                f"norm layer {self.name!r}: out_frac_bits out of range"
            )
