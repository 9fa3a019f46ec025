"""Dynamic crossbar operands: runtime-written tensors in analog arrays.

Every :class:`~repro.rram.crossbar.ProgrammedMatrix` in the repo holds a
*static* operand — weights programmed once at deploy time.  This module
generalizes the execution model to a second operand class: a
:class:`DynamicOperand` is a crossbar-resident tensor that *grows at
runtime* through incremental row appends (KV-cache rows written as tokens
decode, streamed MoE expert slices, future NEON LUT banks), read by the
same bit-serial pipeline — SAR-ADC quantization, saturation and op-count
accounting included — as static weights.

The mechanics:

- the operand allocates one full-capacity tile up front (all cells at
  level 0) through :meth:`~repro.rram.backend.CrossbarBackend.program`;
- :meth:`DynamicOperand.append` bit-slices the incoming signed codes with
  the same offset encoding as static weights and writes them through
  :meth:`~repro.rram.backend.CrossbarBackend.program_region` — a partial
  write that costs only the appended cells' write pulses (recorded in the
  :class:`~repro.rram.endurance.WearLedger`'s dynamic channel) and bumps
  only the tile-local ``write_epoch``, leaving every *other* tile's cached
  planes (the static weights' ``stacked_planes``, the ``PlaneCache``) valid;
- reads see only the valid region ``[0, length)``.

Reads are **batched**.  :func:`batched_gemv` reads many same-geometry
operands at once — analog attention issues one call per product (QKᵀ, then
AV) per layer, covering every live row and head.  It zero-pads each
operand's valid cell planes into one stacked plane block, packs the input
bit-planes of every operand once, and runs one ``np.matmul`` over the whole
``(operand, row tile, bit-plane x input row, cells)`` block; one fused ADC
round/clip, the shift-and-add and the offset removal follow, and each
operand's result is sliced back out.  Padded cells and padded input bits
contribute exactly 0 and the ADC maps 0 to 0, so padding changes no code.
Every bitline sum is a sum of exact cell values (integers, or float32
programming-noise draws) accumulated in float64 without rounding, so the
result is bitwise-equal to reading each operand on its own with the
per-operand ``fast`` kernel, and each operand's
:class:`~repro.rram.crossbar.GemvStats` sink is charged the same hardware
counts.  :meth:`DynamicOperand.gemv` is the one-operand case.  Under
``KernelPolicy(mode="reference")`` the batch runs the per-operand
:func:`~repro.rram.kernels.reference_gemv` specification instead.

``grow`` selects the physical growth axis.  ``"wordlines"`` appends input
rows (the AV operand: attention probabilities stream over the wordlines,
values live in the cells); ``"bitlines"`` appends output columns (the QK^T
operand: the query streams over the wordlines, keys live in the cells).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.rram.adc import SarAdc, required_adc_bits
from repro.rram.backend import CrossbarBackend, resolve_backend
from repro.rram.cell import MLC2, CellType
from repro.rram.crossbar import (
    CrossbarConfig,
    GemvStats,
    WeightSlices,
    input_bit_weights,
    slice_weights,
)
from repro.rram.kernels import _POPCOUNT_TABLE, KernelPolicy, resolve_policy, run_gemv

__all__ = ["DynamicOperand", "batched_gemv"]

_GROW_AXES = ("wordlines", "bitlines")


class _DynamicView:
    """Zero-copy view of a dynamic operand's valid region ``[0, length)``.

    Implements the part of the :class:`~repro.rram.crossbar.ProgrammedMatrix`
    duck-type surface that :func:`~repro.rram.kernels.reference_gemv`
    consumes (planes, slices, geometry, ADC), so the reference
    specification reads a dynamic operand without forked kernel code.
    """

    def __init__(self, operand: DynamicOperand) -> None:
        self._op = operand
        self.config = operand.config
        self.adc = operand.adc
        self.in_features, self.out_features = operand._read_shape()

    @property
    def slices(self) -> WeightSlices:
        """Bit-sliced levels of the valid region (same encoding as static)."""
        return WeightSlices(
            values=self._op._valid_region(self._op._tile.ideal_levels),
            cell=self._op.cell,
            weight_bits=self._op.weight_bits,
            offset=self._op.offset,
        )

    @property
    def planes(self) -> np.ndarray:
        """Effective cell planes of the valid region, ``(in, out, n_s)``."""
        return self._op._valid_region(self._op.backend.planes(self._op._tile))


class DynamicOperand:
    """A runtime-growable crossbar operand (append rows, GEMV the prefix).

    One full-capacity tile is allocated at construction (all cells at
    level 0 — the offset-encoded representation of *nothing yet written*;
    the unwritten region is never read because GEMVs run against the
    ``[0, length)`` view).  :meth:`append` writes signed integer code rows
    through the backend's partial-region primitive, :meth:`truncate`
    logically shrinks the operand without touching cells (compaction /
    row recycling), and :meth:`gemv` executes ``x @ W.T`` over the valid
    region through :func:`batched_gemv` — noise, SAR-ADC quantization,
    saturation and op-count accounting included.

    Parameters
    ----------
    capacity:
        Maximum number of appendable rows (tokens, for a KV operand).
    width:
        The fixed operand dimension (``d_head``, for a KV operand).
    cell:
        RRAM cell type the operand's tile uses (default 2-bit MLC — the
        paper's dynamic-data storage class).
    grow:
        ``"wordlines"`` grows the GEMV *input* dimension (the AV operand),
        ``"bitlines"`` the *output* dimension (the QK^T operand).
    weight_bits:
        Signed code width of appended rows (default INT8).
    noise_sigma:
        Programming-noise σ applied to every appended cell (0 = ideal).
    rng:
        Generator for programming-noise draws (default: seeded from 0).
    config / policy / backend:
        Crossbar geometry, kernel policy and execution backend — same
        semantics as :class:`~repro.rram.crossbar.ProgrammedMatrix`.
    stats:
        :class:`~repro.rram.crossbar.GemvStats` instance write and read
        events accumulate into (shareable across operands).
    """

    def __init__(
        self,
        capacity: int,
        width: int,
        cell: CellType = MLC2,
        grow: str = "wordlines",
        weight_bits: int = 8,
        noise_sigma: float = 0.0,
        rng: np.random.Generator | None = None,
        config: CrossbarConfig | None = None,
        policy: KernelPolicy | None = None,
        backend: CrossbarBackend | None = None,
        stats: GemvStats | None = None,
    ) -> None:
        """Allocate the full-capacity zero-level tile on the backend."""
        if capacity < 1 or width < 1:
            raise ValueError("capacity and width must be positive")
        if grow not in _GROW_AXES:
            raise ValueError(f"grow must be one of {_GROW_AXES}, got {grow!r}")
        self.capacity = int(capacity)
        self.width = int(width)
        self.cell = cell
        self.grow = grow
        self.weight_bits = int(weight_bits)
        self.offset = 2 ** (self.weight_bits - 1)
        self.num_slices = -(-self.weight_bits // cell.bits)
        self.noise_sigma = float(noise_sigma)
        self.config = config or CrossbarConfig()
        self.policy = policy
        self.backend = resolve_backend(backend)
        self.stats = stats if stats is not None else GemvStats()
        if grow == "wordlines":
            shape = (self.capacity, self.width, self.num_slices)
        else:
            shape = (self.width, self.capacity, self.num_slices)
        self._tile = self.backend.program(
            np.zeros(shape, dtype=np.int64),
            cell,
            self.noise_sigma,
            rng or np.random.default_rng(0),
            resolve_policy(policy).storage_dtype,
        )
        self.adc = SarAdc(bits=required_adc_bits(self.config.rows, cell.bits))
        self.length = 0  # logical valid rows
        self.written = 0  # high watermark of physically written rows

    # -- region selection ---------------------------------------------------
    def _valid_region(self, array: np.ndarray) -> np.ndarray:
        if self.grow == "wordlines":
            return array[: self.length]
        return array[:, : self.length, :]

    def _read_shape(self) -> tuple[int, int]:
        """``(in_features, out_features)`` of a read of the valid region."""
        if self.grow == "wordlines":
            return self.length, self.width
        return self.width, self.length

    # -- writes -------------------------------------------------------------
    def append(self, codes: np.ndarray, stats: GemvStats | None = None) -> int:
        """Append ``codes`` (``(t, width)`` signed ints) as ``t`` new rows.

        Rows land at logical positions ``[length, length + t)``: bit-sliced
        with the static-weight offset encoding, written through
        :meth:`~repro.rram.backend.CrossbarBackend.program_region` (wear
        ledger's dynamic channel, tile-local invalidation only), and
        accounted in ``stats`` — rows above the high watermark as
        ``cells_initial_programmed``, recycled rows (re-writes after a
        :meth:`truncate`) as ``cells_reprogrammed``.  Returns the new
        logical length.
        """
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        if codes.ndim != 2 or codes.shape[1] != self.width:
            raise ValueError(
                f"expected (t, {self.width}) codes, got shape {codes.shape}"
            )
        t = codes.shape[0]
        if t == 0:
            return self.length
        if self.length + t > self.capacity:
            raise ValueError(
                f"append of {t} rows exceeds capacity "
                f"{self.capacity} (length {self.length})"
            )
        if self.grow == "wordlines":
            # New input rows: values region is (t, width, n_s) = (in, out, n_s).
            values = slice_weights(codes.T, self.cell, self.weight_bits).values
            row_slice = slice(self.length, self.length + t)
            col_slice = slice(0, self.width)
        else:
            # New output columns: values region is (width, t, n_s).
            values = slice_weights(codes, self.cell, self.weight_bits).values
            row_slice = slice(0, self.width)
            col_slice = slice(self.length, self.length + t)
        self.backend.program_region(self._tile, row_slice, col_slice, values)
        cells_per_row = self.width * self.num_slices
        initial_rows = max(0, (self.length + t) - self.written)
        target = stats if stats is not None else self.stats
        target.cells_initial_programmed += initial_rows * cells_per_row
        target.cells_reprogrammed += (t - initial_rows) * cells_per_row
        self.length += t
        self.written = max(self.written, self.length)
        return self.length

    def truncate(self, length: int = 0) -> None:
        """Logically shrink the operand to ``length`` rows (no cell writes).

        Truncated rows keep their physical levels; a later :meth:`append`
        overwrites them (counted as re-programs).  ``length`` may not
        exceed the high watermark — extending past written rows would read
        unwritten cells.
        """
        if not 0 <= length <= self.written:
            raise ValueError(
                f"length must be in [0, {self.written}], got {length}"
            )
        self.length = int(length)

    # -- reads --------------------------------------------------------------
    def gemv(
        self,
        input_codes: np.ndarray,
        input_bits: int = 8,
        stats: GemvStats | None = None,
        policy: KernelPolicy | None = None,
    ) -> np.ndarray:
        """Bit-serial ``x @ W.T`` against the valid region (signed ints).

        ``x`` has ``length`` columns for a wordline-grown operand and
        ``width`` columns for a bitline-grown one; the result's trailing
        dimension is the other of the two.  The one-operand case of
        :func:`batched_gemv`, so noise, ADC clipping and op counts behave
        exactly as for static weights.
        """
        return batched_gemv(
            [self], [input_codes], input_bits, stats=stats, policy=policy
        )[0]

    # -- health -------------------------------------------------------------
    @property
    def tile_id(self) -> int:
        """Backend tile identifier (the wear ledger's key)."""
        return self._tile.tile_id

    def wear_fraction(self) -> float:
        """Fraction of the operand tile's write endurance consumed so far."""
        return self.backend.wear_fraction(self._tile)


def batched_gemv(
    operands: Sequence[DynamicOperand],
    input_codes: Sequence[np.ndarray],
    input_bits: int = 8,
    stats: GemvStats | None = None,
    policy: KernelPolicy | None = None,
) -> list[np.ndarray]:
    """One crossbar read of many same-geometry dynamic operands.

    ``input_codes[i]`` (signed ints, one row per input vector) streams over
    ``operands[i]``'s valid region; returns ``[x_i @ W_i.T]``.  Operands
    must share growth axis, width, cell, weight bits and crossbar geometry;
    lengths and input row counts may differ.  Each operand's read is
    charged to ``stats`` if given, else to its own sink, with exactly the
    hardware counts a read of that operand alone reports.  ``policy``
    (default: the first operand's, then the process-wide one) selects the
    batched read, or the per-operand reference specification for
    ``mode="reference"``.
    """
    if len(operands) == 0 or len(operands) != len(input_codes):
        raise ValueError(
            f"need one input block per operand, got {len(operands)} operands "
            f"and {len(input_codes)} inputs"
        )
    first = operands[0]
    geometry = (first.grow, first.width, first.cell, first.weight_bits, first.config)
    inputs, shapes = [], []
    for op, codes in zip(operands, input_codes):
        if (op.grow, op.width, op.cell, op.weight_bits, op.config) != geometry:
            raise ValueError("batched operands must share grow, width, cell, bits and config")
        if op.length == 0:
            raise ValueError("cannot GEMV an empty dynamic operand")
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        in_features, out_features = op._read_shape()
        if codes.shape[1] != in_features:
            raise ValueError(
                f"shape mismatch: inputs {codes.shape}, "
                f"operand ({out_features}, {in_features})"
            )
        inputs.append(codes)
        shapes.append((codes.shape[0], in_features, out_features))
    flat = np.concatenate([codes.ravel() for codes in inputs])
    half = 2 ** (input_bits - 1)
    if flat.min() < -half or flat.max() >= half:
        raise ValueError(f"input codes exceed the signed {input_bits}-bit range")
    sinks = [stats if stats is not None else op.stats for op in operands]
    policy = resolve_policy(policy if policy is not None else first.policy)
    if policy.mode == "reference":
        return [
            run_gemv(_DynamicView(op), codes, input_bits, stats=sink, policy=policy)
            for op, codes, sink in zip(operands, inputs, sinks)
        ]

    count = len(operands)
    rows = first.config.rows
    num_slices = first.num_slices
    seq_max, in_max, out_max = (max(dim) for dim in zip(*shapes))
    num_tiles = -(-in_max // rows)
    tile_rows = rows if num_tiles > 1 else in_max

    # Zero-padded input block and cell-plane block: padded input bits and
    # padded cells add exactly 0 to every bitline sum, and the ADC maps 0 to
    # code 0, so padding changes no code and no saturation count.
    x = np.zeros((count, seq_max, num_tiles * tile_rows), dtype=np.int64)
    cells = np.zeros((count, num_tiles * tile_rows, out_max, num_slices))
    for i, (op, codes, (seq, in_features, out_features)) in enumerate(
        zip(operands, inputs, shapes)
    ):
        x[i, :seq, :in_features] = codes
        cells[i, :in_features, :out_features] = op._valid_region(
            op.backend.planes(op._tile)
        )

    masked = x & (2**input_bits - 1)
    used = np.bitwise_or.reduce(masked.reshape(count, -1), axis=1)
    union = int(np.bitwise_or.reduce(used))
    kept = np.array([k for k in range(input_bits) if (union >> k) & 1], dtype=np.int64)
    if kept.size:
        # (operand, tile, bit-plane x input row, tile row) @ (operand, tile, tile row, cells)
        lhs = (masked[:, None] >> kept[None, :, None, None]) & 1
        lhs = lhs.reshape(count, kept.size * seq_max, num_tiles, tile_rows)
        lhs = lhs.transpose(0, 2, 1, 3).astype(np.float64)
        sums = np.matmul(lhs, cells.reshape(count, num_tiles, tile_rows, -1))
        first.adc.convert_(sums)  # fused round/clip over the whole block
        saturated = np.count_nonzero(sums == first.adc.full_scale, axis=(1, 2, 3))
        bit_w = input_bit_weights(input_bits).astype(np.float64)[kept]
        adc_codes = sums.reshape(count, num_tiles, kept.size, seq_max, out_max, num_slices)
        acc = np.einsum("ntkbos,k->nbos", adc_codes, bit_w)
        slice_f = 2.0 ** (first.cell.bits * np.arange(num_slices))
        result = np.rint(acc @ slice_f).astype(np.int64)
    else:
        saturated = np.zeros(count, dtype=np.int64)
        result = np.zeros((count, seq_max, out_max), dtype=np.int64)
    result -= first.offset * x.sum(axis=2, keepdims=True)

    # Per-operand hardware counts, identical to a read of each alone.
    seqs, ins, outs = np.array(shapes, dtype=np.int64).T
    tiles = -(-ins // rows)
    counters = {
        "adc_conversions": tiles * seqs * input_bits * outs * num_slices,
        "wordline_activations": _bit_counts(masked, input_bits).sum(axis=(1, 2)) * num_slices,
        "input_cycles": tiles * input_bits,
        "array_tiles": tiles * -(-outs * num_slices // first.config.cols),
        "cells_programmed": ins * outs * num_slices,
        "saturated_conversions": saturated,
        "fused_rows": seqs,
        "zero_planes_skipped": (input_bits - _bit_counts(used, input_bits)) * tiles,
    }
    table = np.stack(list(counters.values()))
    groups: dict[int, tuple[GemvStats, list[int]]] = {}
    for i, sink in enumerate(sinks):
        groups.setdefault(id(sink), (sink, []))[1].append(i)
    for sink, members in groups.values():
        for name, value in zip(counters, table[:, members].sum(axis=1).tolist()):
            setattr(sink, name, getattr(sink, name) + value)
    sinks[0].planes_packed += input_bits  # the whole block is packed once
    return [
        result[i, :seq, :out_features]
        for i, (seq, _, out_features) in enumerate(shapes)
    ]


def _bit_counts(values: np.ndarray, num_bits: int) -> np.ndarray:
    """Elementwise number of set bits among the low ``num_bits`` of ``values``."""
    counts = np.zeros(values.shape, dtype=np.int64)
    for shift in range(0, num_bits, 8):
        counts += _POPCOUNT_TABLE[(values >> shift) & 0xFF]
    return counts
