"""DynamicOperand correctness: exactness, accounting, cache hygiene.

The dynamic-operand seam is only admissible if (a) a noiseless operand's
GEMV is *exactly* the integer product of its appended codes on every
kernel (reference / fast / fused gemm) and both growth axes, (b) every
appended cell is accounted — initial programs vs re-programs in
:class:`~repro.rram.crossbar.GemvStats`, pulses in the wear ledger's
dynamic channel — (c) partial-region writes invalidate *only* the
operand's own tile: static matrices sharing the backend must keep their
cached stacked planes (object identity, not just value equality), and
(d) one batched read of many operands equals reading each operand alone
through the reference kernel — outputs and every hardware counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rram import (
    SLC,
    CrossbarConfig,
    DynamicOperand,
    FaultModel,
    FaultySimBackend,
    GemvStats,
    KernelPolicy,
    MLC2,
    ProgrammedMatrix,
    SimBackend,
)
from repro.rram.dynamic import batched_gemv

WIDTH = 8
CAPACITY = 20


def _codes(rng: np.random.Generator, t: int) -> np.ndarray:
    return rng.integers(-128, 128, size=(t, WIDTH), dtype=np.int64)


def _inputs(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    return rng.integers(-128, 128, size=(n, dim), dtype=np.int64)


def _operand(grow: str, backend=None, **kwargs) -> DynamicOperand:
    return DynamicOperand(
        CAPACITY,
        WIDTH,
        cell=MLC2,
        grow=grow,
        backend=backend if backend is not None else SimBackend(),
        **kwargs,
    )


class TestExactness:
    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    @pytest.mark.parametrize("mode", ["reference", "fast", "gemm"])
    def test_noiseless_gemv_is_exact_integer_product(self, grow, mode):
        """Chunked appends + every kernel == x @ W.T over the valid prefix."""
        rng = np.random.default_rng(0)
        op = _operand(grow, policy=KernelPolicy(mode=mode))
        rows = []
        for t in (3, 1, 5):
            rows.append(_codes(rng, t))
            op.append(rows[-1])
        dense = np.concatenate(rows)  # (length, WIDTH)
        assert op.length == 9
        if grow == "wordlines":
            x = _inputs(rng, 4, op.length)
            expected = x @ dense
        else:
            x = _inputs(rng, 4, WIDTH)
            expected = x @ dense.T
        out = op.gemv(x)
        np.testing.assert_array_equal(np.asarray(out, dtype=np.int64), expected)

    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    def test_append_after_truncate_overwrites_recycled_rows(self, grow):
        """Recycled rows serve the *new* codes (no stale physical levels)."""
        rng = np.random.default_rng(1)
        op = _operand(grow)
        op.append(_codes(rng, 6))
        op.truncate(2)
        fresh = _codes(rng, 3)
        op.append(fresh)
        x = np.eye(op.length if grow == "wordlines" else WIDTH, dtype=np.int64)
        out = np.asarray(op.gemv(x), dtype=np.int64)
        if grow == "wordlines":
            np.testing.assert_array_equal(out[2:5], fresh)
        else:
            np.testing.assert_array_equal(out[:, 2:5].T, fresh)

    def test_noisy_operand_deviates_but_is_seeded(self):
        """σ > 0 perturbs reads; identical seeds reproduce them exactly."""
        rng_codes = np.random.default_rng(2)
        codes = _codes(rng_codes, 10)
        x = _inputs(rng_codes, 4, 10)
        outs = []
        for _ in range(2):
            op = _operand(
                "wordlines", noise_sigma=0.05, rng=np.random.default_rng(9)
            )
            op.append(codes)
            outs.append(np.asarray(op.gemv(x)))
        np.testing.assert_array_equal(outs[0], outs[1])
        assert np.any(outs[0] != x @ codes)


class TestAccounting:
    def test_watermark_splits_initial_vs_reprogram(self):
        """Rows above the high watermark are initial programs; recycled rows
        are re-programs."""
        rng = np.random.default_rng(3)
        op = _operand("wordlines")
        cells_per_row = WIDTH * op.num_slices
        op.append(_codes(rng, 5))
        assert op.stats.cells_initial_programmed == 5 * cells_per_row
        assert op.stats.cells_reprogrammed == 0
        op.truncate(2)
        op.append(_codes(rng, 4))  # rows 2..5: one above watermark 5
        assert op.stats.cells_initial_programmed == 6 * cells_per_row
        assert op.stats.cells_reprogrammed == 3 * cells_per_row
        assert op.written == 6 and op.length == 6

    def test_explicit_stats_sink_overrides_default(self):
        rng = np.random.default_rng(4)
        op = _operand("bitlines")
        sink = GemvStats()
        op.append(_codes(rng, 2), stats=sink)
        assert sink.cells_initial_programmed == 2 * WIDTH * op.num_slices
        assert op.stats.cells_initial_programmed == 0

    def test_ledger_dynamic_channel_records_appends(self):
        rng = np.random.default_rng(5)
        backend = SimBackend()
        op = _operand("wordlines", backend=backend)
        op.append(_codes(rng, 3))
        op.append(_codes(rng, 1))
        assert backend.ledger.dynamic_writes == 2
        pulses = backend.ledger.dynamic_write_pulses
        assert set(pulses) == {op.tile_id} and pulses[op.tile_id] > 0
        assert backend.health_report()["dynamic_writes"] == 2
        assert op.wear_fraction() > 0.0


class TestCacheHygiene:
    def test_static_stacked_planes_survive_dynamic_appends(self):
        """Partial writes must not invalidate *other* tiles' derived planes."""
        rng = np.random.default_rng(6)
        backend = SimBackend()
        static = ProgrammedMatrix(
            rng.integers(-8, 8, size=(6, 12)).astype(np.float64),
            cell=MLC2,
            backend=backend,
        )
        before = static.stacked_planes()
        op = _operand("wordlines", backend=backend)
        op.append(_codes(rng, 4))
        assert static.stacked_planes() is before

    def test_dynamic_view_reflects_appends_immediately(self):
        """The operand's own derived cache re-keys on every append."""
        rng = np.random.default_rng(7)
        op = _operand("wordlines")
        first = _codes(rng, 3)
        op.append(first)
        x = np.eye(3, dtype=np.int64)
        np.testing.assert_array_equal(np.asarray(op.gemv(x), np.int64), first)
        second = _codes(rng, 2)
        op.append(second)
        x5 = np.eye(5, dtype=np.int64)
        np.testing.assert_array_equal(
            np.asarray(op.gemv(x5), np.int64), np.concatenate([first, second])
        )


class TestValidation:
    def test_bad_construction(self):
        with pytest.raises(ValueError, match="positive"):
            DynamicOperand(0, WIDTH, backend=SimBackend())
        with pytest.raises(ValueError, match="grow"):
            DynamicOperand(4, WIDTH, grow="diagonal", backend=SimBackend())

    def test_append_shape_capacity_and_truncate_bounds(self):
        rng = np.random.default_rng(8)
        op = _operand("wordlines")
        with pytest.raises(ValueError, match="expected"):
            op.append(np.zeros((2, WIDTH + 1), dtype=np.int64))
        with pytest.raises(ValueError, match="capacity"):
            op.append(_codes(rng, CAPACITY + 1))
        op.append(_codes(rng, 2))
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            op.truncate(3)
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            op.truncate(-1)
        assert op.append(np.zeros((0, WIDTH))) == 2  # no-op append

    def test_gemv_guards(self):
        rng = np.random.default_rng(9)
        op = _operand("wordlines")
        with pytest.raises(ValueError, match="empty"):
            op.gemv(np.zeros((1, 1), dtype=np.int64))
        op.append(_codes(rng, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            op.gemv(np.zeros((1, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="signed"):
            op.gemv(np.full((1, 3), 200, dtype=np.int64))


class TestFaultyBackend:
    def test_stuck_cells_are_deterministic_and_ignore_appends(self):
        """Same seed → bit-identical lifetime; stuck cells defy programming."""
        rng = np.random.default_rng(10)
        codes = _codes(rng, 10)
        x = _inputs(rng, 4, 10)
        outs = []
        for _ in range(2):
            backend = FaultySimBackend(
                fault=FaultModel(stuck_off_rate=0.05, stuck_on_rate=0.02), seed=11
            )
            op = _operand("wordlines", backend=backend)
            op.append(codes[:6])
            op.append(codes[6:])
            outs.append(np.asarray(op.gemv(x)))
        np.testing.assert_array_equal(outs[0], outs[1])
        clean = _operand("wordlines")
        clean.append(codes)
        assert np.any(outs[0] != np.asarray(clean.gemv(x)))


#: Small arrays, so ragged lengths span one to three row tiles.
GRID_CONFIG = CrossbarConfig(rows=8, cols=16)
GRID_WIDTH = 12  # > rows: bitline-grown reads span two row tiles too
GRID_LENGTHS = (1, 5, 13, 20)
GRID_SEQS = (1, 3, 2, 4)  # input rows per operand (prefill-shaped reads)


def _grid_operands(grow, cell, noise_sigma, backend, codes_rng, saturate=False):
    """Ragged same-geometry operands, one input block per operand."""
    noise_rng = np.random.default_rng(21)
    operands, inputs = [], []
    for length, seq in zip(GRID_LENGTHS, GRID_SEQS):
        op = DynamicOperand(
            CAPACITY, GRID_WIDTH, cell=cell, grow=grow, noise_sigma=noise_sigma,
            rng=noise_rng, config=GRID_CONFIG, backend=backend,
        )
        for chunk in np.array_split(np.arange(length), 2):
            if chunk.size:
                codes = codes_rng.integers(-128, 128, size=(chunk.size, GRID_WIDTH))
                op.append(np.full_like(codes, 127) if saturate else codes)
        in_features = length if grow == "wordlines" else GRID_WIDTH
        x = codes_rng.integers(-128, 128, size=(seq, in_features))
        inputs.append(np.full_like(x, -1) if saturate else x)
        operands.append(op)
    return operands, inputs


def _reference_loop(operands, inputs):
    """Each operand read alone through the reference kernel, own sinks."""
    sinks = [GemvStats() for _ in operands]
    outs = [
        op.gemv(x, stats=sink, policy=KernelPolicy(mode="reference"))
        for op, x, sink in zip(operands, inputs, sinks)
    ]
    return outs, sinks


def _batched(operands, inputs, mode="fast"):
    """One batched read, each operand charged to a fresh own sink."""
    for op in operands:
        op.stats = GemvStats()
    outs = batched_gemv(operands, inputs, policy=KernelPolicy(mode=mode))
    return outs, [op.stats for op in operands]


class TestBatchedRead:
    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    @pytest.mark.parametrize("cell", [MLC2, SLC], ids=["mlc2", "slc"])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.05], ids=["clean", "noisy"])
    @pytest.mark.parametrize("mode", ["fast", "gemm"])
    def test_batched_equals_per_operand_reference(self, grow, cell, noise_sigma, mode):
        """Ragged, tile-spanning, multi-row reads: bitwise outputs and counters."""
        rng = np.random.default_rng(22)
        operands, inputs = _grid_operands(grow, cell, noise_sigma, SimBackend(), rng)
        ref_outs, ref_stats = _reference_loop(operands, inputs)
        outs, stats = _batched(operands, inputs, mode)
        for got, want, x, op in zip(outs, ref_outs, inputs, operands):
            assert got.shape == (x.shape[0], op.length if grow == "bitlines" else GRID_WIDTH)
            np.testing.assert_array_equal(got, want)
        assert stats == ref_stats
        assert [s.fused_rows for s in stats] == list(GRID_SEQS)

    @pytest.mark.parametrize("grow", ["wordlines", "bitlines"])
    @pytest.mark.parametrize("cell", [MLC2, SLC], ids=["mlc2", "slc"])
    def test_saturating_operand_counts_match(self, grow, cell):
        """Full-scale bitlines clip identically and count per operand."""
        rng = np.random.default_rng(23)
        operands, inputs = _grid_operands(
            grow, cell, 0.0, SimBackend(), rng, saturate=True
        )
        ref_outs, ref_stats = _reference_loop(operands, inputs)
        outs, stats = _batched(operands, inputs)
        for got, want in zip(outs, ref_outs):
            np.testing.assert_array_equal(got, want)
        assert stats == ref_stats
        assert stats[-1].saturated_conversions > 0  # a full 8-row tile of max cells

    def test_all_zero_inputs_read_zero(self):
        rng = np.random.default_rng(24)
        operands, inputs = _grid_operands("wordlines", MLC2, 0.05, SimBackend(), rng)
        zeros = [np.zeros_like(x) for x in inputs]
        ref_outs, ref_stats = _reference_loop(operands, zeros)
        outs, stats = _batched(operands, zeros)
        for got, want in zip(outs, ref_outs):
            np.testing.assert_array_equal(got, want)
            assert not got.any()
        assert stats == ref_stats
        assert all(s.zero_planes_skipped > 0 for s in stats)

    def test_drifted_faulty_backend_is_allclose(self):
        """Drift rescales float32 cells in float64: allclose, like fused gemm."""
        rng = np.random.default_rng(25)
        backend = FaultySimBackend(fault=FaultModel(drift_nu=0.05), seed=3)
        operands, inputs = _grid_operands("wordlines", MLC2, 0.05, backend, rng)
        backend.advance(seconds=30 * 86_400.0)
        ref_outs, ref_stats = _reference_loop(operands, inputs)
        outs, stats = _batched(operands, inputs)
        for got, want in zip(outs, ref_outs):
            np.testing.assert_allclose(got, want, rtol=0.02, atol=64)
        assert [s.adc_conversions for s in stats] == [s.adc_conversions for s in ref_stats]

    def test_shared_sink_and_override_sink(self):
        """A sink shared by all operands, or passed in, gets the summed counts."""
        rng = np.random.default_rng(26)
        operands, inputs = _grid_operands("bitlines", MLC2, 0.0, SimBackend(), rng)
        _, ref_stats = _reference_loop(operands, inputs)
        total = GemvStats()
        for s in ref_stats:
            total.merge(s)
        shared = GemvStats()
        for op in operands:
            op.stats = shared
        batched_gemv(operands, inputs)
        assert shared == total
        override = GemvStats()
        batched_gemv(operands, inputs, stats=override)
        assert override == total and shared == total
        assert override.planes_packed == 8  # the whole block is packed once

    def test_guards(self):
        rng = np.random.default_rng(27)
        operands, inputs = _grid_operands("wordlines", MLC2, 0.0, SimBackend(), rng)
        with pytest.raises(ValueError, match="one input block per operand"):
            batched_gemv(operands, inputs[:-1])
        with pytest.raises(ValueError, match="one input block per operand"):
            batched_gemv([], [])
        other = DynamicOperand(CAPACITY, GRID_WIDTH, grow="bitlines", config=GRID_CONFIG)
        other.append(rng.integers(-128, 128, size=(1, GRID_WIDTH)))
        with pytest.raises(ValueError, match="share"):
            batched_gemv([operands[0], other], [inputs[0], inputs[0]])
        with pytest.raises(ValueError, match="signed"):
            batched_gemv(operands[:1], [np.full_like(inputs[0], 128)])
