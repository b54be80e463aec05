"""Property-based tests (hypothesis) on core invariants."""

import collections
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.cim import AdcSpec, CimMacro, MacroConfig
from repro.cim.macro import _bit_planes, plane_weights
from repro.eval.detection import iou, iou_matrix
from repro.nn import functional as F
from repro.nn.tensor import Tensor, unbroadcast
from repro.quant import QuantSpec, dequantize, quantize

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestQuantProperties:
    @given(finite_arrays, st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_error_within_half_step(self, values, bits):
        spec = QuantSpec(bits=bits)
        codes, scale = quantize(values, spec)
        recon = dequantize(codes, scale)
        # Values inside the symmetric range reconstruct within scale/2;
        # the most negative extreme may clip by at most one step.
        assert np.abs(recon - values).max() <= float(scale) + 1e-9

    @given(finite_arrays, st.integers(2, 12))
    @example(np.array([5e-324, 0.0]), 3)  # max|x| / qmax underflows to 0
    @settings(max_examples=60, deadline=None)
    def test_codes_in_declared_range(self, values, bits):
        spec = QuantSpec(bits=bits)
        codes, _ = quantize(values, spec)
        assert codes.min() >= spec.qmin
        assert codes.max() <= spec.qmax

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_quantization_idempotent(self, values):
        spec = QuantSpec(bits=8)
        codes, scale = quantize(values, spec)
        recon = dequantize(codes, scale)
        codes2, scale2 = quantize(recon, spec)
        np.testing.assert_allclose(dequantize(codes2, scale2), recon, atol=1e-9)

    @given(
        st.integers(2, 8),
        hnp.arrays(
            dtype=np.int64,
            shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.integers(-128, 127),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_planes_reconstruct(self, bits, codes):
        codes = np.clip(codes, -(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
        planes, weights = _bit_planes(codes, bits, signed=True)
        recon = np.einsum("k,k...->...", weights, planes)
        np.testing.assert_array_equal(recon, codes)


class TestIouProperties:
    boxes = st.tuples(
        st.floats(0, 0.8), st.floats(0, 0.8), st.floats(0.05, 0.2), st.floats(0.05, 0.2)
    ).map(lambda t: np.array([t[0], t[1], t[0] + t[2], t[1] + t[3]]))

    @given(boxes, boxes)
    @settings(max_examples=100, deadline=None)
    def test_iou_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(boxes, boxes)
    @settings(max_examples=100, deadline=None)
    def test_iou_in_unit_interval(self, a, b):
        value = iou(a, b)
        assert 0.0 <= value <= 1.0 + 1e-12

    @given(boxes)
    @settings(max_examples=50, deadline=None)
    def test_iou_self_is_one(self, a):
        assert abs(iou(a, a) - 1.0) < 1e-9

    @given(st.lists(boxes, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_iou_matrix_consistent_with_scalar(self, box_list):
        boxes = np.stack(box_list)
        matrix = iou_matrix(boxes, boxes)
        for i in range(len(boxes)):
            assert abs(matrix[i, i] - 1.0) < 1e-9
            for j in range(len(boxes)):
                assert abs(matrix[i, j] - iou(boxes[i], boxes[j])) < 1e-9


class TestTensorProperties:
    small = hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(-10, 10, allow_nan=False),
    )

    @given(small)
    @settings(max_examples=50, deadline=None)
    def test_sum_gradient_is_ones(self, values):
        t = Tensor(values, requires_grad=True)
        t.sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones_like(values))

    @given(small, small)
    @settings(max_examples=50, deadline=None)
    def test_addition_commutes(self, a, b):
        if a.shape != b.shape:
            return
        left = (Tensor(a) + Tensor(b)).data
        right = (Tensor(b) + Tensor(a)).data
        np.testing.assert_array_equal(left, right)

    @given(small)
    @settings(max_examples=50, deadline=None)
    def test_relu_idempotent(self, values):
        once = F.relu(Tensor(values)).data
        twice = F.relu(Tensor(once)).data
        np.testing.assert_array_equal(once, twice)

    @given(small)
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_sum_to_one(self, values):
        if values.ndim != 2:
            return
        probs = F.softmax(Tensor(values), axis=1).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(values.shape[0]), rtol=1e-9)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, values):
        target_shape = (1,) + values.shape[1:]
        grad = np.broadcast_to(np.ones(target_shape), values.shape).copy()
        reduced = unbroadcast(grad, target_shape)
        assert reduced.shape == target_shape
        assert reduced.sum() == grad.sum()


class TestMacroProperties:
    @given(
        st.integers(1, 31),  # rows (full_scale <= levels-1 keeps ADC exact)
        st.integers(1, 4),  # logical cols
        st.integers(0, 3),  # data seed
    )
    @settings(max_examples=40, deadline=None)
    def test_macro_exact_when_adc_resolves_rows(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        config = MacroConfig(
            rows=rows if rows > 0 else 1,
            phys_columns=32,
            n_adcs=16,
            adc=AdcSpec(bits=5),
            signed_inputs=True,
        )
        weights = rng.integers(-128, 128, size=(rows, min(cols, config.logical_columns)))
        macro = CimMacro(config, weights)
        x = rng.integers(-128, 128, size=(rows, 2))
        out, _ = macro.matmul(x)
        np.testing.assert_array_equal(out, macro.exact_matmul(x))

    @given(st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_energy_monotone_in_vectors(self, seed):
        rng = np.random.default_rng(seed)
        config = MacroConfig()
        macro = CimMacro(config, rng.integers(-8, 8, size=(64, 8)))
        x1 = rng.integers(0, 32, size=(64, 1))
        x2 = np.concatenate([x1, x1], axis=1)
        _, s1 = macro.matmul(x1)
        _, s2 = macro.matmul(x2)
        assert s2.total_energy_fj > s1.total_energy_fj
        assert s2.macs == 2 * s1.macs


# -- chaos fault schedules ---------------------------------------------

from repro.chaos import FaultEvent, FaultSchedule, generate_schedule
from repro.chaos.schedule import (
    ADC_DRIFT,
    BITLINE_NOISE,
    LINK_DEGRADE,
    SHARD_DEATH,
)


@st.composite
def fault_events(draw):
    """Valid FaultEvents across every kind and firing mode."""
    kind = draw(st.sampled_from((SHARD_DEATH, LINK_DEGRADE, ADC_DRIFT, BITLINE_NOISE)))
    by_index = draw(st.booleans())
    kwargs = {
        "kind": kind,
        "at_index": draw(st.integers(0, 256)) if by_index else None,
        "at_chip_ns": (
            None
            if by_index
            else draw(st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False))
        ),
        "label": draw(st.sampled_from(("", "a", "ramp-1"))),
    }
    if kind in (SHARD_DEATH, LINK_DEGRADE):
        kwargs["shard"] = draw(st.integers(0, 7))
    else:
        kwargs["shard"] = draw(st.one_of(st.none(), st.integers(0, 7)))
    if kind == SHARD_DEATH:
        kwargs["drop"] = draw(st.integers(0, 4))
    else:
        kwargs["duration"] = draw(st.one_of(st.none(), st.integers(1, 64)))
    if kind in (ADC_DRIFT, BITLINE_NOISE):
        kwargs["magnitude"] = draw(
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
        )
    if kind == ADC_DRIFT:
        kwargs["gain_slope"] = draw(
            st.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False)
        )
    if kind == LINK_DEGRADE:
        kwargs["latency_factor"] = draw(
            st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False, exclude_min=True)
        )
        kwargs["energy_factor"] = draw(
            st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False, exclude_min=True)
        )
    return FaultEvent(**kwargs)


fault_schedules = st.builds(
    FaultSchedule,
    seed=st.integers(0, 2**31 - 1),
    events=st.lists(fault_events(), max_size=8).map(tuple),
)


class TestFaultScheduleProperties:
    @given(fault_schedules)
    @settings(max_examples=60, deadline=None)
    def test_serialization_round_trip_identity(self, schedule):
        # meta round trip is exact (events are frozen dataclasses with
        # value equality), and the JSON text itself is stable.
        assert FaultSchedule.from_meta(schedule.to_meta()) == schedule
        restored = FaultSchedule.from_json(schedule.to_json())
        assert restored == schedule
        assert restored.to_json() == schedule.to_json()

    @given(fault_schedules)
    @settings(max_examples=60, deadline=None)
    def test_normalization_sorts_and_is_idempotent(self, schedule):
        normalized = schedule.normalized()
        keys = [e.firing_key() for e in normalized.events]
        assert keys == sorted(keys)
        # Stable sort: idempotent, and a second normalization returns
        # the very same object (the no-op fast path).
        assert normalized.normalized() is normalized
        # Same multiset of events — normalization reorders, never edits.
        assert sorted(map(id, normalized.events)) == sorted(
            map(id, schedule.events)
        )

    @given(fault_schedules, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_event_order_invariance_under_shuffle(self, schedule, rnd):
        # Normalizing any permutation yields the same firing-key order;
        # ties (stable sort) preserve the permuted insertion order, so
        # compare the sorted key sequences and the event multiset.
        shuffled = list(schedule.events)
        rnd.shuffle(shuffled)
        from dataclasses import replace

        permuted = replace(schedule, events=tuple(shuffled)).normalized()
        assert [e.firing_key() for e in permuted.events] == [
            e.firing_key() for e in schedule.normalized().events
        ]
        assert sorted(permuted.events, key=repr) == sorted(
            schedule.events, key=repr
        )

    @given(
        st.integers(0, 2**16),
        st.integers(1, 64),
        st.integers(1, 8),
        st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_schedules_monotone_and_replayable(
        self, seed, n_batches, n_shards, n_events
    ):
        schedule = generate_schedule(
            seed, n_batches=n_batches, n_shards=n_shards, n_events=n_events
        )
        indexes = [e.at_index for e in schedule.events]
        assert all(i is not None for i in indexes)
        assert indexes == sorted(indexes)  # firing-point monotonicity
        assert all(0 <= i < n_batches for i in indexes)
        # Same seed, same draw — generation is replayable.
        again = generate_schedule(
            seed, n_batches=n_batches, n_shards=n_shards, n_events=n_events
        )
        assert again == schedule


# -- vector-axis blocking of the fast kernel ----------------------------

from unittest import mock

from repro.cim import CimTiledMatmul
from repro.runtime.backends import (
    TiledBitSerialKernel,
    available_backends,
    get_backend,
    reference_fast,
)


@st.composite
def blocked_kernel_cases(draw):
    """A tiled engine, a batch and a block budget small enough that the
    batch spans several blocks: ragged row blocks and column tiles, both
    input signednesses, identity and non-identity ADC transfer."""
    rows = draw(st.integers(1, 300))
    cols = draw(st.integers(1, 70))
    signed = draw(st.booleans())
    adc_bits = draw(st.sampled_from((4, 5, 8)))
    seed = draw(st.integers(0, 2**16))
    # Vectors per block for the first (tallest) row block, then n
    # around its multiples.
    step = draw(st.sampled_from((5, 16, 33)))
    n = draw(st.integers(0, 4)) * step + draw(st.integers(-2, 19))
    return rows, cols, signed, adc_bits, seed, step, max(n, 1)


def _engine_and_batch(case):
    """The drawn engine, a full-range batch, and the tile walk's answer."""
    rows, cols, signed, adc_bits, seed, _, n = case
    rng = np.random.default_rng(seed)
    config = MacroConfig(signed_inputs=signed, adc=AdcSpec(bits=adc_bits))
    engine = CimTiledMatmul(rng.integers(-128, 128, size=(rows, cols)), config)
    low, high = config.input_range()
    x = rng.integers(low, high + 1, size=(rows, n))
    return engine, x, engine.matmul(x)


class TestVectorBlockProperties:
    @given(blocked_kernel_cases())
    @settings(max_examples=40, deadline=None)
    def test_blocked_kernel_matches_tiled_reference(self, case):
        step = case[5]
        engine, x, (ref, ref_stats) = _engine_and_batch(case)
        config = engine.config
        kernel = TiledBitSerialKernel(engine)
        stacked = kernel._groups[0].planes32.shape[-2]
        ib = config.input_bits
        budget = stacked * ib * 8 * step
        with mock.patch.object(reference_fast, "_BLOCK_BYTES", budget):
            assert reference_fast._block_vectors(stacked, ib) == step
            for _ in range(2):  # a call leaves no state behind
                out, stats = kernel.matmul(x)
                assert out.tobytes() == ref.tobytes()
                assert stats == ref_stats

    @given(blocked_kernel_cases())
    @settings(max_examples=25, deadline=None)
    def test_every_registered_backend_matches_tiled_reference(self, case):
        engine, x, (ref, ref_stats) = _engine_and_batch(case)
        for name in available_backends():
            # Built by name, as the performance ledger builds them.
            kernel = get_backend(name)(engine)
            for _ in range(2):  # a call leaves no state behind
                out, stats = kernel.matmul(x)
                assert out.tobytes() == ref.tobytes(), name
                assert stats == ref_stats, name


# -- shift-and-add over integer ADC codes --------------------------------

from hypothesis import find

from repro.cim import BitlineModel


@st.composite
def shift_add_cases(draw):
    """A multi-tile engine — ragged last column tile, a row count that
    does not divide the tile, so its last row block is shorter than the
    tile and read at its own radix — over the bit widths (odd weight and
    input widths included), tile heights on both sides of the
    three-digit bound (256 rows hold two weight bits per plane entry
    from 3-bit weights up), ADC resolutions, weight and input signedness
    and bit-line saturation that shape the digit table, with a batch of
    one to three vector blocks.  One draw in three saturates: all-ones
    weights under all-ones activations, every bit line of every section
    counting ``rows``."""
    wb = draw(st.sampled_from((1, 2, 3, 4, 5, 8)))
    ib = draw(st.sampled_from((1, 2, 3, 4, 5, 7, 8)))
    tile_rows = draw(st.sampled_from((8, 32, 128, 256)))
    tile_cols = draw(st.sampled_from((2, 4, 16)))
    config = MacroConfig(
        rows=tile_rows,
        phys_columns=tile_cols * wb,
        weight_bits=wb,
        input_bits=ib,
        signed_weights=draw(st.booleans()),
        signed_inputs=draw(st.booleans()),
        adc=AdcSpec(bits=draw(st.sampled_from((2, 3, 5, 8)))),
        bitline=BitlineModel(
            max_rows=tile_rows, saturation=draw(st.sampled_from((None, 0.5)))
        ),
    )
    rows = draw(st.integers(1, 2)) * tile_rows + draw(st.integers(1, tile_rows - 1))
    cols = draw(st.integers(1, 2)) * tile_cols + draw(st.integers(1, tile_cols - 1))
    step = draw(st.sampled_from((3, 8)))
    n = draw(st.integers(1, 3 * step))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.sampled_from((False, False, True))):
        # Two's complement -1, or the top unsigned code: every bit set.
        weights = np.full((rows, cols), -1 if config.signed_weights else 2**wb - 1)
        x = np.full((rows, n), -1 if config.signed_inputs else config.input_range()[1])
    else:
        low, high = config.weight_range()
        weights = rng.integers(low, high + 1, size=(rows, cols))
        low, high = config.input_range()
        x = rng.integers(low, high + 1, size=(rows, n))
    return CimTiledMatmul(weights, config), x, step


#: What reading weight bits as base-``R`` digits adds, as the generated
#: cases must reach it.
DIGIT_CASES = {
    "three weight bits per plane entry",
    "the two-bit fallback past the three-digit bound",
    "a top section shorter than the digit count, at 8 bits",
    "a top section shorter than the digit count, at an odd width",
    "a signed weight's top section",
    "a row block shorter than the tile, at its own radix",
    "every digit = rows",
}


def _probe_digits(kernel, reached):
    """Decode every table index the kernel's row blocks are handed — by
    section offset ``q * R**d``, then ``d`` base-``R`` digits, lowest
    first, at the block's own ``R = rows + 1`` — and count which of
    :data:`DIGIT_CASES` the call reached."""
    config = kernel.engine.config
    wb = config.weight_bits

    def spy(group):
        real = group.shift_add
        rows, radix, d = group.row_stop - group.row_start, group.radix, group.digits
        assert radix == rows + 1
        top = -(-wb // d) - 1
        top_bits = wb - d * top  # the top section's weight bits

        def shift_add(indices, out):
            section, rest = np.divmod(np.asarray(indices, dtype=np.int64), radix**d)
            digits = []
            for _ in range(d):
                rest, digit = np.divmod(rest, radix)
                digits.append(digit)
            assert section.max() <= top
            assert max(digit.max() for digit in digits) <= rows
            # A short top section has no higher digits to set.
            on_top = section == top
            assert not any(digit[on_top].any() for digit in digits[top_bits:])
            if d == 3:
                reached["three weight bits per plane entry"] += 1
            if d == 2 and wb >= 3:
                reached["the two-bit fallback past the three-digit bound"] += 1
            if top_bits < d:
                width = "at 8 bits" if wb == 8 else "at an odd width" if wb % 2 else ""
                if width:
                    reached[f"a top section shorter than the digit count, {width}"] += 1
            # The top section's highest digit holds the MSB of the code.
            if config.signed_weights and digits[top_bits - 1][on_top].any():
                reached["a signed weight's top section"] += 1
            if rows < config.rows:
                reached["a row block shorter than the tile, at its own radix"] += 1
            full = (section < top) | (top_bits == d)
            if d >= 2 and (full & np.logical_and.reduce([c == rows for c in digits])).any():
                reached["every digit = rows"] += 1
            real(indices, out)

        group.shift_add = shift_add

    for group in kernel._groups:
        spy(group)


def _block_budget(kernel, step):
    """``_BLOCK_BYTES`` at which the tallest row block runs ``step``
    vectors per block."""
    stacked = max(group.planes32.shape[-2] for group in kernel._groups)
    return stacked * kernel.engine.config.input_bits * 8 * step


def _cut_changes_bytes(matmul, x):
    """Whether any cut of the vector axis changes a byte: the whole
    batch's columns against every prefix's and every suffix's own call."""
    whole = matmul(x)[0]
    return any(
        whole[:, :cut].tobytes() != matmul(x[:, :cut])[0].tobytes()
        or whole[:, cut:].tobytes() != matmul(x[:, cut:])[0].tobytes()
        for cut in range(1, x.shape[1])
    )


def _float_table_mutant(engine):
    """The kernel with the digit table swapped for the reconstructed
    float counts ``codes * step`` it replaced (and ``step`` folded in)."""
    kernel = TiledBitSerialKernel(engine)
    for group in kernel._groups:
        group.pair_table = group.pair_table.astype(np.float64) * group.step
        group.section_ones = group.section_ones.astype(np.float64)
        group.input_weights = group.input_weights.astype(np.float64)
        group.step = 1.0
    return kernel


def _short_radix_mutant(engine):
    """The kernel reading each row block's weight-bit digits at radix
    ``rows`` instead of ``rows + 1``: within a section ``sum_j c_j *
    rows**j``, where a full bit line (``c_j = rows``) below the top digit
    carries into the next.  Every entry no carry reaches moves to its new
    index intact; the section offsets stay."""
    kernel = TiledBitSerialKernel(engine)
    wb = engine.config.weight_bits
    for group in kernel._groups:
        radix, d = group.radix, group.digits
        mutant = np.zeros_like(group.pair_table)
        for low in range(0, wb, d):
            k, offset = min(d, wb - low), low // d * radix**d
            entries = np.arange(radix**k)
            rest, index, unaliased = entries, offset, True
            for j in range(k):
                rest, digit = np.divmod(rest, radix)
                index = index + digit * (radix - 1) ** j
                if j < k - 1:
                    unaliased = unaliased & (digit < radix - 1)
            mutant[index[unaliased]] = group.pair_table[offset + entries[unaliased]]
        group.pair_table = mutant
        # sum_j b_j * R**j -> sum_j b_j * (R - 1)**j; the section offsets
        # in the last column stay.
        rest = group.planes32[..., :-1].astype(np.int64)
        planes = group.planes32.copy()
        planes[..., :-1] = 0
        for j in range(d):
            rest, digit = np.divmod(rest, radix)
            planes[..., :-1] += digit * (radix - 1) ** j
        group.planes32 = planes
    return kernel


def _unsigned_fold_mutant(engine):
    """The kernel folding a signed code's input bits with the unsigned
    code's plane weights: the MSB weighs ``+2**(ib - 1)``."""
    kernel = TiledBitSerialKernel(engine)
    unsigned = plane_weights(engine.config.input_bits, False)
    for group in kernel._groups:
        group.input_weights = unsigned.astype(group.input_weights.dtype)
    return kernel


class TestShiftAddProperties:
    def test_backends_match_tiled_reference(self):
        reached = collections.Counter()

        @given(shift_add_cases())
        @settings(max_examples=80, deadline=None, derandomize=True)
        def run(case):
            engine, x, step = case
            ref, ref_stats = engine.matmul(x)
            for name in available_backends():
                kernel = get_backend(name)(engine)
                if name == "reference-fast":
                    _probe_digits(kernel, reached)
                with mock.patch.object(
                    reference_fast, "_BLOCK_BYTES", _block_budget(kernel, step)
                ):
                    out, stats = kernel.matmul(x)
                assert out.tobytes() == ref.tobytes(), name
                assert stats == ref_stats, name

        run()
        assert DIGIT_CASES - {case for case, n in reached.items() if n} == set()

    @given(shift_add_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_cutting_the_vector_axis_changes_no_byte(self, case):
        engine, x, step = case
        kernel = TiledBitSerialKernel(engine)
        with mock.patch.object(
            reference_fast, "_BLOCK_BYTES", _block_budget(kernel, step)
        ):
            assert not _cut_changes_bytes(kernel.matmul, x)
        tile = engine.tiles[0]
        assert not _cut_changes_bytes(
            tile.macro.matmul, x[tile.row_start : tile.row_stop]
        )

    def test_float_table_mutant_is_not_cut_invariant(self):
        """The property above has teeth: over the same strategy, the old
        float table breaks it on some drawn case."""

        def breaks(case):
            engine, x, _ = case
            return _cut_changes_bytes(_float_table_mutant(engine).matmul, x)

        engine, x, _ = find(
            shift_add_cases(),
            breaks,
            settings=settings(max_examples=200, deadline=None, derandomize=True),
        )
        # The witness is the table, not the harness: unmutated, it holds.
        assert not _cut_changes_bytes(TiledBitSerialKernel(engine).matmul, x)

    @pytest.mark.parametrize("mutant", [_short_radix_mutant, _unsigned_fold_mutant])
    def test_pairing_mutants_do_not_match_the_reference(self, mutant):
        """So has the first: a row block's radix one short of ``rows +
        1`` and signed input bits folded with the unsigned plane weights
        each differ from the tile walk on some drawn case."""

        def differs(case):
            engine, x, _ = case
            return mutant(engine).matmul(x)[0].tobytes() != engine.matmul(x)[0].tobytes()

        engine, x, _ = find(
            shift_add_cases(),
            differs,
            settings=settings(max_examples=200, deadline=None, derandomize=True),
        )
        # The witness is the mutation: unmutated, the same case matches.
        assert (
            TiledBitSerialKernel(engine).matmul(x)[0].tobytes()
            == engine.matmul(x)[0].tobytes()
        )


class TestPairTable:
    """The table-level statement of what one gather returns."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("weight_bits", [1, 2, 5, 8])
    @pytest.mark.parametrize(
        "rows,tile_radix", [(8, 9), (5, 9), (128, 129), (256, 257)]
    )
    def test_every_entry_is_the_weighted_code_pair(
        self, rows, tile_radix, weight_bits, signed
    ):
        """A ``rows``-row block of a ``tile_radix - 1``-row tile reads its
        own radix ``rows + 1``, ``d`` weight bits per section — 1, 2 or 3
        below the three-digit bound, 2 past it (256 rows) — and every
        entry is its digits' weighted codes."""
        config = MacroConfig(
            rows=tile_radix - 1, phys_columns=16 * weight_bits, weight_bits=weight_bits,
            signed_weights=signed, adc=AdcSpec(bits=3),
        )
        table, step = reference_fast._pair_table(config, rows)
        code, oracle_step = config.adc.convert(
            config.bitline.observe(np.arange(rows + 1.0), None), float(rows)
        )
        assert step == oracle_step
        radix, d = rows + 1, min(weight_bits, 2 if rows == 256 else 3)
        sections = -(-weight_bits // d)
        # Full sections of R**d entries, a top one of R**(bits left).
        assert table.size == (sections - 1) * radix**d + radix ** (
            weight_bits - (sections - 1) * d
        )
        # A short top section's missing bits weigh nothing.
        weights = np.zeros(sections * d)
        weights[:weight_bits] = plane_weights(weight_bits, signed)
        section, rest = np.divmod(np.arange(table.size), radix**d)
        expected = np.zeros(table.size)
        for j in range(d):
            rest, digit = np.divmod(rest, radix)
            expected += weights[d * section + j] * code[digit]
        assert table.dtype == np.float32
        assert table.tobytes() == expected.astype(np.float32).tobytes()

    def test_tables_are_shared_and_read_only(self):
        config = MacroConfig()
        signed = MacroConfig(signed_inputs=True, wl_energy_fj=1.0)
        table, _ = reference_fast._pair_table(config, 128)
        assert reference_fast._pair_table(signed, 128)[0] is table
        assert not table.flags.writeable
        engines = [
            CimTiledMatmul(np.zeros((200, 3), dtype=int), c) for c in (config, signed)
        ]
        first, second = (TiledBitSerialKernel(engine)._groups for engine in engines)
        assert [g.pair_table is h.pair_table for g, h in zip(first, second)] == [True] * 2
        assert first[0].pair_table is table and first[1].pair_table is not table

    def test_cache_bytes_stay_within_the_bound(self):
        """The shared cache is bounded by bytes, not entries: over many
        circuits' 17.2 MB tables (128 rows, 8-bit weights) it keeps the
        most recent that fit :data:`_TABLE_CACHE_BYTES`, a table past
        the bound is built and never kept, and an evicted table is
        rebuilt equal."""
        cache = reference_fast._shared_pair_table
        cache.cache_clear()
        try:
            circuits = [
                MacroConfig(adc=AdcSpec(bits=bits), signed_weights=signed)
                for bits in (2, 3, 4, 5, 6, 7, 8)
                for signed in (False, True)
            ]
            tables = []
            for config in circuits:
                table, _ = reference_fast._pair_table(config, 128)
                tables.append(table)
                assert 0 < cache.nbytes <= reference_fast._TABLE_CACHE_BYTES
                assert reference_fast._pair_table(config, 128)[0] is table
            kept = reference_fast._TABLE_CACHE_BYTES // tables[0].nbytes
            assert kept < len(circuits)
            assert cache.nbytes == kept * tables[0].nbytes
            rebuilt, _ = reference_fast._pair_table(circuits[0], 128)
            assert rebuilt is not tables[0]
            assert rebuilt.tobytes() == tables[0].tobytes()
            with mock.patch.object(cache, "max_bytes", tables[0].nbytes - 1):
                cache.cache_clear()
                table, _ = reference_fast._pair_table(circuits[1], 128)
                assert cache.nbytes == 0
                assert reference_fast._pair_table(circuits[1], 128)[0] is not table
        finally:
            cache.cache_clear()

    def test_cache_shared_by_threads_keeps_its_byte_count(self):
        """Kernels are built on whichever thread runs a layer first:
        six threads over a budget of a few small tables, under a short
        switch interval, leave the cache's byte count equal to the bytes
        it holds and within the bound, and every table a key returned
        equal to a fresh build."""
        import sys
        import threading

        cache = reference_fast._shared_pair_table
        circuits = [
            (MacroConfig(adc=AdcSpec(bits=bits)), rows)
            for bits in (3, 5, 8)
            for rows in (9, 16, 27, 40)
        ]
        budget = 3 * reference_fast._pair_table(*circuits[-1])[0].nbytes
        seen = collections.defaultdict(list)

        def work(seed):
            order = np.random.default_rng(seed).permutation(len(circuits) * 4)
            for i in order % len(circuits):
                seen[i].append(reference_fast._pair_table(*circuits[i])[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(cache, "max_bytes", budget):
                cache.cache_clear()
                threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                held = sum(table.nbytes for table, _ in cache._tables.values())
                assert cache.nbytes == held <= budget
        finally:
            sys.setswitchinterval(interval)
            cache.cache_clear()
        assert sorted(seen) == list(range(len(circuits)))
        for i, tables in seen.items():
            fresh = reference_fast._pair_table(*circuits[i])[0]
            assert all(table.tobytes() == fresh.tobytes() for table in tables)
        cache.cache_clear()


# -- grouped convolutions executed per layer -----------------------------

from repro import nn
from repro.cim import PulseWidthEncoding, cim_conv2d, reference_cim_conv2d
from repro.runtime import EngineCache, RuntimeConfig, compile_model


@st.composite
def grouped_layer_cases(draw):
    """One grouped convolution and a batch for it.

    Geometry with a stride above the kernel, padding and odd spatial
    sizes; a per-group sign pattern (all-unsigned, all-signed, mixed,
    one all-zero group); ADC widths on both sides of the integer-LUT and
    identity-LUT lines; subarrays small enough that a group spans
    several row blocks and column tiles; a noisy bit line or a pulse
    encoding to force the per-group macro path; a vector-block budget
    small enough that the stacked GEMM -> gather splits the batch.
    """
    groups = draw(st.integers(2, 8))
    icg = draw(st.integers(1, 3))
    ocg = draw(st.integers(1, 3))
    kernel = draw(st.sampled_from((1, 3, 3)))
    conv = dict(
        stride=draw(st.sampled_from((1, 2, 3))),
        padding=draw(st.integers(0, 2)),
        groups=groups,
    )
    hw = draw(st.sampled_from((3, 5, 7)))
    batch = draw(st.sampled_from((1, 3)))
    signs = draw(st.sampled_from(("unsigned", "signed", "mixed", "zero-group")))
    # Which back half runs: the stacked kernel (twice as often), each
    # group's macro path under noise, or under a pulse encoding.
    path = draw(st.sampled_from(("stacked", "stacked", "noisy", "pulse")))
    macro = dict(
        adc=AdcSpec(bits=draw(st.sampled_from((2, 3, 5, 8)))),
        # K = icg * kernel**2 reaches 27 and ocg 3: 4 rows x 2 logical
        # columns forces multi-tile groups, 128 x 32 keeps one tile.
        rows=draw(st.sampled_from((4, 16, 128))),
        phys_columns=draw(st.sampled_from((16, 256))),
        bitline=BitlineModel(noise_sigma_counts=0.5 if path == "noisy" else 0.0),
    )
    encoding = None
    if path == "pulse":
        signs = "unsigned"  # pulse encodings cannot drive negative inputs
        encoding = PulseWidthEncoding(jitter_sigma_slots=0.25)

    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    weight = rng.normal(size=(groups * ocg, icg, kernel, kernel))
    x = rng.normal(size=(batch, groups * icg, hw, hw))
    channels = x.reshape(batch, groups, icg, hw, hw)
    if signs == "unsigned":
        np.abs(x, out=x)
    elif signs == "mixed":
        np.abs(channels[:, ::2], out=channels[:, ::2])
    elif signs == "zero-group":
        channels[:, draw(st.integers(0, groups - 1))] = 0.0
    block_bytes = draw(st.sampled_from((4 << 20, 4096, 1024)))
    return x, weight, conv, macro, encoding, block_bytes


def _assert_same_bytes(out, ref):
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.flags.c_contiguous
    assert out.tobytes() == ref.tobytes()


class TestGroupedLayerProperties:
    """The layer-level grouped pass equals the per-group reference:
    outputs (shape, dtype, bytes, layout) and ``MacroStats``."""

    def test_functional_shim_matches_reference(self):
        reached = collections.Counter()
        pass_matmul = TiledBitSerialKernel.matmul

        def matmul(kernel, codes):
            # Per-group signedness is the input-bit fold's plane weights:
            # one vector for the stack, or one row per group.
            weights = kernel._groups[0].input_weights
            if len(kernel._ranges) > 1:  # a grouped layer's stack, not a lone group
                reached["one signedness"] += weights.ndim == 1
                if weights.ndim == 2:
                    top = weights[:, -1]
                    reached["mixed-signedness stack"] += bool(top.min() != top.max())
            return pass_matmul(kernel, codes)

        @given(grouped_layer_cases())
        @settings(max_examples=200, deadline=None, derandomize=True)
        def run(case):
            x, weight, conv, macro, encoding, block_bytes = case
            ref, ref_stats = reference_cim_conv2d(
                x, weight, config=MacroConfig(**macro), encoding=encoding,
                rng=np.random.default_rng(3), **conv,
            )
            with mock.patch.object(reference_fast, "_BLOCK_BYTES", block_bytes):
                out, stats = cim_conv2d(
                    x, weight, config=MacroConfig(**macro), encoding=encoding,
                    rng=np.random.default_rng(3), cache=EngineCache(), **conv,
                )
            _assert_same_bytes(out, ref)
            assert stats == ref_stats

        with mock.patch.object(TiledBitSerialKernel, "matmul", matmul):
            run()
        assert reached["one signedness"] and reached["mixed-signedness stack"]

    @given(grouped_layer_cases())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_compiled_layer_matches_reference(self, case):
        x, weight, conv, macro, encoding, block_bytes = case
        layer = nn.Conv2d(
            x.shape[1], weight.shape[0], weight.shape[2], bias=False, **conv
        )
        layer.weight.data = weight
        layer.weight.requires_grad = False  # ROM placement
        compiled = compile_model(
            nn.Sequential(layer),
            RuntimeConfig(rom_config=MacroConfig(**macro), encoding=encoding),
            cache=EngineCache(),
        )
        ref, ref_stats = reference_cim_conv2d(
            x, weight, config=MacroConfig(**macro), encoding=encoding,
            rng=np.random.default_rng(3), **conv,
        )
        for _ in range(2):  # cold, then from the kept stack
            with mock.patch.object(reference_fast, "_BLOCK_BYTES", block_bytes):
                out, stats = compiled.run(x, rng=np.random.default_rng(3))
            _assert_same_bytes(out, ref)
            assert stats == ref_stats


# -- the layer pass quantizes the feature map, not its patches -----------


def _read_pixels(h, w, kernel, stride, padding):
    """Flat indices of the pixels some window reads, by brute force: the
    im2col of an image of pixel numbers (padding reads as 0)."""
    numbers = np.arange(1.0, h * w + 1).reshape(1, 1, h, w)
    cols, _ = F.im2col(numbers, (kernel,) * 2, (stride,) * 2, (padding,) * 2)
    return np.unique(cols[cols > 0]).astype(int) - 1


#: What a window-coverage case plants in the batch.
PLANTS = ("none", "max-unread", "negative-unread", "nan-unread", "nan-read")


@st.composite
def window_coverage_cases(draw):
    """A convolution whose windows may miss pixels (stride above the
    kernel, trailing rows and columns, windows over padding alone) or
    produce no output, and a batch with one planted value: the largest
    |x| or the only negative value in a pixel no window reads, a NaN in
    an unread pixel, or a NaN in a read one."""
    kernel = draw(st.sampled_from((1, 2, 3, 5)))
    stride = draw(st.sampled_from((1, 2, 3)))
    padding = draw(st.sampled_from((0, 1, 2)))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    layout = draw(st.sampled_from(("one group", "two groups", "depthwise")))
    if layout == "two groups":
        groups, channels = 2, 2 * draw(st.integers(1, 2))
    else:
        channels = draw(st.integers(1, 3))
        groups = 1 if layout == "one group" else channels
    ocg = draw(st.integers(1, 2))
    batch = draw(st.integers(1, 2))
    plant = draw(st.sampled_from(PLANTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.normal(size=(batch, channels, h, w))
    weight = rng.normal(size=(groups * ocg, channels // groups, kernel, kernel))
    if plant == "negative-unread":
        np.abs(x, out=x)
    empty = min(h, w) + 2 * padding < kernel
    read = [] if empty else _read_pixels(h, w, kernel, stride, padding)
    unread = np.setdiff1d(np.arange(h * w), read)
    pool = read if plant == "nan-read" else unread
    if plant == "none" or not len(pool):
        plant = "none"
    else:
        pixel = np.unravel_index(pool[draw(st.integers(0, len(pool) - 1))], (h, w))
        where = (draw(st.integers(0, batch - 1)), draw(st.integers(0, channels - 1)))
        value = {
            "max-unread": 10.0 * np.abs(x).max() + 1.0,
            "negative-unread": -1.0,
        }.get(plant, np.nan)
        x[where + pixel] = value
    conv = dict(stride=stride, padding=padding, groups=groups)
    return x, weight, conv, "empty" if empty else plant


def _conv_outcome(conv, x, weight, **kwargs):
    """The output's shape, dtype, bytes and ``MacroStats`` — or the text
    of the ``ValueError`` the call raised."""
    try:
        with np.errstate(invalid="ignore"):
            out, stats = conv(x, weight, **kwargs)
    except ValueError as error:
        return "ValueError: " + str(error)
    return out.shape, out.dtype, out.tobytes(), stats


class TestFeatureMapQuantization:
    """The layer pass quantizes the pixels some window reads and
    im2cols their codes; the reference quantizes the im2col patches.
    Outputs, ``MacroStats`` and errors are the same."""

    def test_window_coverage_matches_reference(self):
        reached = collections.Counter()

        @given(window_coverage_cases())
        @settings(max_examples=300, deadline=None, derandomize=True)
        def run(case):
            x, weight, conv, plant = case
            reached[plant] += 1
            ours = _conv_outcome(
                lambda *a, **k: cim_conv2d(*a, cache=EngineCache(), **k),
                x, weight, **conv,
            )
            ref = _conv_outcome(reference_cim_conv2d, x, weight, **conv)
            assert ours == ref
            if plant == "nan-unread":
                assert not isinstance(ours, str)
            if plant == "empty":
                assert "output would be empty" in ours

        run()
        assert set(reached) == set(PLANTS) | {"empty"}, reached

    def test_largest_value_never_read(self):
        """A 1x1 stride-2 conv reads every other pixel: the largest |x|
        and the only negative value sit in pixels it skips."""
        rng = np.random.default_rng(8)
        x = rng.random((2, 4, 6, 6))
        x[0, 1, 1, 1] = 50.0
        x[1, 2, 3, 3] = -1.0
        weight = rng.normal(size=(4, 4, 1, 1))
        for groups in (1, 2):
            conv = dict(stride=2, padding=0, groups=groups)
            w = np.ascontiguousarray(weight[:, : 4 // groups])
            ours = _conv_outcome(
                lambda *a, **k: cim_conv2d(*a, cache=EngineCache(), **k),
                x, w, **conv,
            )
            assert ours == _conv_outcome(reference_cim_conv2d, x, w, **conv)

    @pytest.mark.parametrize("bits", [2, 4, 8, 12, 15, 16])
    @pytest.mark.parametrize("signs", ["unsigned", "signed", "mixed"])
    def test_activation_widths_match_reference(self, bits, signs):
        """The fast path's narrowed codes hold every code of either
        signedness at each activation width: the largest |x| of a group
        quantizes to its top code."""
        seen = []
        pass_matmul = TiledBitSerialKernel.matmul

        def matmul(kernel, codes):
            seen.append(codes.dtype)
            return pass_matmul(kernel, codes)

        rng = np.random.default_rng(bits)
        x = rng.normal(size=(2, 4, 5, 5))
        if signs == "unsigned":
            np.abs(x, out=x)
        elif signs == "mixed":
            np.abs(x[:, ::2], out=x[:, ::2])
        weight = rng.normal(size=(4, 1, 3, 3))
        for groups, w in ((4, weight), (1, rng.normal(size=(3, 4, 3, 3)))):
            if groups == 1 and signs == "mixed":
                continue
            conv = dict(stride=1, padding=1, groups=groups, activation_bits=bits)
            with mock.patch.object(TiledBitSerialKernel, "matmul", matmul):
                ours = _conv_outcome(
                    lambda *a, **k: cim_conv2d(*a, cache=EngineCache(), **k),
                    x, w, **conv,
                )
            assert ours == _conv_outcome(reference_cim_conv2d, x, w, **conv)
        assert seen and all(np.iinfo(dtype).bits < 64 for dtype in seen)
