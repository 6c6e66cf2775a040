"""Unit tests for quantized float counters (paper section 5 rounding)."""

import math

import pytest

from repro.core.errors import InvalidParameterError
from repro.counters.approx_float import (
    FixedQuantizer,
    LevelQuantizer,
    truncate_mantissa,
)


class TestTruncateMantissa:
    def test_truncation_is_one_sided(self):
        for x in (1.0, 3.14159, 1e-9, 123456.789):
            q = truncate_mantissa(x, 8)
            assert q <= x
            assert x <= q * (1 + 2.0**-7)

    def test_zero_passthrough(self):
        assert truncate_mantissa(0.0, 4) == 0.0

    def test_high_bits_identity_for_small_ints(self):
        assert truncate_mantissa(5.0, 30) == 5.0

    def test_powers_of_two_exact_at_one_bit(self):
        assert truncate_mantissa(8.0, 1) == 8.0

    def test_rejects_negative_value_and_bits(self):
        with pytest.raises(InvalidParameterError):
            truncate_mantissa(-1.0, 4)
        with pytest.raises(InvalidParameterError):
            truncate_mantissa(1.0, 0)


class TestLevelQuantizer:
    def test_beta_schedule_decreasing(self):
        q = LevelQuantizer(0.1)
        betas = [q.beta(i) for i in range(1, 10)]
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_total_drift_bounded_by_eps(self):
        # prod (1 + beta_i) <= e**(sum beta_i) <= e**eps for all depths.
        q = LevelQuantizer(0.1)
        assert q.drift_factor(200) <= math.exp(0.1) + 1e-12

    def test_mantissa_bits_grow_logarithmically(self):
        q = LevelQuantizer(0.1)
        assert q.mantissa_bits(100) - q.mantissa_bits(1) <= 2 * math.log2(100) + 2

    def test_quantize_respects_beta(self):
        q = LevelQuantizer(0.2)
        for level in (1, 3, 10):
            x = 1234.5678
            got = q.quantize(x, level)
            assert got <= x <= got * (1 + q.beta(level))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            LevelQuantizer(0.0)
        with pytest.raises(InvalidParameterError):
            LevelQuantizer(0.1).beta(0)


class TestFixedQuantizer:
    def test_uniform_beta(self):
        q = FixedQuantizer(0.1, horizon=1024)
        assert q.beta(1) == q.beta(7) == pytest.approx(0.01)

    def test_drift_within_eps_over_log_depth(self):
        eps = 0.1
        n = 1 << 20
        q = FixedQuantizer(eps, n)
        depth = int(math.log2(n))
        assert q.drift_factor(depth) <= 1 + eps + 0.01

    def test_mantissa_bits_formula(self):
        # log(1/beta) = log(1/eps) + log log N bits, plus the ceil slack.
        q = FixedQuantizer(0.125, horizon=1 << 16)
        assert q.mantissa_bits(1) == pytest.approx(
            1 + math.log2(16 / 0.125), abs=1
        )

    def test_quantize_one_sided(self):
        q = FixedQuantizer(0.2, horizon=256)
        x = 999.25
        got = q.quantize(x, 3)
        assert got <= x <= got * (1 + q.beta(3))

    def test_rejects_bad_horizon(self):
        with pytest.raises(InvalidParameterError):
            FixedQuantizer(0.1, horizon=1)


class TestMemoizedLevelConstants:
    """The per-level caches hold the very floats a fresh computation gives.

    WBMH reads a drift factor for every bucket of every query and a
    mantissa width on every merge, so both quantizers cache them per
    level; the cache must not move a single bit of any bracket.
    """

    @staticmethod
    def _fresh_level(q: LevelQuantizer, level: int) -> tuple[float, int]:
        factor = 1.0
        for i in range(1, level + 1):
            factor *= 1.0 + q.beta(i)
        bits = max(1, math.ceil(1.0 - math.log2(q.beta(level)))) if level else 0
        return factor, bits

    @pytest.mark.parametrize("eps", [0.0111, 0.1, 0.5])
    def test_level_quantizer_cache_is_bit_exact(self, eps):
        # Out of order, and twice: the cache fills on demand.
        q = LevelQuantizer(eps)
        for level in [7, 0, 64, 3, *range(65), 64, 1]:
            factor, bits = self._fresh_level(q, level)
            assert q.drift_factor(level).hex() == factor.hex()
            if level:
                assert q.mantissa_bits(level) == bits

    @pytest.mark.parametrize("horizon", [2, 1000, 1 << 40])
    def test_fixed_quantizer_cache_is_bit_exact(self, horizon):
        q = FixedQuantizer(0.1, horizon)
        beta = 0.1 / math.log2(horizon)
        bits = max(1, math.ceil(1.0 - math.log2(beta)))
        for level in [9, *range(65), 0, 64]:
            assert q.drift_factor(level).hex() == ((1.0 + beta) ** level).hex()
            assert q.mantissa_bits(level) == bits
