import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelmc.sampling import (
    LEVEL_BLOCK,
    ExponentialLevelSampler,
    UniformSource,
    _scramble_key,
    exp_cdf,
    inv_exp_cdf,
    moment_mse_experiment,
    radical_inverse_base2,
)


def radical_inverse_oracle(n: int) -> float:
    """Independent digit-by-digit base-2 radical inverse."""
    value, base = 0.0, 0.5
    while n:
        value += (n & 1) * base
        n >>= 1
        base /= 2
    return value


class TestUniformSource:
    def test_pseudo_values_distinct_and_in_range(self):
        src = UniformSource("pseudo", seed=3)
        a, b = src.next_block(1)[0], src.next_block(1)[0]
        assert a != b
        assert 0 <= a < 1 and 0 <= b < 1
        assert src.counter == 2

    def test_equal_seed_equal_stream(self):
        for kind in ("pseudo", "low-discrepancy"):
            x = UniformSource(kind, seed=11).next_block(256)
            y = UniformSource(kind, seed=11).next_block(256)
            assert np.array_equal(x, y)

    def test_different_streams_differ(self):
        x = UniformSource("pseudo", seed=11, stream=0).next_block(16)
        y = UniformSource("pseudo", seed=11, stream=1).next_block(16)
        assert not np.array_equal(x, y)

    def test_blocked_and_scalar_draws_agree(self):
        for kind in ("pseudo", "low-discrepancy"):
            block = UniformSource(kind, seed=5).next_block(32)
            src = UniformSource(kind, seed=5)
            one_by_one = [src.next_block(1)[0] for _ in range(32)]
            assert np.allclose(block, one_by_one)

    def test_unscrambled_matches_radical_inverse_oracle(self):
        src = UniformSource("low-discrepancy", seed=0, scramble=False)
        values = src.next_block(1024)
        expected = [radical_inverse_oracle(n) for n in range(1, 1025)]
        assert np.array_equal(values, expected)

    def test_unscrambled_spot_values(self):
        src = UniformSource("low-discrepancy", seed=0, scramble=False)
        values = src.next_block(3)
        assert values[0] == 0.5  # index 1
        assert values[2] == 0.75  # index 3

    def test_scrambled_values_in_unit_interval(self):
        values = UniformSource("low-discrepancy", seed=123).next_block(4096)
        assert values.min() >= 0.0 and values.max() < 1.0

    @pytest.mark.parametrize("m", [2, 5, 9, 12])
    @pytest.mark.parametrize("seed", [0, 17, 991])
    def test_scrambled_elementary_intervals(self, m, seed):
        # indices 1..2^m occupy each dyadic interval of width 2^-m exactly once
        values = UniformSource("low-discrepancy", seed=seed).next_block(2**m)
        bins = np.floor(values * 2**m).astype(int)
        assert len(np.unique(bins)) == 2**m

    @pytest.mark.parametrize("seed, stream, key", [
        (0, 0, 5197578548964807871),
        (77000, 0, 3824512507822134245),
        (5, (3, 4), 8936480259074463791),
        (2**63 + 5, 1, 11465173710562666375),
    ])
    def test_scramble_keys_pinned(self, seed, stream, key):
        # integer arithmetic: the same key on every platform
        assert _scramble_key(seed, stream) == key

    def test_low_discrepancy_stream_pinned(self):
        # the quasi-random level points of compare's first run and the benchmark
        values = UniformSource("low-discrepancy", seed=77000).next_block(4096)
        assert hashlib.sha256(values.tobytes()).hexdigest() == \
            "3d3aba5a8bafe371fa78d8b40c28a73df9df605e29de884f44395cbbf4d20432"

    def test_counter_is_not_settable(self):
        # a preset counter would move the low-discrepancy stream but not PCG64
        with pytest.raises(TypeError):
            UniformSource("low-discrepancy", seed=1, counter=5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            UniformSource("sobolev", seed=0)

    def test_radical_inverse_index_bound(self):
        with pytest.raises(ValueError):
            radical_inverse_base2([2**32])


class TestInvExpCdf:
    def test_zero_maps_to_zero(self):
        assert inv_exp_cdf(0.0, 1.5) == 0.0

    def test_known_value(self):
        # -ln(0.5) / 1.5
        assert inv_exp_cdf(0.5, 1.5) == pytest.approx(0.46209812037329684, rel=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.9])
    def test_round_trip(self, x):
        assert exp_cdf(inv_exp_cdf(x, 2.3), 2.3) == pytest.approx(x, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            inv_exp_cdf(1.0, 1.0)
        with pytest.raises(ValueError):
            inv_exp_cdf(-0.1, 1.0)
        with pytest.raises(ValueError):
            inv_exp_cdf(0.5, 0.0)

    @given(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True),
           st.floats(0.01, 50))
    @settings(max_examples=200)
    def test_monotone(self, x1, x2, r):
        # adjacent doubles may map to the same level, so only <= holds here
        lo, hi = sorted((x1, x2))
        assert inv_exp_cdf(lo, r) <= inv_exp_cdf(hi, r)

    @given(st.integers(0, 2**32 - 2), st.floats(0.01, 50))
    @settings(max_examples=200)
    def test_strictly_increasing_on_source_grid(self, k, r):
        # the low-discrepancy source emits k * 2^-32; neighbours stay apart
        assert inv_exp_cdf(k * 2.0**-32, r) < inv_exp_cdf((k + 1) * 2.0**-32, r)


class TestExponentialLevelSampler:
    def test_zero_uniform_gives_level_zero(self):
        assert inv_exp_cdf(0.0, 0.37) == 0.0

    def test_draws_reproducible(self):
        a = ExponentialLevelSampler(1.5, UniformSource("pseudo", seed=4))
        b = ExponentialLevelSampler(1.5, UniformSource("pseudo", seed=4))
        assert [a.draw_max_level() for _ in range(64)] == [b.draw_max_level() for _ in range(64)]

    def test_moments_match_exponential(self):
        # exact mean 2/3 and variance 4/9 for rate 1.5
        levels = inv_exp_cdf(UniformSource("low-discrepancy", seed=21).next_block(2**20), 1.5)
        assert levels.mean() == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert levels.var(ddof=1) == pytest.approx(4.0 / 9.0, abs=1e-2)

    def test_levels_nonnegative(self):
        sampler = ExponentialLevelSampler(0.7, UniformSource("pseudo", seed=2))
        assert min(sampler.draw_max_level() for _ in range(1000)) >= 0

    @pytest.mark.parametrize("kind", ["pseudo", "low-discrepancy"])
    def test_buffered_draws_equal_single_draws(self, kind):
        # equal bits across two block boundaries: the sampler serves single
        # draws from blocks, each level must be the one a lone draw gives
        single = UniformSource(kind, seed=77001)
        want = [inv_exp_cdf(single.next_block(1)[0], 1.9) for _ in range(2 * LEVEL_BLOCK + 5)]
        sampler = ExponentialLevelSampler(1.9, UniformSource(kind, seed=77001))
        got = [sampler.draw_max_level() for _ in range(2 * LEVEL_BLOCK + 5)]
        assert all(type(v) is float for v in got)
        assert got == want


class TestMomentMseExperiment:
    def test_requires_multiple_runs(self):
        with pytest.raises(ValueError):
            moment_mse_experiment(1.5, [8], runs=1)

    def test_pseudo_slope_and_lds_gain(self):
        counts = [2**k for k in range(6, 14)]
        rows = moment_mse_experiment(1.5, counts, runs=20, seed=42)
        table = {(r["kind"], r["count"]): r for r in rows}
        x = np.log2(counts)
        pseudo = np.log2([table[("pseudo", c)]["mse_mean"] for c in counts])
        slope = np.polyfit(x, pseudo, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)
        # quasi-random streams estimate the mean far more accurately
        assert (
            table[("low-discrepancy", 2**13)]["mse_mean"]
            < table[("pseudo", 2**13)]["mse_mean"]
        )
