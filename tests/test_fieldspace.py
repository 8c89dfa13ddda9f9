import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermodeco import (
    DimensionMismatchError,
    GridMismatchError,
    LatticeField,
    MediumParams,
    NoiseStream,
    NonHermitianError,
    free_energy_change,
    from_modes,
    mean_free_energy,
    parseval_check,
    sample_equilibrium_field,
    to_modes,
    total_energy_change,
    total_energy_fluctuation,
)

UNIT = MediumParams(T0=1.0, c0=1.0, D0=1.0)


def test_constant_field_transform():
    fld = LatticeField(1, (8,), 1.0, np.full(8, 2.5))
    coeff = to_modes(fld)
    assert coeff[0] == pytest.approx(2.5, rel=1e-14)
    assert np.max(np.abs(coeff[1:])) <= 1e-14


def test_nyquist_mode_transform():
    fld = LatticeField(1, (4,), 1.0, np.array([1.0, -1.0, 1.0, -1.0]))
    coeff = to_modes(fld)
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1.0  # Nyquist index
    assert np.max(np.abs(coeff - expected)) <= 1e-14


def test_round_trip_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        fld = LatticeField(2, (6, 4), 0.7, rng.normal(size=(6, 4)))
        back = from_modes(to_modes(fld), fld)
        assert np.max(np.abs(back.values - fld.values)) <= 1e-12
        assert back.spacing == fld.spacing


def test_to_modes_rejects_ensemble():
    ensemble = LatticeField(1, (4,), 1.0, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        to_modes(ensemble)


def test_from_modes_cosine():
    n = 8
    coeff = np.zeros(n, dtype=complex)
    coeff[1] = 0.5
    coeff[-1] = 0.5
    fld = from_modes(coeff, LatticeField.zeros(1, n, 1.0))
    x = np.arange(n)
    assert np.max(np.abs(fld.values - np.cos(2 * np.pi * x / n))) <= 1e-12


def test_from_modes_rejects_non_hermitian():
    coeff = np.zeros(4, dtype=complex)
    coeff[1] = 1.0j  # no conjugate partner
    with pytest.raises(NonHermitianError):
        from_modes(coeff, LatticeField.zeros(1, 4, 1.0))


@pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), (1, 4), ()])
def test_from_modes_rejects_coefficients_shaped_unlike_the_field(shape):
    with pytest.raises(GridMismatchError):
        from_modes(np.zeros(shape, dtype=complex), LatticeField.zeros(1, 4, 1.0))


def test_parseval_examples():
    zero = LatticeField(1, (8,), 1.0, np.zeros(8))
    assert parseval_check(zero) == 0.0
    const = LatticeField(1, (4,), 1.0, np.full(4, 3.0))
    # both sides 4 * 9 = 36 for V = 4
    assert parseval_check(const) <= 1e-14
    rng = np.random.default_rng(1)
    for _ in range(20):
        fld = LatticeField(1, (16,), 0.25, rng.normal(size=16))
        assert parseval_check(fld) <= 1e-12


def test_equilibrium_sampling_determinism():
    tpl = LatticeField.zeros(1, 8, 1.0)
    f1 = sample_equilibrium_field(UNIT, tpl, NoiseStream(5, 2))
    f2 = sample_equilibrium_field(UNIT, tpl, NoiseStream(5, 2))
    assert np.array_equal(f1.values, f2.values)


def test_equilibrium_site_variance():
    tpl = LatticeField.zeros(1, 1, 1.0)
    stream = NoiseStream(3, 0)
    n = 100_000
    draws = sample_equilibrium_field(UNIT, tpl, stream, n).values[:, 0]
    assert abs(np.var(draws, ddof=1) - 1.0) <= 3 * math.sqrt(2.0 / n)


def test_equipartition_mean_free_energy():
    tpl = LatticeField.zeros(1, 16, 0.5)
    p = MediumParams(T0=2.0, c0=3.0, D0=1.0)
    stream = NoiseStream(4, 0)
    n = 20_000
    mean_df = mean_free_energy(p, sample_equilibrium_field(p, tpl, stream, n))
    expected = 16 * p.T0 / 2.0
    stderr = math.sqrt(16 / 2.0) * p.T0 / math.sqrt(n)
    assert abs(mean_df - expected) <= 3 * stderr


def test_total_energy_change_single_site():
    p = MediumParams(T0=1.0, c0=2.0, D0=1.0)
    fld = LatticeField(1, (1,), 0.5, [3.0])
    assert total_energy_change(p, fld) == 3.0  # c0 * a * dT = 2*0.5*3


@pytest.mark.parametrize("call", [
    total_energy_change,
    free_energy_change,
    lambda params, fld: sample_equilibrium_field(params, fld, NoiseStream(0)),
], ids=["total_energy_change", "free_energy_change", "sample_equilibrium_field"])
def test_field_of_another_dimension_than_the_medium_is_refused(call):
    with pytest.raises(DimensionMismatchError, match="field dimension 2 != medium dimension 1"):
        call(UNIT, LatticeField.zeros(2, (4, 4), 1.0))


def test_energy_fluctuation_zero_ensemble():
    tpl = LatticeField.zeros(1, 4, 1.0)
    stats = total_energy_fluctuation(UNIT, tpl.with_values(np.zeros((3, 4))))
    assert stats.variance == 0.0


def test_energy_fluctuation_matches_heat_capacity():
    tpl = LatticeField.zeros(1, 32, 1.0)
    stream = NoiseStream(6, 0)
    n = 20_000
    stats = total_energy_fluctuation(UNIT, sample_equilibrium_field(UNIT, tpl, stream, n))
    assert abs(stats.variance - 32.0) <= 3 * stats.stderr_variance


def test_energy_fluctuation_extensive_in_volume():
    stream = NoiseStream(7, 0)
    n = 40_000
    out = {}
    for size in (16, 32):
        tpl = LatticeField.zeros(1, size, 1.0)
        ensemble = sample_equilibrium_field(UNIT, tpl, stream, n)
        out[size] = total_energy_fluctuation(UNIT, ensemble).variance
    assert out[32] / out[16] == pytest.approx(2.0, rel=0.1)


def test_single_site_energy_variance():
    p = MediumParams(T0=2.0, c0=3.0, D0=1.0)
    tpl = LatticeField.zeros(1, 1, 0.5)
    stream = NoiseStream(8, 0)
    stats = total_energy_fluctuation(p, sample_equilibrium_field(p, tpl, stream, 50_000))
    expected = p.c0 * p.T0 ** 2 * 0.5  # c0 T0^2 a for a single site
    assert abs(stats.variance - expected) <= 3 * stats.stderr_variance


def test_equilibrium_free_energy_positive():
    tpl = LatticeField.zeros(1, 8, 1.0)
    fld = sample_equilibrium_field(UNIT, tpl, NoiseStream(9, 0))
    assert free_energy_change(UNIT, fld) > 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), n=st.integers(2, 20), seed=st.integers(0, 2**32 - 1))
def test_ensemble_matches_per_field_calls(data, d, n, seed):
    extents = tuple(data.draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    spacing = data.draw(st.lists(st.floats(1e-30, 1e30), min_size=d, max_size=d))
    p = MediumParams(T0=1.5, c0=2.0, D0=1.0, d=d)
    tpl = LatticeField.zeros(d, extents, spacing)
    ensemble = sample_equilibrium_field(p, tpl, NoiseStream(seed, 3), n)
    stream = NoiseStream(seed, 3)
    rows = [sample_equilibrium_field(p, tpl, stream) for _ in range(n)]
    assert ensemble.values.shape == (n, *extents)
    assert np.array_equal(ensemble.values, np.stack([fld.values for fld in rows]))
    du, df = total_energy_change(p, ensemble), free_energy_change(p, ensemble)
    assert du.shape == df.shape == (n,)
    assert np.array_equal(du, [total_energy_change(p, fld) for fld in rows])
    assert np.array_equal(df, [free_energy_change(p, fld) for fld in rows])
