import numpy as np
import pytest

from thermodeco import (
    DimensionMismatchError,
    LatticeField,
    MediumParams,
    SingularModeError,
    coupling_constant,
    equilibrium_mode_variance,
    free_energy_change,
    free_energy_hessian,
    noise_strength,
    relaxation_rate,
)

UNIT = MediumParams(T0=1.0, c0=1.0, D0=1.0)
P243 = MediumParams(T0=2.0, c0=4.0, D0=0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        MediumParams(T0=0.0, c0=1.0, D0=1.0)
    with pytest.raises(ValueError):
        MediumParams(T0=1.0, c0=-1.0, D0=1.0)
    with pytest.raises(ValueError):
        MediumParams(T0=1.0, c0=1.0, D0=1.0, d=4)


def test_relaxation_rate_values():
    assert relaxation_rate(UNIT, 1.0) == 1.0
    assert relaxation_rate(P243, 3.0) == 1.125
    assert relaxation_rate(P243, 0.0) == 0.0


def test_noise_strength_values():
    assert noise_strength(UNIT, 1.0) == 1.0
    assert noise_strength(P243, 3.0) == 1.125
    assert noise_strength(UNIT, 0.0) == 0.0


def test_coupling_constant_values():
    assert coupling_constant(UNIT, 1.0) == 1.0
    assert coupling_constant(P243, 3.0) == pytest.approx(16.0 / 9.0, rel=1e-15)
    with pytest.raises(SingularModeError):
        coupling_constant(UNIT, 0.0)


def test_coupling_noise_product_is_T0():
    rng = np.random.default_rng(1)
    for _ in range(50):
        T0, c0, D0 = rng.uniform(0.1, 10.0, 3)
        k = rng.uniform(0.01, 20.0)
        p = MediumParams(T0=T0, c0=c0, D0=D0)
        assert coupling_constant(p, k) * noise_strength(p, k) == pytest.approx(T0, rel=1e-14)


def test_equilibrium_mode_variance():
    assert equilibrium_mode_variance(UNIT) == 1.0
    assert equilibrium_mode_variance(P243) == 1.0
    assert equilibrium_mode_variance(MediumParams(T0=3.0, c0=2.0, D0=1.0)) == 4.5


def test_einstein_relation_closure():
    rng = np.random.default_rng(2)
    for _ in range(50):
        T0, c0, D0 = rng.uniform(0.1, 10.0, 3)
        k = rng.uniform(0.01, 20.0)
        p = MediumParams(T0=T0, c0=c0, D0=D0)
        ratio = noise_strength(p, k) / relaxation_rate(p, k)
        assert ratio == pytest.approx(equilibrium_mode_variance(p), rel=1e-12)


def test_k_squared_scaling():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = rng.uniform(0.01, 10.0)
        assert relaxation_rate(P243, 2 * k) == pytest.approx(4 * relaxation_rate(P243, k), rel=1e-14)
        assert noise_strength(P243, 2 * k) == pytest.approx(4 * noise_strength(P243, k), rel=1e-14)


def test_lattice_field_validation():
    fld = LatticeField(2, (4, 3), 0.5, np.zeros((4, 3)))
    assert fld.n_sites == 12
    assert fld.volume == pytest.approx(4 * 0.5 * 3 * 0.5)
    with pytest.raises(ValueError):
        LatticeField(1, (0,), 1.0, [])
    with pytest.raises(ValueError):
        LatticeField(1, (2,), -1.0, [0.0, 0.0])


def test_free_energy_change_examples():
    assert free_energy_change(UNIT, LatticeField(1, (4,), 1.0, np.zeros(4))) == 0.0
    assert free_energy_change(UNIT, LatticeField(1, (4,), 1.0, [1, 0, 0, 0])) == 0.5
    assert free_energy_change(P243, LatticeField(1, (2,), 0.5, [1, 1])) == 1.0


def test_free_energy_dimension_mismatch():
    fld = LatticeField(2, (2, 2), 1.0, np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        free_energy_change(UNIT, fld)


def test_free_energy_quadratic_scaling():
    rng = np.random.default_rng(4)
    fld = LatticeField(1, (8,), 0.3, rng.normal(size=8))
    f1 = free_energy_change(UNIT, fld)
    for lam in (0.5, 2.0, -3.0):
        assert free_energy_change(UNIT, fld.with_values(lam * fld.values)) == pytest.approx(
            lam ** 2 * f1, rel=1e-14
        )


def test_hessian_matches_analytic():
    rng = np.random.default_rng(6)
    fld = LatticeField(1, (5,), 0.5, rng.uniform(-0.5, 0.5, 5))
    hess = free_energy_hessian(P243, fld, step=1e-3)
    assert np.allclose(np.diag(hess), 1.0, rtol=1e-6)  # (c0/T0)*a = 2*0.5
    off = hess - np.diag(np.diag(hess))
    assert np.max(np.abs(off)) <= 1e-10
