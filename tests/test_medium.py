import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermodeco import (
    DimensionMismatchError,
    HistoryPair,
    LatticeField,
    MediumParams,
    SingularModeError,
    coupling_constant,
    equilibrium_mode_variance,
    free_energy_change,
    free_energy_hessian,
    influence_action,
    noise_kernel_amplitude,
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
    with pytest.raises(ValueError):  # D0 * 0 * 0 would be nan, not the conserved mode's 0
        MediumParams(T0=1.0, c0=1.0, D0=math.inf)


def test_relaxation_rate_values():
    assert relaxation_rate(UNIT, 1.0) == 1.0
    assert relaxation_rate(P243, 3.0) == 1.125
    assert relaxation_rate(P243, 0.0) == 0.0


def test_noise_strength_values():
    assert noise_strength(UNIT, 1.0) == 1.0
    assert noise_strength(P243, 3.0) == 1.125
    assert noise_strength(UNIT, 0.0) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, expected", [(0.0, 0.0), ([0.0, 1.0], [0.0, math.inf])])
def test_noise_strength_is_zero_at_k0_when_c0_squared_underflows(k, expected):
    # c0^2 is 0: D0 k^2 T0^2 / c0^2 is 0/0 at k = 0
    gamma = noise_strength(MediumParams(T0=1.0, c0=1e-300, D0=1.0), k)
    assert np.array_equal(gamma, expected)
    assert type(gamma) is (float if np.ndim(k) == 0 else np.ndarray)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f", [coupling_constant, noise_kernel_amplitude])
@pytest.mark.parametrize("k, expected", [(1e-200, math.inf), ([1e-200, 1.0], [math.inf, 0.0])])
def test_singular_coefficient_is_inf_where_c0_squared_and_d0k2_underflow(f, k, expected):
    # c0^2 and D0 k^2 are both 0 at k = 1e-200: c0^2 / (D0 k^2) is 0/0 there
    value = f(MediumParams(T0=1.0, c0=1e-300, D0=1.0), k)
    assert np.array_equal(value, expected)
    assert type(value) is (float if np.ndim(k) == 0 else np.ndarray)


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


REGULAR = (relaxation_rate, noise_strength)  # defined on the conserved mode k = 0
SINGULAR = (coupling_constant, noise_kernel_amplitude)  # diverge there


@settings(max_examples=200, deadline=None)
@given(medium=st.tuples(*[st.floats(1e-3, 1e3)] * 3),
       ks=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8),
       k=st.floats(1e-100, 1e100))
def test_coefficients_are_one_d0k2_elementwise(medium, ks, k):
    p = MediumParams(*medium)
    positive = [x for x in ks if x > 0] or [1.0]
    for coefficient, grid in [(f, ks) for f in REGULAR] + [(f, positive) for f in SINGULAR]:
        scalars = [coefficient(p, x) for x in grid]
        assert all(type(x) is float for x in scalars)
        assert coefficient(p, np.array(grid)).tobytes() == np.array(scalars).tobytes()
    # the operation order of every byte simulate, fdr-verify and field-sample write
    T0, c0, D0 = medium
    assert relaxation_rate(p, k) == D0 * k * k / c0
    assert noise_strength(p, k) == D0 * k * k * T0 ** 2 / c0 ** 2
    assert coupling_constant(p, k) == c0 ** 2 / (D0 * k * k * T0)
    assert noise_kernel_amplitude(p, k) == 2.0 * c0 ** 2 / (D0 * k * k)


def influence_on_ramp(params, k):
    """influence_action at k (or each of a list) on a pair with positive difference and drift."""
    ks = np.atleast_1d(k)
    ramps = np.tile(1.0 + np.arange(5.0), (ks.size, 1))
    value = influence_action(params, HistoryPair(ks, 0.1, ramps, 0.0 * ramps, np.ones(ks.size)))
    return value.real, value.imag


def _case(f, k, outcome):
    return pytest.param(f, k, outcome, id=f"{f.__name__}({k})")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f, k, outcome", [
    *[_case(f, k, ValueError) for f in REGULAR + SINGULAR + (influence_on_ramp,)
      for k in (-1.0, [1.0, -1.0])],
    *[_case(f, k, SingularModeError) for f in SINGULAR + (influence_on_ramp,)
      for k in (0.0, [1.0, 0.0])],
    *[_case(f, 1e-200, 0.0) for f in REGULAR],
    *[_case(f, 1e-200, math.inf) for f in SINGULAR],
    *[_case(f, 1e200, math.inf) for f in REGULAR],
    *[_case(f, 1e200, 0.0) for f in SINGULAR],
    _case(influence_on_ramp, 1e-200, (math.inf, math.inf)),
])
def test_coefficient_error_contract(f, k, outcome):
    if outcome in (ValueError, SingularModeError):
        with pytest.raises(outcome) as raised:
            f(UNIT, k)
        assert type(raised.value) is outcome
        if outcome is ValueError:
            assert str(raised.value) == "wavenumber must be non-negative"
    else:
        assert f(UNIT, k) == outcome


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thermodeco"


def test_no_float_power_in_sources():
    # C pow squares k as the platform's libm rounds it; D0 * k * k is the same everywhere
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        assert "float_power" not in path.read_text(), path.name


BLAS_CALLS = {"dot", "vdot", "matmul", "inner", "tensordot"}


def _blas_uses(source: str) -> list[str]:
    """The matrix products, calls of a BLAS_CALLS name and uses of a linalg name in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and (getattr(node.func, "id", None) in BLAS_CALLS
                                             or getattr(node.func, "attr", None) in BLAS_CALLS):
            found.append(ast.unparse(node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names += [a.name for a in node.names]
            if any("linalg" in name.split(".") for name in names):
                found.append(ast.unparse(node))
        elif "linalg" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(ast.unparse(node))
    return found


def test_no_blas_call_in_sources():
    # a BLAS product sums in an order its thread count sets; every sum of products in the
    # package is a 1-d einsum in numpy's own loop, so no output's bytes depend on that count
    probe = ("a @ b; a @= b; np.dot(a, b); dot(a, b); x.inner(y); np.linalg.norm(a); "
             "from numpy.linalg import norm; from numpy import linalg; _dot(a, b)")
    assert sorted(_blas_uses(probe)) == [
        "a @ b", "a @= b", "dot(a, b)", "from numpy import linalg",
        "from numpy.linalg import norm", "np.dot(a, b)", "np.linalg", "x.inner(y)"]
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        assert _blas_uses(path.read_text()) == [], path.name


def test_only_langevin_imports_threading_and_the_package_init_loads_only_the_standard_library():
    # the one thread besides the caller's is langevin._Ahead's: it runs fdr-verify's next
    # mode or draws a history's noise one chunk ahead (langevin.simulate_chunks).  The modes
    # share no state but langevin's filter kernel, loaded under a lock.  The
    # package __init__ runs before thermodeco.cli can ask OpenBLAS for one thread, so it
    # must not load numpy
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""])
                if "threading" in (n.split(".")[0] for n in names):
                    importers.add(path.name)
    assert importers == {"langevin.py"}
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.Import):
            roots = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            roots = [node.module.split(".")[0]]
        else:
            continue
        assert set(roots) <= sys.stdlib_module_names, ast.unparse(node)


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
