import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermodeco import (
    GridMismatchError,
    HistoryPair,
    InsufficientDataError,
    MediumParams,
    SimConfig,
    SingularModeError,
    antisymmetry_residual,
    coupling_constant,
    decoherence_exponent,
    decoherence_scan,
    dissipation_kernel_apply,
    drift_residual,
    influence_action,
    noise_kernel_amplitude,
    simulate_mode,
    static_free_energy_identity,
)

UNIT = MediumParams(T0=1.0, c0=1.0, D0=1.0)
P243 = MediumParams(T0=2.0, c0=4.0, D0=0.5)


def _pair(k, dt, v1, v2, w=1.0):
    return HistoryPair([k], dt, [v1], [v2], [w])


def _random_pair(rng, n_modes=3, n=25, dt=0.1):
    ks = rng.uniform(0.2, 5.0, n_modes)
    ws = rng.uniform(0.1, 2.0, n_modes)
    b1 = np.array([rng.normal(size=n) for _ in ks])
    b2 = np.array([rng.normal(size=n) for _ in ks])
    return HistoryPair(ks, dt, b1, b2, ws)


def test_history_pair_grid_mismatch():
    for ks, b1, b2, ws in [
        ([1.0, 2.0], np.zeros((1, 5)), np.zeros((1, 5)), [1.0, 1.0]),  # rows != len(ks)
        ([1.0], np.zeros((1, 5)), np.zeros((1, 6)), [1.0]),  # branch shapes differ
        ([1.0], np.zeros((1, 5)), np.zeros((2, 5)), [1.0]),
        ([1.0], np.zeros(5), np.zeros(5), [1.0]),  # a branch is not (modes, samples)
        ([1.0, 2.0], np.zeros((2, 5)), np.zeros((2, 5)), [1.0]),  # weights length differs
    ]:
        with pytest.raises(GridMismatchError):
            HistoryPair(ks, 0.1, b1, b2, ws)


@pytest.mark.parametrize("dt, b1, b2, ws, message", [
    (0.1, [[0.0, np.nan]], [[0.0, 0.0]], [1.0], "non-finite"),
    (0.1, [[0.0, 0.0]], [[np.inf, 0.0]], [1.0], "non-finite"),
    (0.0, [[0.0, 0.0]], [[0.0, 0.0]], [1.0], "dt must be positive"),
    (0.1, np.zeros((1, 0)), np.zeros((1, 0)), [1.0], "at least one mode and one sample"),
    (0.1, [[0.0, 0.0]], [[0.0, 0.0]], [0.0], "weights must be positive"),
])
def test_history_pair_rejects_bad_values(dt, b1, b2, ws, message):
    with pytest.raises(ValueError, match=message):
        HistoryPair([1.0], dt, b1, b2, ws)


def test_dissipation_kernel_constant_history():
    c = 0.7
    out = dissipation_kernel_apply(P243, 2.0, np.full(10, c), 0.1)
    a_k = coupling_constant(P243, 2.0)
    gamma = 0.5 * 4.0 / 4.0
    assert np.allclose(out, a_k * gamma * c, rtol=1e-14)


def test_dissipation_kernel_annihilates_decay():
    dt = 0.01
    cfg = SimConfig(dt=dt, t_end=3.0, seed=0, initial=1.0, noise_scale=0.0)
    hist = simulate_mode(UNIT, 1.0, cfg)
    out = dissipation_kernel_apply(UNIT, 1.0, hist, dt)
    assert np.max(np.abs(out[1:-1])) <= 1e-4  # O(dt^2) residual


def test_dissipation_kernel_errors():
    with pytest.raises(SingularModeError):
        dissipation_kernel_apply(UNIT, 0.0, np.zeros(10), 0.1)
    with pytest.raises(InsufficientDataError):
        dissipation_kernel_apply(UNIT, 1.0, np.zeros(2), 0.1)


@pytest.mark.parametrize("apply", [drift_residual, dissipation_kernel_apply])
@pytest.mark.parametrize("x, dt, error, message", [
    (np.zeros(10), 0.0, ValueError, "dt must be positive"),
    (np.zeros(10), -0.1, ValueError, "dt must be positive"),
    (np.array([0.0, 1.0, np.nan, 0.0]), 0.1, ValueError, "non-finite"),
    (np.array([0.0, np.inf, 0.0]), 0.1, ValueError, "non-finite"),
    (np.zeros(2), 0.1, InsufficientDataError, "at least 3 samples"),
], ids=["dt-zero", "dt-negative", "nan", "inf", "two-samples"])
def test_drift_operators_reject_bad_histories(apply, x, dt, error, message):
    with pytest.raises(error, match=message):
        apply(UNIT, 1.0, x, dt)


def test_drift_residual_takes_a_column_of_wavenumbers():
    rng = np.random.default_rng(1)
    ks, x = np.array([0.0, 0.5, 3.0]), rng.normal(size=(3, 12))
    rows = drift_residual(P243, ks[:, None], x, 0.05)
    for k, row, out in zip(ks, x, rows):
        assert out.tobytes() == drift_residual(P243, k, row, 0.05).tobytes()


def test_dissipation_kernel_shares_drift_operator():
    rng = np.random.default_rng(0)
    hist = rng.normal(size=40)
    out = dissipation_kernel_apply(P243, 1.7, hist, 0.05)
    drift = drift_residual(P243, 1.7, hist, 0.05)
    a_k = coupling_constant(P243, 1.7)
    assert np.max(np.abs(out / a_k - drift)) <= 1e-12


def test_noise_kernel_values():
    assert noise_kernel_amplitude(UNIT, 1.0) == 2.0
    assert noise_kernel_amplitude(P243, 3.0) == pytest.approx(2 * 1.125 * (16 / 9) ** 2, rel=1e-14)
    with pytest.raises(SingularModeError):
        noise_kernel_amplitude(UNIT, 0.0)
    for negative in (lambda: noise_kernel_amplitude(UNIT, -2.0),
                     lambda: decoherence_scan(UNIT, [-1.0], amplitude=0.1, duration=1.0),
                     lambda: decoherence_exponent(UNIT, _pair(-1.0, 0.1, [1.0, 1.0], [0.0, 0.0]))):
        with pytest.raises(ValueError, match="wavenumber must be non-negative"):
            negative()


def test_noise_kernel_identity_2T0A():
    rng = np.random.default_rng(1)
    for _ in range(30):
        T0, c0, D0 = rng.uniform(0.1, 10.0, 3)
        k = rng.uniform(0.01, 10.0)
        p = MediumParams(T0=T0, c0=c0, D0=D0)
        assert noise_kernel_amplitude(p, k) == pytest.approx(
            2.0 * T0 * coupling_constant(p, k), rel=1e-14
        )


def test_influence_action_identical_branches():
    rng = np.random.default_rng(2)
    v = rng.normal(size=30)
    val = influence_action(UNIT, _pair(1.0, 0.1, v, v))
    assert val.real == 0.0 and val.imag == 0.0


def test_influence_action_static_example():
    # branches (1, 0), duration 2, unit params, k=1, w=1 -> (1.0, 2.0)
    n = 40
    dt = 2.0 / n
    val = influence_action(UNIT, _pair(1.0, dt, np.ones(n + 1), np.zeros(n + 1)))
    assert val.real == pytest.approx(1.0, rel=1e-13)
    assert val.imag == pytest.approx(2.0, rel=1e-13)


def test_influence_action_swap_parity():
    rng = np.random.default_rng(3)
    pair = _random_pair(rng)
    a = influence_action(UNIT, pair)
    b = influence_action(UNIT, pair.swapped())
    assert b.real == -a.real
    assert b.imag == a.imag


def test_influence_action_noise_positivity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pair = _random_pair(rng)
        assert influence_action(UNIT, pair).imag > 0.0


def test_influence_action_singular_mode():
    with pytest.raises(SingularModeError):
        influence_action(UNIT, _pair(0.0, 0.1, np.ones(5), np.zeros(5)))


def test_antisymmetry_100_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(100):
        assert antisymmetry_residual(P243, _random_pair(rng)) <= 1e-12


def test_static_identity_examples():
    assert static_free_energy_identity(UNIT, [1.0], [1.0], [1.0], [1.0]) == 0.0
    # hand check: both sides 0.5 for (1, 0) at unit params
    assert static_free_energy_identity(UNIT, [1.0], [1.0], [1.0], [0.0]) <= 1e-14


def test_static_identity_rejects_bad_input():
    with pytest.raises(ValueError, match="weights must be positive"):
        static_free_energy_identity(UNIT, [1.0, 2.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(SingularModeError):
        static_free_energy_identity(UNIT, [1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(GridMismatchError):
        static_free_energy_identity(UNIT, [1.0, 2.0], [1.0], [1.0, 1.0], [0.0, 0.0])


def test_static_identity_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = MediumParams(*rng.uniform(0.1, 10.0, 3))
        ks = rng.uniform(0.1, 5.0, 4)
        ws = rng.uniform(0.1, 2.0, 4)
        a1 = rng.normal(size=4)
        a2 = rng.normal(size=4)
        assert static_free_energy_identity(p, ks, ws, a1, a2) <= 1e-14


def test_decoherence_identical_branches():
    rng = np.random.default_rng(7)
    v = rng.normal(size=20)
    res = decoherence_exponent(UNIT, _pair(1.0, 0.1, v, v))
    assert res.total_exponent == 0.0
    assert res.magnitude == 1.0
    assert not res.conserved_mode_diverged


def test_decoherence_hand_example():
    # constant difference 0.1 over tau=10 at k=1: exponent 0.2
    n = 100
    dt = 10.0 / n
    res = decoherence_exponent(UNIT, _pair(1.0, dt, np.full(n + 1, 0.1), np.zeros(n + 1)))
    assert res.total_exponent == pytest.approx(0.2, rel=1e-13)
    assert res.magnitude == pytest.approx(math.exp(-0.2), rel=1e-13)


def test_decoherence_k_squared_ratio_exact():
    rng = np.random.default_rng(8)
    diff = rng.normal(size=30)
    for k in (0.3, 1.0, 2.5):
        e1 = decoherence_exponent(UNIT, _pair(k, 0.1, diff, np.zeros(30))).total_exponent
        e2 = decoherence_exponent(UNIT, _pair(2 * k, 0.1, diff, np.zeros(30))).total_exponent
        assert e1 / e2 == pytest.approx(4.0, rel=1e-14)


def test_decoherence_conserved_mode():
    res = decoherence_exponent(UNIT, _pair(0.0, 0.1, np.full(5, 0.01), np.zeros(5)))
    assert math.isinf(res.total_exponent)
    assert res.magnitude == 0.0
    assert res.conserved_mode_diverged
    # zero difference on the conserved mode contributes nothing
    res0 = decoherence_exponent(UNIT, _pair(0.0, 0.1, np.ones(5), np.ones(5)))
    assert res0.total_exponent == 0.0 and not res0.conserved_mode_diverged
    # the left-Riemann sum reads all samples but the last, at k = 0 as at k > 0
    for k in (0.0, 1.0):
        res1 = decoherence_exponent(UNIT, _pair(k, 0.1, [0.0, 0.0, 0.0, 1.0], np.zeros(4)))
        assert res1.total_exponent == 0.0 and not res1.conserved_mode_diverged


def test_decoherence_matches_twice_noise_action():
    rng = np.random.default_rng(9)
    for _ in range(20):
        pair = _random_pair(rng)
        exp = decoherence_exponent(P243, pair).total_exponent
        im = influence_action(P243, pair).imag
        assert exp == 2.0 * im


def test_pair_modes_match_one_mode_pairs():
    # every mode at once equals the mode-by-mode loop, summed in mode order.  Rows longer than
    # numpy's 8192-element buffer too: a 2-d einsum sums those in pieces, a 1-d one does not
    rng = np.random.default_rng(10)
    for n in (25, 10001):
        pair = _random_pair(rng, n_modes=4, n=n)
        ks = np.concatenate([[0.0], pair.ks])
        b1 = np.vstack([rng.normal(size=(1, n)), pair.branch1])
        b2 = np.vstack([rng.normal(size=(1, n)), pair.branch2])
        ws = np.concatenate([[1.0], pair.weights])
        singles = [_pair(k, pair.dt, x1, x2, w) for k, x1, x2, w in zip(pair.ks, pair.branch1,
                                                                       pair.branch2, pair.weights)]
        exponents = [decoherence_exponent(P243, one).total_exponent for one in singles]
        action = influence_action(P243, pair)
        assert action.real == sum(influence_action(P243, one).real for one in singles)
        assert action.imag == 0.5 * sum(exponents)
        res = decoherence_exponent(P243, HistoryPair(ks, pair.dt, b1, b2, ws))
        assert res.per_mode.tolist() == [math.inf] + exponents
        assert res.total_exponent == math.inf and res.conserved_mode_diverged


@pytest.mark.filterwarnings("error")
def test_equal_branches_contribute_zero_where_the_kernels_are_inf():
    # D0 k^2 underflows to 0 at k = 1e-200, so N_k and A_k are inf: an equal-branch mode
    # still contributes exactly 0, as an equal-branch k = 0 mode does
    ones = np.ones((2, 6))
    pair = HistoryPair([1e-200, 1.0], 0.1, ones, ones, [1, 1])
    res = decoherence_exponent(UNIT, pair)
    assert res.per_mode.tolist() == [0.0, 0.0]
    assert res.total_exponent == 0.0 and res.magnitude == 1.0
    action = influence_action(UNIT, pair)
    assert (action.real, action.imag) == (0.0, 0.0) and type(action.real) is float
    # a difference on the tiny mode decoheres it completely
    other = ones.copy()
    other[0, 2] = 1.5
    res = decoherence_exponent(UNIT, HistoryPair([1e-200, 1.0], 0.1, ones, other, [1, 1]))
    assert res.per_mode.tolist() == [math.inf, 0.0] and res.magnitude == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ks", [[], [0.0]])
def test_decoherence_scan_without_damped_modes_needs_no_kernel(ks):
    # c0^2 overflows, but no row needs N_k
    rows = decoherence_scan(MediumParams(T0=1.0, c0=1e300, D0=1.0), ks, 0.1, 10.0)
    assert rows.tolist() == [(0.0, math.inf, 0.0, True)] * len(ks)


def test_decoherence_one_sample_spans_no_time():
    res = decoherence_exponent(P243, _pair(1.5, 0.1, [0.3], [0.0]))
    assert res.total_exponent == 0.0
    assert res.magnitude == 1.0


def test_decoherence_scan_examples():
    rows = decoherence_scan(UNIT, [1.0, 2.0, 4.0], amplitude=0.1, duration=10.0)
    assert [r[0] for r in rows] == [1.0, 2.0, 4.0]
    assert rows[0][1] == pytest.approx(0.2, rel=1e-13)
    assert rows[1][1] == pytest.approx(0.05, rel=1e-13)
    assert rows[2][1] == pytest.approx(0.0125, rel=1e-13)
    exps = [r[1] for r in rows]
    assert exps == sorted(exps, reverse=True)


def test_decoherence_scan_conserved_row():
    rows = decoherence_scan(UNIT, [0.0, 1.0], amplitude=0.1, duration=10.0)
    assert rows[0][0] == 0.0
    assert math.isinf(rows[0][1])
    assert rows[0][2] == 0.0
    assert rows["conserved_flag"].tolist() == [True, False]


def test_decoherence_scan_single_k():
    rows = decoherence_scan(UNIT, [2.0], amplitude=0.5, duration=1.0)
    assert len(rows) == 1


_positive = st.floats(0.1, 10.0)


@settings(max_examples=60, deadline=None)
@given(
    medium=st.tuples(_positive, _positive, _positive),
    ks=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 100.0)), min_size=1, max_size=6, unique=True),
    amplitude=st.floats(1e-6, 10.0),
    duration=st.floats(1e-3, 100.0),
    n_steps=st.integers(1, 2000),
)
def test_decoherence_scan_matches_explicit_pairs(medium, ks, amplitude, duration, n_steps):
    params = MediumParams(*medium)
    rows = decoherence_scan(params, ks, amplitude, duration, n_steps)
    dt = duration / n_steps
    expected = []
    for k in sorted(ks):
        res = decoherence_exponent(params, _pair(k, dt, np.full(n_steps + 1, amplitude),
                                                 np.zeros(n_steps + 1)))
        expected.append((k, res.total_exponent, res.magnitude, res.conserved_mode_diverged))
    assert rows.tolist() == expected
    assert repr(rows.tolist()) == repr(expected)


def test_decoherence_scan_arithmetic_on_the_sweep_grid():
    # N_k squares k as D0 * k * k, and each magnitude is math.exp: C pow (np.float_power)
    # and np.exp round differently at some of these points
    ks = 0.0 + np.arange(100000) * 1e-4
    amplitude, duration, n_steps = 0.001, 10.0, 1000
    rows = decoherence_scan(UNIT, ks, amplitude, duration, n_steps)
    dt = duration / n_steps
    sum_sq = float(np.einsum("i,i->", np.full(n_steps, amplitude), np.full(n_steps, amplitude)))

    def exponent(d0k2):
        return 1.0 * dt * (2.0 * UNIT.c0 ** 2 / d0k2) * sum_sq

    expected = [math.inf] + [exponent(UNIT.D0 * k * k) for k in ks[1:].tolist()]
    assert np.array_equal(rows["exponent"], expected)
    assert np.array_equal(rows["magnitude"], [math.exp(-e) for e in expected])
    # where C pow's square differs from k * k, the scan's is the correctly rounded k^2
    for i in np.flatnonzero(np.float_power(ks, 2) != ks * ks).tolist():
        assert rows["exponent"][i] == exponent(UNIT.D0 * float(Fraction(ks[i]) ** 2))
