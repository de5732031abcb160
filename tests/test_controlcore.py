import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import moc_oracle as oracle
import verdict_oracle
from softrt.controlcore import (
    ClosedLoopModes,
    ContinuousLti,
    ControllerLti,
    DiscreteLti,
    _half_kron,
    _tril,
    c2d,
    dlqr,
    gelfand_radius,
    kalman_gain,
    lqg_assemble,
    second_moment_stable,
    spectral_radius,
    stability_matrix,
)
from softrt.errors import ConfigError, NumericalError
from softrt.moc import MocKind, _discretiser, _mode_table
from softrt.sweep import SweepConfig, random_system
from softrt.taskmodel import derived_seed

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def taylor_expm(M, terms=40):
    """Plain truncated power series; fine for the small norms used here."""
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    return out


def rk4_hold(A, B, T, steps=4000):
    """Integrate xdot = Ax + Bu with u held constant, from x0 = 0 and from
    unit initial states, recovering (Ad, Bd) without any matrix exponential."""
    n, p = A.shape[0], B.shape[1]
    h = T / steps
    X = np.hstack([np.eye(n), np.zeros((n, p))])
    U = np.hstack([np.zeros((p, n)), np.eye(p)])

    def f(X):
        return A @ X + B @ U

    for _ in range(steps):
        k1 = f(X)
        k2 = f(X + h / 2 * k1)
        k3 = f(X + h / 2 * k2)
        k4 = f(X + h * k3)
        X = X + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return X[:, :n], X[:, n:]


def test_plant_shapes_must_agree():
    ok = dict(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
    for field, bad, msg in (("B", [[1.0], [2.0]], r"plant\.B: row count"),
                            ("C", [[1.0, 2.0]], r"plant\.C: column count"),
                            ("D", [[0.0, 0.0]], r"plant\.D: expected shape \(1, 1\)")):
        args = dict(ok, **{field: bad})
        with pytest.raises(ConfigError, match=msg):
            ContinuousLti(**args)
        with pytest.raises(ConfigError, match=msg):
            DiscreteLti(**args, sample_period=1.0)


def c2d_without_input(A, T=1.0):
    """c2d of dx/dt = A x with a B of zeros: A_d = expm(A T), B_d = 0."""
    d = c2d(ContinuousLti.from_ab(A, np.zeros((len(A), 1))), T)
    assert not d.B.any()
    return d.A


def test_c2d_without_input_basics():
    assert np.allclose(c2d_without_input(np.zeros((3, 3))), np.eye(3))
    D = np.diag([1.0, -0.5, 0.0])
    assert np.allclose(c2d_without_input(D, 2.0), np.diag(np.exp([2.0, -1.0, 0.0])))


def test_c2d_without_input_matches_power_series():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.uniform(-1.0, 1.0, size=(4, 4))
        assert np.allclose(c2d_without_input(M), taylor_expm(M), atol=1e-10)


def test_c2d_integrator_chain():
    plant = ContinuousLti.from_ab([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
    d = c2d(plant, 0.5)
    assert np.allclose(d.A, [[1.0, 0.5], [0.0, 1.0]])
    assert np.allclose(d.B, [[0.125], [0.5]])
    assert d.sample_period == 0.5


def test_c2d_scalar_decay():
    a, b, T = -2.0, 3.0, 0.7
    d = c2d(ContinuousLti.from_ab([[a]], [[b]]), T)
    assert d.A[0, 0] == pytest.approx(math.exp(a * T), abs=1e-12)
    assert d.B[0, 0] == pytest.approx(b * (math.exp(a * T) - 1.0) / a, abs=1e-12)


def test_c2d_matches_rk4():
    rng = np.random.default_rng(11)
    A = rng.uniform(-1.0, 1.0, size=(3, 3))
    B = rng.uniform(-1.0, 1.0, size=(3, 2))
    d = c2d(ContinuousLti.from_ab(A, B), 0.3)
    Ad, Bd = rk4_hold(A, B, 0.3)
    assert np.allclose(d.A, Ad, atol=1e-6)
    assert np.allclose(d.B, Bd, atol=1e-6)
    with pytest.raises(ConfigError):
        c2d(ContinuousLti.from_ab(A, B), 0.0)


@pytest.mark.parametrize("a, b, q, r, known", [
    pytest.param(1.0, 1.0, 1.0, 1.0, (GOLDEN_RATIO, 1.0 / GOLDEN_RATIO),
                 id="golden_section"),
    # P = 0 also solves this Riccati equation but leaves the plant unstable
    pytest.param(2.0, 1.0, 0.0, 1.0, (3.0, 1.5), id="unstable_zero_state_cost"),
    # the cosim plant dx/dt = 0.2 x + u under a 0.1 s zero-order hold
    pytest.param(math.exp(0.02), math.expm1(0.02) / 0.2, 1.0, 1.0, None, id="cosim_plant"),
])
def test_dlqr_scalar_closed_form(a, b, q, r, known):
    # P is the positive root of b^2 P^2 + (r - a^2 r - q b^2) P - q r = 0
    c = r - a * a * r - q * b * b
    p = (-c + math.sqrt(c * c + 4 * b * b * q * r)) / (2 * b * b)
    k = a * b * p / (r + b * b * p)
    if known is not None:
        assert (p, k) == pytest.approx(known, rel=1e-15)
    K, P = dlqr([[a]], [[b]], [[q]], [[r]])
    assert P[0, 0] == pytest.approx(p, rel=1e-12)
    assert K[0, 0] == pytest.approx(k, rel=1e-12)


def test_dlqr_synthesizes_sweep_system_14():
    # stabilizable but badly conditioned: max|P| is about 7e6
    cfg = SweepConfig()
    plant = random_system(cfg.state_dim, derived_seed(cfg.seed, "sys", 14))
    d = c2d(plant, cfg.T * cfg.tick_seconds)
    K, P = dlqr(d.A, d.B, np.eye(2), np.eye(1))
    residual = np.eye(2) + d.A.T @ P @ (d.A - d.B @ K) - P
    assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(P))
    assert spectral_radius(d.A - d.B @ K) == pytest.approx(0.782, abs=1e-3)


def test_dlqr_zero_state_cost_keeps_stable_plant_open():
    K, P = dlqr([[0.5]], [[1.0]], [[0.0]], [[1.0]])
    assert K[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert P[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_dlqr_satisfies_riccati_equation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.uniform(-1.0, 1.0, size=(3, 3))
        B = rng.uniform(-1.0, 1.0, size=(3, 2))
        Qx = np.eye(3)
        Ru = np.eye(2)
        K, P = dlqr(A, B, Qx, Ru)
        gain = np.linalg.solve(Ru + B.T @ P @ B, B.T @ P @ A)
        residual = Qx + A.T @ P @ (A - B @ gain) - P
        assert np.max(np.abs(residual)) < 1e-8
        assert spectral_radius(A - B @ K) < 1.0


def test_dlqr_cross_checks_scipy_are():
    from scipy.linalg import solve_discrete_are

    rng = np.random.default_rng(9)
    A = rng.uniform(-1.0, 1.0, size=(4, 4))
    B = rng.uniform(-1.0, 1.0, size=(4, 2))
    _, P = dlqr(A, B, np.eye(4), np.eye(2))
    assert np.allclose(P, solve_discrete_are(A, B, np.eye(4), np.eye(2)), atol=1e-7)


def test_dlqr_rejects_unstabilizable():
    with pytest.raises(NumericalError):
        dlqr([[2.0]], [[0.0]], [[1.0]], [[1.0]])


def test_dlqr_failure_names_the_cause():
    with pytest.raises(NumericalError, match=r"\(A, B\) is not stabilizable: "
                       r"mode lambda = 2\.0 is uncontrollable"):
        dlqr([[2.0]], [[0.0]], [[1.0]], [[1.0]])
    # stabilizable, but Qx = 0 does not observe the mode on the unit circle
    with pytest.raises(NumericalError, match="no stabilizing solution for these weights"):
        dlqr([[1.0]], [[1.0]], [[0.0]], [[1.0]])


def test_dlqr_ill_conditioned_plant_is_a_numerical_error():
    # exp(A*16) of this fast plant leaves scipy's QZ reordering no Schur form
    g = np.random.default_rng(7)
    plant = ContinuousLti.from_ab(4.0 * g.uniform(-1.0, 1.0, (3, 3)),
                                  g.uniform(-1.0, 1.0, (3, 1)))
    d = c2d(plant, 16.0)
    with pytest.raises(NumericalError):
        dlqr(d.A, d.B, np.eye(3), np.eye(1))


def test_dlqr_rejects_mis_sized_weights():
    A, B = np.eye(2), np.ones((2, 1))
    with pytest.raises(ConfigError, match=r"weights\.Qx: expected shape \(2, 2\)"):
        dlqr(A, B, np.eye(3), np.eye(1))
    with pytest.raises(ConfigError, match=r"weights\.Ru: expected shape \(1, 1\)"):
        dlqr(A, B, np.eye(2), np.eye(2))


def test_cost_weight_validation():
    A, B = np.eye(2), np.eye(2)
    with pytest.raises(ConfigError, match=r"weights\.Qx: must be symmetric"):
        dlqr(A, B, [[1.0, 2.0], [0.0, 1.0]], np.eye(2))
    with pytest.raises(ConfigError, match=r"weights\.Ru: must be positive definite"):
        dlqr(A, B, np.eye(2), [[0.0, 0.0], [0.0, 1.0]])


def test_kalman_scalar_and_duality():
    L = kalman_gain([[1.0]], [[1.0]])
    assert L[0, 0] == pytest.approx(1.0 / GOLDEN_RATIO, abs=1e-6)
    assert kalman_gain([[0.5]], [[1.0]], Wproc=[[0.0]])[0, 0] == \
        pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(2)
    A = rng.uniform(-0.5, 0.5, size=(3, 3))
    C = rng.uniform(-1.0, 1.0, size=(2, 3))
    L = kalman_gain(A, C)
    K, _ = dlqr(A.T, C.T, np.eye(3), np.eye(2))
    assert np.allclose(L, K.T)
    assert spectral_radius(A - L @ C) < 1.0


def test_kalman_failure_names_the_cause():
    with pytest.raises(NumericalError, match=r"^kalman_gain: \(A, C\) is not detectable: "
                       r"mode lambda = 2\.0 is unobservable$"):
        kalman_gain([[2.0]], [[0.0]])
    # the second state is observed, the unstable first one is not
    with pytest.raises(NumericalError, match=r"mode lambda = 1\.5 is unobservable"):
        kalman_gain([[1.5, 0.0], [0.0, 0.5]], [[0.0, 1.0]])
    # detectable, but Wproc = 0 leaves the unit-circle mode unweighted
    with pytest.raises(NumericalError, match="^kalman_gain: no stabilizing solution"):
        kalman_gain([[1.0]], [[1.0]], Wproc=[[0.0]])


def test_indefinite_weights_name_their_fields():
    indefinite = [[-1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ConfigError, match=r"^weights\.Qx: must be positive semidefinite"):
        dlqr(np.eye(2), np.eye(2), indefinite, np.eye(2))
    with pytest.raises(ConfigError, match=r"^kalman\.Wproc: must be positive semidefinite"):
        kalman_gain(np.eye(2), np.eye(2), Wproc=indefinite)
    with pytest.raises(ConfigError, match=r"^kalman\.Wmeas: must be positive definite"):
        kalman_gain(np.eye(2), np.eye(2), Wmeas=indefinite)
    # rounding below zero is not indefinite
    K, _ = dlqr([[0.5]], [[1.0]], [[-1e-15]], [[1.0]])
    assert K.shape == (1, 1)


def test_kalman_shape_errors_name_its_fields():
    with pytest.raises(ConfigError, match=r"^kalman\.C: column count must match A"):
        kalman_gain([[1.0]], [[1.0, 2.0]])
    with pytest.raises(ConfigError, match=r"^kalman\.Wproc: expected shape \(1, 1\)"):
        kalman_gain([[1.0]], [[1.0]], Wproc=np.eye(2))
    with pytest.raises(ConfigError, match=r"^kalman\.Wmeas: expected shape \(1, 1\)"):
        kalman_gain([[1.0]], [[1.0]], Wmeas=np.eye(2))


def test_lqg_assemble_and_separation():
    rng = np.random.default_rng(7)
    A = rng.uniform(-1.0, 1.0, size=(3, 3))
    B = rng.uniform(-1.0, 1.0, size=(3, 1))
    C = rng.uniform(-1.0, 1.0, size=(1, 3))
    plant = DiscreteLti(A, B, C, np.zeros((1, 1)), 1.0)
    K, _ = dlqr(A, B, np.eye(3), np.eye(1))
    L = kalman_gain(A, C)
    ctrl = lqg_assemble(plant, K, L)
    assert np.allclose(ctrl.E, A - B @ K - L @ C)
    assert np.allclose(ctrl.F, L)
    assert np.allclose(ctrl.G, -K)
    # u = Gz, z' = Ez + F(Cx): the loop spectrum splits by separation
    closed = np.block([[A, B @ ctrl.G], [ctrl.F @ C, ctrl.E]])
    got = np.sort_complex(np.linalg.eigvals(closed))
    want = np.sort_complex(np.concatenate([
        np.linalg.eigvals(A - B @ K), np.linalg.eigvals(A - L @ C)]))
    assert np.allclose(got, want, atol=1e-8)


def test_lqg_shape_checks():
    plant = DiscreteLti(np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                        np.zeros((1, 1)), 1.0)
    with pytest.raises(ConfigError):
        lqg_assemble(plant, np.ones((2, 2)), np.ones((2, 1)))
    with pytest.raises(ConfigError):
        lqg_assemble(plant, np.ones((1, 2)), np.ones((1, 1)))


def maxb_rows(plant_d, feedback):
    """The closed/open pair at the plant's own interval, as control-synth
    reports it: tt_maxb's rows over (x, z, u_held)."""
    labels, _, matrix = _mode_table(plant_d, feedback, MocKind("tt_maxb"), 1, 1,
                                    _discretiser(plant_d, 1.0))
    return ClosedLoopModes(labels, [matrix(0), matrix(1)])


def test_build_modes_static_scalar():
    plant = DiscreteLti([[1.2]], [[0.5]], [[1.0]], [[0.0]], 1.0)
    modes = maxb_rows(plant, [[0.8]])
    assert modes.labels == ["closed", "open"]
    Ac, Ao = modes.matrices
    assert np.allclose(Ac, [[0.8, 0.0], [-0.8, 0.0]])
    assert np.allclose(Ao, [[1.2, 0.5], [0.0, 1.0]])


def test_build_modes_static_gain_only_sees_state():
    plant = DiscreteLti(np.diag([0.9, 1.1]), [[1.0], [0.5]], np.eye(2),
                        np.zeros((2, 1)), 1.0)
    K = np.array([[0.2, 0.4]])
    modes = maxb_rows(plant, K)
    assert modes.augmented_dim == 3
    Ac = modes.matrices[0]
    assert np.allclose(Ac[:2, :2], plant.A - plant.B @ K)
    assert np.allclose(Ac[2:, :2], -K)
    assert np.allclose(Ac[:, 2], 0.0)  # fresh command ignores the stale one


def test_build_modes_dynamic_controller():
    rng = np.random.default_rng(4)
    A = rng.uniform(-1.0, 1.0, size=(2, 2))
    B = rng.uniform(-1.0, 1.0, size=(2, 1))
    C = np.eye(2)[:1]
    plant = DiscreteLti(A, B, C, np.zeros((1, 1)), 1.0)
    ctrl = ControllerLti(np.diag([0.5, 0.1]), np.ones((2, 1)),
                         np.array([[0.3, -0.2]]))
    modes = maxb_rows(plant, ctrl)
    assert modes.augmented_dim == 2 + 2 + 1
    Ac, Ao = modes.matrices
    assert np.allclose(Ac[:2, 2:4], B @ ctrl.G)
    assert np.allclose(Ac[2:4, :2], ctrl.F @ C)
    assert np.allclose(Ac[2:4, 2:4], ctrl.E)
    assert np.allclose(Ac[4:, 2:4], ctrl.G)
    # open mode: plant drifts on the held input while the controller freezes
    assert np.allclose(Ao[:2, :2], A)
    assert np.allclose(Ao[:2, 4:], B)
    assert np.allclose(Ao[2:4, 2:4], np.eye(2))
    assert np.allclose(Ao[4:, 4:], np.eye(1))


def test_controller_lti_validation():
    with pytest.raises(ConfigError):
        ControllerLti(np.eye(2), np.ones((1, 1)), np.ones((1, 2)))


def test_kron_identities():
    # V -> A V A^T on symmetric V: the identity for A = I, and the products
    # lambda_i lambda_j, i <= j, of A's eigenvalues for its spectrum
    assert np.array_equal(_half_kron(np.eye(3)), np.eye(6))
    rng = np.random.default_rng(6)
    A = rng.uniform(-1.0, 1.0, size=(3, 3))
    got = np.sort_complex(np.linalg.eigvals(_half_kron(A)))
    lam = np.linalg.eigvals(A)
    pairs = [lam[i] * lam[j] for i in range(3) for j in range(i, 3)]
    assert np.allclose(got, np.sort_complex(np.array(pairs)), atol=1e-9)


def test_stability_matrix_scalar_mixture():
    modes = ClosedLoopModes(["closed", "open"],
                            [np.array([[0.5]]), np.array([[1.2]])],
                            [0.8, 0.2])
    M = stability_matrix(modes)
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(0.8 * 0.25 + 0.2 * 1.44, abs=1e-15)
    assert second_moment_stable(modes)  # 0.488 < 1
    always_open = ClosedLoopModes(modes.labels, modes.matrices, [0.0, 1.0])
    assert stability_matrix(always_open)[0, 0] == pytest.approx(1.44)
    assert not second_moment_stable(always_open)


def test_stability_matrix_requires_probabilities():
    modes = ClosedLoopModes(["only"], [np.eye(2)])
    with pytest.raises(ConfigError):
        stability_matrix(modes)
    with pytest.raises(ConfigError):
        ClosedLoopModes(["only"], [np.eye(2)], [0.5, 0.5])
    with pytest.raises(ConfigError):
        ClosedLoopModes(["only"], [np.eye(2)], [0.7])


def test_non_finite_probabilities_are_config_errors():
    # NaN fails every comparison, so a check written as "reject if p < 0 or
    # the sum is off" would let it through
    with pytest.raises(ConfigError, match="modes.probabilities"):
        ClosedLoopModes(["a"], [[[5.0]]], [math.nan])
    with pytest.raises(ConfigError, match="modes.probabilities"):
        ClosedLoopModes(["a", "b"], [np.eye(1), np.eye(1)], [math.nan, 0.0])


@st.composite
def mode_sets(draw):
    """Modes with probabilities: random matrices of dimension 1-6 (1-4 modes,
    scaled so that rho lands on both sides of 1), or the reference
    build_modes (moc_oracle) of a random plant under its LQR gain or LQG
    controller, holding the input or zeroing it on a drop."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dim, count = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        scale = draw(st.sampled_from((0.5, 0.9, 1.0, 1.1, 1.5))) / math.sqrt(dim / 3)
        modes = ClosedLoopModes([str(i) for i in range(count)],
                                [scale * g.uniform(-1.0, 1.0, (dim, dim))
                                 for _ in range(count)])
    else:
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        A = draw(st.sampled_from((0.6, 1.2, 2.0))) * g.uniform(-1.0, 1.0, (n, n))
        B, C = g.uniform(-1.0, 1.0, (n, 1)), g.uniform(-1.0, 1.0, (m, n))
        plant = DiscreteLti(A, B, C, np.zeros((m, 1)), 1.0)
        try:
            K, _ = dlqr(A, B, np.eye(n), np.eye(1))
            feedback = lqg_assemble(plant, K, kalman_gain(A, C)) if draw(st.booleans()) else K
        except NumericalError:
            assume(False)
        modes = oracle.build_modes(plant, feedback, draw(st.sampled_from(("hold", "zero"))))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(modes.matrices),
                            max_size=len(modes.matrices)).filter(any))
    return ClosedLoopModes(modes.labels, modes.matrices, [w / sum(weights) for w in weights])


@settings(max_examples=200, deadline=None)
@given(mode_sets(), st.integers(0, 2**32 - 1))
def test_stability_matrix_maps_v_to_its_expected_square(modes, seed):
    # on the lower triangle of a symmetric V, exactly sum_i p_i M_i V M_i^T,
    # which the full Kronecker sum computes on all of V
    dim = modes.augmented_dim
    V = np.random.default_rng(seed).uniform(-1.0, 1.0, (dim, dim))
    V += V.T
    tril = _tril(dim)
    want = sum(p * M @ V @ M.T for p, M in zip(modes.probabilities, modes.matrices))
    full = (verdict_oracle.stability_matrix(modes) @ V.ravel()).reshape(dim, dim)
    got = stability_matrix(modes) @ V[tril]
    scale = 1e-12 * max(1.0, np.max(np.abs(want)))
    assert np.allclose(got, want[tril], rtol=0, atol=scale)
    assert np.allclose(got, full[tril], rtol=0, atol=scale)


@settings(max_examples=300, deadline=None)
@given(mode_sets())
def test_second_moment_stable_matches_eigenvalue_rule(modes):
    # the mean-square solve against the eigenvalues of the full Kronecker
    # sum (the oracle's), away from the boundary where either may round
    # either way
    rho = spectral_radius(verdict_oracle.stability_matrix(modes))
    if abs(rho - 1.0) >= 1e-6:
        assert second_moment_stable(modes) == (rho < 1.0 - 1e-9)


def test_second_moment_stable_eigenvalue_one_is_not_stable():
    # rho = 1 exactly: only the margin keeps rounding from deciding it
    for dim in (1, 4):
        assert not second_moment_stable(ClosedLoopModes(["id"], [np.eye(dim)], [1.0]))
    # a job that never finishes leaves the held input in place
    rows = maxb_rows(DiscreteLti([[0.5]], [[1.0]], [[1.0]], [[0.0]], 1.0), [[0.4]])
    always_open = ClosedLoopModes(rows.labels, rows.matrices, [0.0, 1.0])
    assert spectral_radius(stability_matrix(always_open)) == 1.0
    assert not second_moment_stable(always_open)


def test_second_moment_stable_without_state_is_stable():
    # nothing can grow, as spectral_radius reads an empty matrix as 0
    assert second_moment_stable(ClosedLoopModes(["none"], [np.zeros((0, 0))], [1.0]))


def test_second_moment_stable_overflow_is_not_stable_and_silent():
    # the products overflow to inf, and inf - inf to nan
    big = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]])
    modes = ClosedLoopModes(["big", "small"], [big, 0.5 * np.eye(2)], [0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not second_moment_stable(modes)


def test_spectral_radius_known_values():
    assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9)
    r, th = 0.85, 0.7
    rot = r * np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
    assert spectral_radius(rot) == pytest.approx(r, abs=1e-12)


def test_spectral_radius_falls_back_to_gelfand(monkeypatch):
    def fail(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.warns(RuntimeWarning, match="eigenvalue iteration failed"):
        rho = spectral_radius(np.diag([0.3, -0.9]))
    assert rho == pytest.approx(0.9, abs=1e-6)


def test_gelfand_agrees_with_eigensolver():
    assert gelfand_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9, abs=1e-6)
    assert gelfand_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0
    rng = np.random.default_rng(8)
    for _ in range(10):
        M = rng.uniform(-1.0, 1.0, size=(5, 5))
        rho = spectral_radius(M)
        assert gelfand_radius(M) == pytest.approx(rho, rel=1e-6)


def test_kron_square_law():
    rng = np.random.default_rng(10)
    M = rng.uniform(-1.0, 1.0, size=(4, 4))
    assert spectral_radius(_half_kron(M)) == pytest.approx(
        spectral_radius(M) ** 2, rel=1e-9)
