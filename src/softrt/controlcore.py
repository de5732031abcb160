"""Discretization, LQR/LQG synthesis and switched-mode stability algebra.

Matrices are dense float64 numpy arrays throughout.  The exponential, the
eigenvalue solver and the Riccati equation are delegated to scipy/LAPACK; the
mean-square test is implemented here because its exact form is what the
rest of the package is built around.  There is one second-moment
operator: the map V -> sum_i p_i M_i V M_i^T on the lower triangles of
symmetric V (_half_kron; stability_matrix for a ClosedLoopModes), and every
stochastic verdict is one solve on it (_mean_square_stable).
The switched loop's modes are built in moc, over the augmented state (x, z,
u_held): z is a dynamic controller's (E, F, G) state, absent under static
feedback u = -Kx.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgesv, dpotrf

from .errors import ConfigError, NumericalError
from .taskmodel import _positive


def _as_matrix(M, name: str) -> np.ndarray:
    """The one rule for a matrix: M as a 2-d float array of finite entries;
    else a ConfigError naming name."""
    try:
        A = np.asarray(M, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or an entry that is no number
        raise ConfigError("%s: expected a numeric matrix (list of rows)" % name) from None
    if A.ndim != 2:
        raise ConfigError("%s: expected a 2-d matrix, got shape %s" % (name, A.shape))
    if not np.isfinite(A).all():
        raise ConfigError("%s: entries must be finite" % name)
    return A


def _square(M, name: str) -> np.ndarray:
    A = _as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ConfigError("%s: expected a square matrix, got shape %s" % (name, A.shape))
    return A


def _shaped(M, name: str, shape: Tuple[int, int]) -> np.ndarray:
    A = _as_matrix(M, name)
    if A.shape != shape:
        raise ConfigError("%s: expected shape %s, got %s" % (name, shape, A.shape))
    return A


def _check_plant(plant) -> None:
    """Coerce a plant's A, B, C, D in place and check that their shapes agree."""
    plant.A = _square(plant.A, "plant.A")
    plant.B = _as_matrix(plant.B, "plant.B")
    plant.C = _as_matrix(plant.C, "plant.C")
    n, p, m = plant.A.shape[0], plant.B.shape[1], plant.C.shape[0]
    if plant.B.shape[0] != n:
        raise ConfigError("plant.B: row count must match A")
    if plant.C.shape[1] != n:
        raise ConfigError("plant.C: column count must match A")
    plant.D = _shaped(plant.D, "plant.D", (m, p))  # (rows of C, columns of B)


@dataclass
class ContinuousLti:
    """Plant dx/dt = A x + B u, y = C x + D u."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        _check_plant(self)

    @classmethod
    def from_ab(cls, A, B):
        A = _square(A, "plant.A")
        B = _as_matrix(B, "plant.B")
        n = A.shape[0]
        return cls(A, B, np.eye(n), np.zeros((n, B.shape[1])))


@dataclass
class DiscreteLti:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    sample_period: float

    def __post_init__(self):
        _check_plant(self)
        _positive(self.sample_period, "plant.sample_period")


@dataclass
class ControllerLti:
    """Discrete controller z' = E z + F y, u = G z."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        self.E = _square(self.E, "controller.E")
        self.F = _as_matrix(self.F, "controller.F")
        self.G = _as_matrix(self.G, "controller.G")
        q = self.E.shape[0]
        if self.F.shape[0] != q or self.G.shape[1] != q:
            raise ConfigError("controller.F: state dimensions must agree with E")


def _weight(M, name: str, n=None, definite=False) -> np.ndarray:
    """M, if square (n x n when n is given), symmetric and positive definite
    or, unless definite, semidefinite: no eigenvalue below minus rounding."""
    M = _square(M, name) if n is None else _shaped(M, name, (n, n))
    if not np.allclose(M, M.T, atol=1e-12):
        raise ConfigError("%s: must be symmetric" % name)
    low = np.min(np.linalg.eigvalsh(M))
    if definite and low <= 0:
        raise ConfigError("%s: must be positive definite" % name)
    if low < -1e-12 * max(1.0, np.max(np.abs(M))):
        raise ConfigError("%s: must be positive semidefinite" % name)
    return M


@dataclass
class ClosedLoopModes:
    """Switched transition matrices over a common augmented state."""

    labels: List[str]
    matrices: List[np.ndarray]
    probabilities: Optional[List[float]] = None

    def __post_init__(self):
        if not self.matrices:
            raise ConfigError("modes.matrices: at least one mode required")
        self.matrices = [_square(M, "modes.matrices") for M in self.matrices]
        dim = self.matrices[0].shape[0]
        if any(M.shape[0] != dim for M in self.matrices):
            raise ConfigError("modes.matrices: all modes must share one dimension")
        if len(self.labels) != len(self.matrices):
            raise ConfigError("modes.labels: one label per matrix")
        if self.probabilities is not None:
            p = np.asarray(self.probabilities, dtype=float)
            if len(p) != len(self.matrices):
                raise ConfigError("modes.probabilities: one entry per matrix")
            if not np.isfinite(p).all() or (p < -1e-12).any() or abs(p.sum() - 1.0) > 1e-9:
                raise ConfigError("modes.probabilities: must be finite, >= 0 and sum to 1")
            self.probabilities = [float(x) for x in p]

    @property
    def augmented_dim(self) -> int:
        return self.matrices[0].shape[0]


# ---------------------------------------------------------------------------
# numerics


def c2d(plant: ContinuousLti, T: float) -> DiscreteLti:
    """Zero-order-hold discretization over a sampling period of T seconds.

    Computes [A_d, B_d] from one exponential of the (n+p) augmented matrix
    [[A, B], [0, 0]] * T, which evaluates both e^{AT} and the held-input
    integral at once.
    """
    _positive(T, "T")
    n, p = plant.A.shape[0], plant.B.shape[1]
    aug = np.zeros((n + p, n + p))
    aug[:n, :n] = plant.A
    aug[:n, n:] = plant.B
    E = scipy.linalg.expm(aug * T)
    return DiscreteLti(E[:n, :n], E[:n, n:], plant.C.copy(), plant.D.copy(), T)


def dlqr(A, B, Qx, Ru) -> Tuple[np.ndarray, np.ndarray]:
    """Infinite-horizon discrete LQR: (K, P) with u = -Kx, K = (Ru + B'PB)^-1 B'PA.

    P solves P = Qx + A'PA - A'PB (Ru + B'PB)^-1 B'PA directly (scipy's
    generalized-eigenvalue method, Arnold & Laub 1984).  It is accepted if its
    residual is small relative to max(1, |P|) and A - BK is Schur stable;
    otherwise NumericalError names the cause found by a PBH test on (A, B).
    """
    A = _square(A, "dlqr.A")
    B = _as_matrix(B, "dlqr.B")
    Qx = _weight(Qx, "weights.Qx")
    Ru = _weight(Ru, "weights.Ru", definite=True)
    n, p = B.shape
    if n != A.shape[0]:
        raise ConfigError("dlqr.B: row count must match A")
    _shaped(Qx, "weights.Qx", (n, n))
    _shaped(Ru, "weights.Ru", (p, p))
    try:
        P = scipy.linalg.solve_discrete_are(A, B, Qx, Ru)
        K = np.linalg.solve(Ru + B.T @ P @ B, B.T @ P @ A)
        # valid solutions for nearly uncontrollable plants (|P| ~ 1e9) leave ~1e-7
        residual = np.max(np.abs(Qx + A.T @ P @ (A - B @ K) - P))
        if residual <= 1e-6 * max(1.0, np.max(np.abs(P))) and \
                spectral_radius(A - B @ K) < 1.0:
            return K, P
    except (np.linalg.LinAlgError, ValueError):  # ValueError: QZ reordering failed
        pass
    lam = _unreachable_mode(A, B)
    if lam is None:
        raise NumericalError("dlqr: no stabilizing solution for these weights")
    raise NumericalError("dlqr: (A, B) is not stabilizable: mode lambda = %s is "
                         "uncontrollable" % lam)


def _unreachable_mode(A, B):
    """A mode |lambda| >= 1 of A that B cannot reach, rounded, or None.

    PBH test: rank [A - lambda I, B] < n.
    """
    for lam in np.linalg.eigvals(A):
        s = np.linalg.svd(np.hstack([A - lam * np.eye(len(A)), B]), compute_uv=False)
        if abs(lam) >= 1 - 1e-9 and s[-1] <= 1e-8 * max(1.0, s[0]):
            return np.real_if_close(np.round(lam, 6))
    return None


def kalman_gain(A, C, Wproc=None, Wmeas=None) -> np.ndarray:
    """Steady-state observer gain via LQR duality: L = dlqr(A', C', Wp, Wm)'.

    Noise weights default to identity covariances.  A - LC is the transpose
    of A' - C'L', which dlqr has checked to be Schur stable; when it fails,
    the PBH test on (A', C') finds a mode of A that C does not observe.
    """
    A = _square(A, "kalman.A")
    C = _as_matrix(C, "kalman.C")
    n, m = A.shape[0], C.shape[0]
    if C.shape[1] != n:
        raise ConfigError("kalman.C: column count must match A")
    Wproc = np.eye(n) if Wproc is None else _weight(Wproc, "kalman.Wproc", n)
    Wmeas = np.eye(m) if Wmeas is None else _weight(Wmeas, "kalman.Wmeas", m, definite=True)
    try:
        K, _ = dlqr(A.T, C.T, Wproc, Wmeas)
    except NumericalError:
        lam = _unreachable_mode(A.T, C.T)
        if lam is None:
            raise NumericalError("kalman_gain: no stabilizing solution for these "
                                 "noise weights") from None
        raise NumericalError("kalman_gain: (A, C) is not detectable: mode lambda = %s "
                             "is unobservable" % lam) from None
    return K.T


def lqg_assemble(plant_d: DiscreteLti, K, L) -> ControllerLti:
    """Observer-based output-feedback controller from LQR and Kalman gains.

    z' = (A - BK - LC + LDK) z + L y,  u = -K z.  Closed-loop spectrum is
    eig(A-BK) together with eig(A-LC) by separation.
    """
    A, B, C, D = plant_d.A, plant_d.B, plant_d.C, plant_d.D
    K = _shaped(K, "lqg.K", (B.shape[1], A.shape[0]))  # (inputs, states)
    L = _shaped(L, "lqg.L", (A.shape[0], C.shape[0]))  # (states, outputs)
    E = A - B @ K - L @ C + L @ D @ K
    return ControllerLti(E, L, -K)


def gelfand_radius(M) -> float:
    """Spectral radius by normalized repeated squaring of the Frobenius norm.

    Independent of eigensolvers; converges like norm(M^(2^k))^(1/2^k).
    """
    X = _square(M, "gelfand.M").astype(float)
    acc = 0.0
    weight = 1.0
    for _ in range(27):  # the norms of M, M^2, M^4, ..., M^(2^26)
        n = float(np.linalg.norm(X))
        if n == 0.0:
            return 0.0
        acc += weight * math.log(n)
        X = (X / n) @ (X / n)
        weight /= 2.0
    return math.exp(acc)


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus.

    Delegates to the LAPACK QR eigensolver; if that fails to converge the
    Gelfand repeated-squaring estimate is returned with a warning.
    """
    A = _square(M, "spectral_radius.M")
    if A.size == 0:
        return 0.0
    try:
        return float(np.max(np.abs(np.linalg.eigvals(A))))
    except np.linalg.LinAlgError:
        warnings.warn("eigenvalue iteration failed; returning approximate "
                      "Gelfand estimate", RuntimeWarning)
        return gelfand_radius(A)


# a second-moment operator counts as contracting when its spectral radius is
# below 1 - STABILITY_MARGIN, so rounding cannot decide a radius of exactly 1
STABILITY_MARGIN = 1e-9


@functools.cache
def _tril(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """np.tril_indices(m), read-only: the lower triangle, row by row."""
    rows, cols = np.tril_indices(m)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _half_kron(M: np.ndarray) -> np.ndarray:
    """The map V -> M V M^T on symmetric V, on lower triangles: row (i, j)
    and column (k, l), i >= j and k >= l in _tril order, hold the
    coefficient of V_kl in (M V M^T)_ij, that is M_ik M_jl + M_il M_jk
    (the second term only for k != l, where V_kl also stands for V_lk).
    Leading axes of M are a batch: M[..., i, k] gives H[..., (i, j), (k, l)]."""
    ri, rj = _tril(M.shape[-2])
    ck, cl = _tril(M.shape[-1])
    ri, rj = ri[:, None], rj[:, None]
    H = M[..., ri, ck] * M[..., rj, cl]
    off = ck != cl
    H[..., off] += M[..., ri, cl[off]] * M[..., rj, ck[off]]
    return H


@functools.lru_cache(maxsize=64)  # a sweep solves few distinct shapes many times
def _solve_setup(sides: Tuple[int, ...]) -> tuple:
    """(diagonal, rhs, parts) of _mean_square_stable for V_d of the given
    sides: the indices of the stacked operator's diagonal, the stacked lower
    triangles (_tril) of the identities, and the slice of the stack each V_d
    takes; read-only."""
    starts = np.cumsum([0] + [m * (m + 1) // 2 for m in sides])
    diagonal = np.arange(starts[-1])
    rhs = np.concatenate([np.eye(m)[_tril(m)] for m in sides])
    diagonal.flags.writeable = rhs.flags.writeable = False
    return (diagonal, diagonal), rhs, tuple(map(slice, starts, starts[1:]))


def _mean_square_stable(op: np.ndarray, sides: Sequence[int]) -> bool:
    """rho(op) < 1 - STABILITY_MARGIN, for op acting on the stacked lower
    triangles (_half_kron) of symmetric V_d of the given sides; overwrites
    op, in place when it is Fortran-ordered.  With c = 1 - STABILITY_MARGIN
    that holds iff (c I - op) V = I has a solution V >= I, V = sum op^k(I)
    / c^(k+1) (Costa, Fragoso & Marques 2005, ch. 3): one solve and a
    Cholesky of each V_d - I/2, whose margin keeps rounding from passing
    the tiny negative eigenvalue V has when rho is far above 1.  Non-finite
    V is not stable; callers ignore overflow.
    """
    if not len(op):  # no state, nothing to grow
        return True
    diagonal, rhs, parts = _solve_setup(tuple(sides))
    np.negative(op, out=op)  # c I - op, but for the sign of zeros
    op[diagonal] += 1.0 - STABILITY_MARGIN
    *_, V, singular = dgesv(op, rhs, overwrite_a=True)  # info > 0, not a warning
    if singular or not np.isfinite(V).all():
        return False
    for part, m in zip(parts, sides):
        B = np.zeros((m, m))
        B[_tril(m)] = V[part]
        B.flat[::m + 1] -= 0.5
        if dpotrf(B, lower=1)[1]:
            return False
    return True


def stability_matrix(modes: ClosedLoopModes) -> np.ndarray:
    """The second-moment operator sum_i p_i _half_kron(M_i) over the modes
    with p_i > 0: V -> E[M V M^T] on lower triangles.  It has the spectrum
    of sum_i p_i (M_i kron M_i) less the eigenvalues of antisymmetric V,
    which never set its spectral radius."""
    if modes.probabilities is None:
        raise ConfigError("modes.probabilities: must be filled for stability analysis")
    return sum(p * _half_kron(M) for p, M in zip(modes.probabilities, modes.matrices)
               if p > 0)


def second_moment_stable(modes: ClosedLoopModes) -> bool:
    """True iff the mode-switched second moment contracts:
    rho(stability_matrix) < 1 - STABILITY_MARGIN, by _mean_square_stable."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is not stable
        return _mean_square_stable(np.asfortranarray(stability_matrix(modes)),
                                   [modes.augmented_dim])
