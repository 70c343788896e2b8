"""Convex integrands with p-growth and the matrix split F = (in-plane | transverse).

Builtin densities:

* ``p_norm_power``   W(F) = sum_j |F_j|^p over columns (Euclidean column norms)
* ``frobenius_power``W(F) = |F|^p (Frobenius norm)
* ``quadratic_form`` W(F) = <A vec(F), vec(F)> with A symmetric positive definite
* ``custom``         black-box convex evaluator with optional gradient

All carry growth constants gamma <= beta with
gamma |F|^p <= W(F) <= beta (1 + |F|^p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError

_SMOOTH_EPS = 1e-8

# norm-power kinds W(G) = sum |G|^p, by the axes of the norm: per column, or
# over the whole matrix (Frobenius)
_NORM_AXES = {"p_norm_power": (0,), "frobenius_power": (0, 1)}


def as_matrix(F):
    """Coerce a DeformationGradient / array-like into a float (m, n) array."""
    if isinstance(F, DeformationGradient):
        return F.entries
    arr = np.asarray(F, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected an m x n matrix; got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class DeformationGradient:
    """An m x n matrix with accessors for the split into the first n-1 columns
    and the last column."""

    entries: np.ndarray

    def __post_init__(self):
        arr = as_matrix(self.entries).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @staticmethod
    def from_split(bar, last_column):
        bar = as_matrix(bar)
        last = np.asarray(last_column, dtype=float).reshape(bar.shape[0], 1)
        return DeformationGradient(np.hstack([bar, last]))

    @property
    def m(self):
        return self.entries.shape[0]

    @property
    def n(self):
        return self.entries.shape[1]

    @property
    def bar(self):
        return self.entries[:, :-1]

    @property
    def last_column(self):
        return self.entries[:, -1]


def _pnorm_growth_constants(p, n):
    # sharp ratio of sum_j a_j^p against (sum_j a_j^2)^(p/2)
    c = float(n) ** (1.0 - p / 2.0)
    return (min(1.0, c), max(1.0, c))


@dataclass(frozen=True)
class EnergyDensity:
    """A convex integrand W on m x n matrices with p-growth."""

    kind: str
    p: float
    m: int
    n: int
    gamma: float
    beta: float
    quad_matrix: np.ndarray | None = None
    fn: object = None
    grad_fn: object = None
    convex: bool = True
    label: str = ""

    # -- constructors -----------------------------------------------------

    @staticmethod
    def p_norm_power(p, m, n):
        if p <= 1:
            raise ConfigurationError(f"growth exponent must satisfy p > 1; got {p}")
        g, b = _pnorm_growth_constants(p, n)
        return EnergyDensity(kind="p_norm_power", p=float(p), m=m, n=n,
                             gamma=g, beta=b, label=f"p_norm_power(p={p})")

    @staticmethod
    def frobenius_power(p, m, n):
        if p <= 1:
            raise ConfigurationError(f"growth exponent must satisfy p > 1; got {p}")
        return EnergyDensity(kind="frobenius_power", p=float(p), m=m, n=n,
                             gamma=1.0, beta=1.0, label=f"frobenius_power(p={p})")

    @staticmethod
    def quadratic_form(A, m, n):
        A = np.asarray(A, dtype=float)
        if A.shape != (m * n, m * n):
            raise DimensionMismatchError(
                f"quadratic form matrix must be {(m * n, m * n)}; got {A.shape}"
            )
        if not np.allclose(A, A.T, atol=1e-12):
            raise ConfigurationError("quadratic form matrix must be symmetric")
        eigs = np.linalg.eigvalsh(A)
        if eigs[0] <= 0:
            raise ConfigurationError(
                f"quadratic form matrix must be positive definite; min eigenvalue {eigs[0]}"
            )
        A = A.copy()
        A.flags.writeable = False
        return EnergyDensity(kind="quadratic_form", p=2.0, m=m, n=n,
                             gamma=float(eigs[0]), beta=float(eigs[-1]),
                             quad_matrix=A, label="quadratic_form")

    @staticmethod
    def custom(fn, p, m, n, gamma, beta, grad=None, convex=True, label="custom"):
        if p <= 1:
            raise ConfigurationError(f"growth exponent must satisfy p > 1; got {p}")
        if not (0 < gamma <= beta):
            raise ConfigurationError(f"need 0 < gamma <= beta; got {gamma}, {beta}")
        return EnergyDensity(kind="custom", p=float(p), m=m, n=n,
                             gamma=float(gamma), beta=float(beta),
                             fn=fn, grad_fn=grad, convex=convex, label=label)

    # -- properties --------------------------------------------------------

    @property
    def is_quadratic(self):
        """True when the stress G -> W'(G) is linear, so CG applies."""
        if self.kind == "quadratic_form":
            return True
        return self.kind in _NORM_AXES and self.p == 2.0

    def check_dims(self, m, n):
        if (m, n) != (self.m, self.n):
            raise DimensionMismatchError(
                f"density declared for {self.m}x{self.n} matrices; got {m}x{n}"
            )

    # -- pointwise evaluation ----------------------------------------------

    def evaluate(self, F):
        F = as_matrix(F)
        self.check_dims(*F.shape)
        return float(self.cell_values(F[:, :, np.newaxis])[0])

    def gradient(self, F):
        """Analytic gradient for builtin kinds, central differences for custom.

        For p < 2 the column-norm gradient is not Lipschitz at zero columns;
        a smoothed norm sqrt(|.|^2 + eps^2) with eps = 1e-8 is used there.
        """
        F = as_matrix(F)
        self.check_dims(*F.shape)
        if self.kind == "custom" and self.grad_fn is None:
            return self._fd_gradient(F)
        return self.cell_stress(F[:, :, np.newaxis])[:, :, 0]

    def _fd_gradient(self, F):
        h = 1e-6 * (1.0 + float(np.linalg.norm(F)))
        g = np.empty_like(F)
        for i in range(self.m):
            for j in range(self.n):
                Fp = F.copy(); Fp[i, j] += h
                Fm = F.copy(); Fm[i, j] -= h
                g[i, j] = (self.fn(Fp) - self.fn(Fm)) / (2.0 * h)
        return g

    # -- vectorized per-cell evaluation (G has shape (m, n, *cells)) --------

    def cell_values(self, G):
        """Exact per-cell values W(G), also for p < 2."""
        if self.kind in _NORM_AXES:
            norm = np.sqrt(np.sum(G * G, axis=_NORM_AXES[self.kind], keepdims=True))
            return np.sum(norm ** self.p, axis=(0, 1))
        if self.kind == "quadratic_form":
            Gf = G.reshape(self.m * self.n, -1)
            vals = np.einsum("ik,ij,jk->k", Gf, self.quad_matrix, Gf)
            return vals.reshape(G.shape[2:])
        if self.kind == "custom":
            flat = G.reshape(self.m, self.n, -1)
            out = np.empty(flat.shape[2])
            for k in range(flat.shape[2]):
                out[k] = self.fn(flat[:, :, k])
            return out.reshape(G.shape[2:])
        raise ConfigurationError(f"unknown density kind {self.kind!r}")

    def cell_stress(self, G):
        p = self.p
        if self.kind in _NORM_AXES:
            if p == 2.0:
                return 2.0 * G
            norm = np.sqrt(np.sum(G * G, axis=_NORM_AXES[self.kind], keepdims=True))
            if p < 2.0:
                norm = np.sqrt(norm * norm + _SMOOTH_EPS ** 2)
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.where(norm > 0, norm ** (p - 2.0), 0.0 if p > 2 else 1.0)
            return p * scale * G
        if self.kind == "quadratic_form":
            Gf = G.reshape(self.m * self.n, -1)
            out = 2.0 * (self.quad_matrix @ Gf)
            return out.reshape(G.shape)
        if self.kind == "custom":
            flat = G.reshape(self.m, self.n, -1)
            out = np.empty_like(flat)
            for k in range(flat.shape[2]):
                Fk = flat[:, :, k]
                if self.grad_fn is not None:
                    out[:, :, k] = self.grad_fn(Fk)
                else:
                    out[:, :, k] = self._fd_gradient(Fk)
            return out.reshape(G.shape)
        raise ConfigurationError(f"unknown density kind {self.kind!r}")

    def cell_stress_derivative(self, G):
        """The tangent of cell_stress at G, as the linear map H -> DS(G)[H]
        on arrays of G's shape; its per-cell coefficients are computed here,
        once.

        A quadratic density's stress is linear, so it is its own tangent.
        For the other norm-power kinds DS(G)[H] = a H + c (G . H) G with
        a = p |G|^(p-2) and c = p (p-2) |G|^(p-4), the norm and the inner
        product taken per column or over the matrix as the kind says (for
        p < 2 on the smoothed norm of cell_stress); where |G| = 0, c is 0.
        When every norm is over one entry the map is diagonal.  For custom
        densities it is the one-sided difference of cell_stress along H,
        per cell over a step of 1e-6 (1 + |G|), reusing the stress at G."""
        if self.is_quadratic:
            return self.cell_stress
        if self.kind == "custom":
            S0 = self.cell_stress(G)
            step = 1e-6 * (1.0 + np.sqrt(np.sum(G * G, axis=(0, 1))))

            def difference(H):
                size = np.sqrt(np.sum(H * H, axis=(0, 1)))
                h = np.divide(step, size, out=np.zeros_like(size * step),
                              where=size > 0)
                return (self.cell_stress(G + h * H) - S0) * (size / step)
            return difference
        p = self.p
        axes = _NORM_AXES[self.kind]
        sq = np.sum(G * G, axis=axes, keepdims=True)
        if p < 2.0:
            sq = sq + _SMOOTH_EPS ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            a = p * np.where(sq > 0, sq ** (0.5 * p - 1.0), 0.0 if p > 2 else 1.0)
            c = np.where(sq > 0, (p - 2.0) * a / sq, 0.0)
        if all(G.shape[ax] == 1 for ax in axes):
            k = a + c * sq
            return lambda H: k * H
        cG = c * G
        return lambda H: a * H + np.sum(G * H, axis=axes, keepdims=True) * cG

    @property
    def uses_smoothing(self):
        return self.kind in _NORM_AXES and self.p < 2.0

    # -- hypothesis checks ---------------------------------------------------

    def check_convexity(self, rng=None, samples=200, scale=2.0, tol=1e-10):
        """Sampled midpoint-convexity check; raises for detected violations.

        Builtin kinds are convex by construction and pass without sampling.
        """
        if self.kind != "custom":
            return True
        if not self.convex:
            raise ConfigurationError(
                f"density {self.label!r} is declared non-convex"
            )
        rng = rng or np.random.default_rng(0)
        for _ in range(samples):
            F = rng.uniform(-scale, scale, size=(self.m, self.n))
            G = rng.uniform(-scale, scale, size=(self.m, self.n))
            lam = rng.uniform(0.0, 1.0)
            mid = self.fn(lam * F + (1 - lam) * G)
            chord = lam * self.fn(F) + (1 - lam) * self.fn(G)
            if mid > chord + tol:
                raise ConfigurationError(
                    f"density {self.label!r} failed sampled convexity: "
                    f"W(mid)={mid} > chord={chord}"
                )
        return True
