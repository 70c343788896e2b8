"""Convex integrands with p-growth on m x n matrices.

Builtin densities:

* ``p_norm_power``   W(F) = sum_j |F_j|^p over columns (Euclidean column norms)
* ``frobenius_power``W(F) = |F|^p (Frobenius norm)
* ``quadratic_form`` W(F) = <A vec(F), vec(F)> with A symmetric positive definite
* ``custom``         black-box convex evaluator with optional gradient, both
                     on stacks of matrices (see ``EnergyDensity.custom``)

p-growth, gamma |F|^p <= W(F) <= beta (1 + |F|^p), is a hypothesis of the
limits: no computation reads gamma or beta, so a density carries neither.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, as_array, as_exponent, as_integer,
                     as_matrix)

_SMOOTH_EPS = 1e-8

# norm-power kinds W(G) = sum |G|^p, by the axes of the norm: per column, or
# over the whole matrix (Frobenius)
_NORM_AXES = {"p_norm_power": (0,), "frobenius_power": (0, 1)}
_KINDS = (*_NORM_AXES, "quadratic_form", "custom")
# the fields that one kind alone reads: field -> (that kind, default)
_KIND_FIELDS = {"quad_matrix": ("quadratic_form", None), "fn": ("custom", None),
                "grad_fn": ("custom", None), "convex": ("custom", True)}


@dataclass(frozen=True, eq=False)
class EnergyDensity:
    """A convex integrand W on m x n matrices with p-growth.

    Every constructor ends in ``__post_init__``, which reads p, m and n,
    each refused by name, and refuses by name a field that its kind does
    not read.  A quadratic form has p = 2 and reads ``quad_matrix``,
    read-only and refused by the name A unless symmetric positive definite;
    a custom density reads ``fn``, refused unless callable, ``grad_fn`` and
    ``convex``.  A density compares and hashes by identity."""

    kind: str
    p: float
    m: int
    n: int
    quad_matrix: np.ndarray | None = None
    fn: object = None
    grad_fn: object = None
    convex: bool = True

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown density kind {self.kind!r}; expected one of {_KINDS}")
        unread = [name for name, (kind, default) in _KIND_FIELDS.items()
                  if kind != self.kind and getattr(self, name) is not default]
        if unread:
            raise ConfigurationError(
                f"{', '.join(unread)}: not read by density kind {self.kind!r}")
        if self.kind == "custom" and not callable(self.fn):
            raise ConfigurationError(
                f"fn of a custom density must be callable; got {self.fn!r:.80}")
        for name, read in (("p", as_exponent), ("m", as_integer), ("n", as_integer)):
            object.__setattr__(self, name, read(getattr(self, name), name))
        if self.kind == "quadratic_form":
            if self.p != 2.0:
                raise ConfigurationError(
                    f"p of a quadratic_form density must be 2; got {self.p}")
            A = np.array(as_array(self.quad_matrix, "A", (self.m * self.n,) * 2))
            A.flags.writeable = False
            if not np.allclose(A, A.T, atol=1e-12):
                raise ConfigurationError("A must be symmetric")
            low = np.linalg.eigvalsh(A)[0]
            if low <= 0:
                raise ConfigurationError(
                    f"A must be positive definite; min eigenvalue {low}")
            object.__setattr__(self, "quad_matrix", A)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def p_norm_power(p, m, n):
        return EnergyDensity(kind="p_norm_power", p=p, m=m, n=n)

    @staticmethod
    def frobenius_power(p, m, n):
        return EnergyDensity(kind="frobenius_power", p=p, m=m, n=n)

    @staticmethod
    def quadratic_form(A, m, n):
        return EnergyDensity(kind="quadratic_form", p=2.0, m=m, n=n, quad_matrix=A)

    @staticmethod
    def custom(fn, p, m, n, *, grad=None, convex=True):
        """A black-box density on stacks of matrices: ``fn`` maps G of shape
        (m, n, *cells) to the values W(G) of shape ``cells`` and ``grad``,
        if given, to the stresses W'(G) of shape (m, n, *cells).  Both are
        called once here on an (m, n, 2) probe stack, so that a per-matrix
        callable, which would return one value for the whole stack, is
        rejected by name."""
        W = EnergyDensity(kind="custom", p=p, m=m, n=n, fn=fn, grad_fn=grad,
                          convex=convex)
        probe = np.linspace(-1.0, 1.0, 2 * W.m * W.n).reshape(W.m, W.n, 2)
        for name, f, shape in (("fn", fn, (2,)), ("grad", grad, probe.shape)):
            if f is None:
                continue
            try:
                got = np.shape(f(probe))
            except (TypeError, ValueError, IndexError) as exc:
                got = f"an error ({exc})"
            if got != shape:
                raise ConfigurationError(
                    f"custom density {name} must map an (m, n, K) stack to "
                    f"shape {shape} at K = 2; got {got}")
        return W

    # -- properties --------------------------------------------------------

    @property
    def is_quadratic(self):
        """True when the stress G -> W'(G) is linear, so CG applies."""
        if self.kind == "quadratic_form":
            return True
        return self.kind in _NORM_AXES and self.p == 2.0

    @property
    def zeroing_columns_minimizes(self):
        """True when zeroing columns of G never raises W(G): the norm powers."""
        return self.kind in _NORM_AXES

    # -- pointwise evaluation ----------------------------------------------

    def evaluate(self, F):
        F = as_matrix(F, "F", (self.m, self.n))
        return float(self.cell_values(F[:, :, np.newaxis])[0])

    def gradient(self, F):
        """The stress W'(F) of one matrix: cell_stress on a one-cell stack."""
        F = as_matrix(F, "F", (self.m, self.n))
        return self.cell_stress(F[:, :, np.newaxis])[:, :, 0]

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
        return self.fn(G)

    def cell_stress(self, G):
        """Per-cell stresses W'(G), of G's shape.

        For p < 2 the norm-power stress is not Lipschitz at zero norms; a
        smoothed norm sqrt(|.|^2 + eps^2) with eps = 1e-8 is used there.  A
        custom density without ``grad`` takes central differences over the
        whole stack, entry by entry (2 m n calls of ``fn``), at the step
        1e-6 (1 + |G|) per cell."""
        p = self.p
        if self.kind in _NORM_AXES:
            if p == 2.0:
                return 2.0 * G
            norm = np.sqrt(np.sum(G * G, axis=_NORM_AXES[self.kind], keepdims=True))
            if p < 2.0:
                norm = np.sqrt(norm * norm + _SMOOTH_EPS ** 2)
            # a zero norm gives 0 ** (p - 2) = 0 for p > 2; below 2 it is smoothed
            return p * norm ** (p - 2.0) * G
        if self.kind == "quadratic_form":
            Gf = G.reshape(self.m * self.n, -1)
            out = 2.0 * (self.quad_matrix @ Gf)
            return out.reshape(G.shape)
        if self.grad_fn is not None:
            return self.grad_fn(G)
        h = 1e-6 * (1.0 + np.sqrt(np.sum(G * G, axis=(0, 1))))
        out = np.empty_like(G)
        E = np.zeros_like(G)
        for i in range(self.m):
            for j in range(self.n):
                E[i, j] = h
                out[i, j] = (self.fn(G + E) - self.fn(G - E)) / (2.0 * h)
                E[i, j] = 0.0
        return out

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
        a = p * sq ** (0.5 * p - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
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

    def check_convexity(self):
        """Sampled midpoint-convexity check on one stack of 200 seeded chords
        in [-2, 2]^(m x n) (three calls of ``fn``); raises where a midpoint
        exceeds its chord by more than 1e-10.

        Builtin kinds are convex by construction and pass without sampling.
        """
        if self.kind != "custom":
            return True
        if not self.convex:
            raise ConfigurationError("custom density is declared non-convex")
        F, G, lam = _chords(self.m, self.n)
        mid = self.fn(lam * F + (1 - lam) * G)
        chord = lam * self.fn(F) + (1 - lam) * self.fn(G)
        bad = np.flatnonzero(mid > chord + 1e-10)
        if bad.size:
            k = bad[0]
            raise ConfigurationError(
                f"custom density failed sampled convexity: "
                f"W(mid)={mid[k]} > chord={chord[k]}"
            )
        return True


@functools.cache
def _chords(m, n):
    """The 200 chords of ``check_convexity`` on m x n matrices, read-only:
    their ends F and G, of shape (m, n, 200), and their weights.  They are
    numpy's ``default_rng(0).uniform`` draws, reproduced without importing
    numpy's random package (the replica is imported here, as only a custom
    density draws), and drawn once per (m, n), since pure Python takes
    milliseconds for them."""
    from ._pcg64 import PCG64
    rng = PCG64(0)
    ends = rng.uniform(-2.0, 2.0, (2, m, n, 200))
    lam = rng.uniform(0.0, 1.0, (200,))
    ends.flags.writeable = lam.flags.writeable = False
    return ends[0], ends[1], lam
