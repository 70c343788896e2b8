import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmhom import (ConfigurationError, DimensionMismatchError, EnergyDensity, Profile,
                     SolverOptions, StructuralInconsistencyError, bounds_check,
                     kernel, minimize_periodic, phi_sharp, psi,
                     psi_cylinder_oracle, superlevel_mask, thresholds, w_hom,
                     w_hom_cube_oracle, w_tilde)
from filmhom import homogenize
from filmhom.profiles import wrap_lattice


def stripe_theta(t):
    # measure of {sin^2(pi x) > 2t - 1} for t > 1/2, else 1
    if t <= 0.5:
        return 1.0
    return 1.0 - (2.0 / np.pi) * np.arcsin(np.sqrt(2.0 * t - 1.0))


# -- phi_sharp -------------------------------------------------------------


def test_phi_full_mask_is_norm(product2):
    s = phi_sharp(product2, 0.3, [[1.0, 1.0]], 64)
    assert s.value == pytest.approx(2.0, abs=1e-10)
    assert s.theta == 1.0


def test_phi_blobs_vanish(product2):
    s = phi_sharp(product2, 0.7, [[1.0, 1.0]], 64)
    assert s.value <= 1e-6


def test_phi_stripe_theta(stripe2):
    s = phi_sharp(stripe2, 0.75, [[1.0, 1.0]], 128)
    assert s.value == pytest.approx(stripe_theta(0.75), rel=0.02)


def test_phi_monotone_in_t(stripe2, product2):
    for prof in (stripe2, product2):
        values = [phi_sharp(prof, t, [[0.8, 0.6]], 32).value
                  for t in np.linspace(0.05, 0.95, 10)]
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))


def test_phi_p_homogeneous(stripe2):
    base = phi_sharp(stripe2, 0.6, [[1.0, 0.5]], 32).value
    for lam in (2.0, -0.7):
        v = phi_sharp(stripe2, 0.6, [[lam, 0.5 * lam]], 32).value
        assert v == pytest.approx(abs(lam) ** 2 * base, rel=1e-8)


def test_phi_even_in_t(stripe2):
    a = phi_sharp(stripe2, 0.6, [[1.0, 1.0]], 32).value
    b = phi_sharp(stripe2, -0.6, [[1.0, 1.0]], 32).value
    assert a == b


# -- psi and its cylinder oracle --------------------------------------------


def test_psi_full_mask_example():
    flat1 = Profile.constant(1)
    s = psi(flat1, 0.4, [[1.0, 2.0]], 16)
    assert s.value == pytest.approx(5.0, abs=1e-12)


def test_psi_zero_transverse_column_reduces_to_phi(stripe2):
    a = psi(stripe2, 0.6, [[1.0, 0.5, 0.0]], 32)
    b = phi_sharp(stripe2, 0.6, [[1.0, 0.5]], 32)
    assert a.value == pytest.approx(b.value, abs=1e-14)


def test_psi_kernel_interval_keeps_transverse_term(product2):
    s = psi(product2, 0.7, [[1.0, 1.0, 1.0]], 64)
    assert s.value == pytest.approx(s.theta, abs=1e-6)


def test_psi_cylinder_full(product2):
    s = psi_cylinder_oracle(product2, 0.3, [[1.0, -2.0, 0.5]], 16)
    assert s.report.converged
    assert s.value == pytest.approx(1 + 4 + 0.25, abs=1e-10)


def test_psi_cylinder_matches_split_form(stripe2):
    F = np.array([[1.0, 1.0, 1.0]])
    a = psi(stripe2, 0.75, F, 64).value
    b = psi_cylinder_oracle(stripe2, 0.75, F, 64).value
    assert abs(a - b) <= 1e-6


def test_psi_cylinder_randomized(product2, stripe2, checker2, rng):
    profiles = [product2, stripe2, checker2]
    for i in range(6):
        prof = profiles[i % 3]
        t = rng.uniform(0.05, 0.9)
        F = rng.uniform(-1, 1, size=(1, 3))
        a = psi(prof, t, F, 32).value
        b = psi_cylinder_oracle(prof, t, F, 32).value
        assert abs(a - b) <= 1e-6


def test_psi_cylinder_reports_nonconvergence(product2):
    # product islands at t = 0.7: one preconditioned iteration cannot solve
    # the cylinder, and the oracle must say so rather than return a bare value
    s = psi_cylinder_oracle(product2, 0.7, [[1.0, 1.0, 1.0]], 16,
                            opts=SolverOptions(max_iterations=1))
    assert s.report.iterations == 1
    assert s.report.converged is False


def test_psi_empty_superlevel(product2):
    # above the largest sampled value the discrete superlevel set is empty
    s = psi(product2, 0.9995, [[1.0, 1.0, 1.0]], 64)
    assert s.value == 0.0
    assert s.theta == 0.0


# -- w_hom -------------------------------------------------------------------


def test_whom_full_mask_identity(product2, W3):
    F = np.array([[1.0, 2.0, 0.5]])
    s = w_hom(product2, 0.3, F, W3, 16)
    assert s.value == pytest.approx(W3.evaluate(F), abs=1e-10)
    Wq = EnergyDensity.quadratic_form(np.diag([1.0, 2.0, 3.0]), 1, 3)
    s = w_hom(product2, 0.3, F, Wq, 16)
    assert s.value == pytest.approx(Wq.evaluate(F), abs=1e-10)


def test_whom_pnorm_reduces_to_psi(stripe2, product2, W3, rng):
    for prof in (stripe2, product2):
        for _ in range(3):
            t = rng.uniform(0.1, 0.9)
            F = rng.uniform(-1, 1, size=(1, 3))
            a = w_hom(prof, t, F, W3, 32).value
            b = psi(prof, t, F, 32).value
            assert abs(a - b) <= 1e-6


def test_whom_quadratic_stripe_value(stripe2):
    Wq = EnergyDensity.quadratic_form(np.eye(3), 1, 3)
    s = w_hom(stripe2, 0.75, [[1.0, 1.0, 1.0]], Wq, 64)
    assert s.value == pytest.approx(stripe_theta(0.75) * 2.0, rel=0.02)


def _random_spd(seed, size):
    B = np.random.default_rng(seed).uniform(-1, 1, (size, size))
    return B @ B.T + size * np.eye(size)


@pytest.mark.parametrize("nz", [1, 2, 3])
@pytest.mark.parametrize("profile", ["sin2-stripe", "checkerboard"])
@pytest.mark.parametrize("density", [
    lambda: EnergyDensity.p_norm_power(3.0, 1, 3),
    lambda: EnergyDensity.frobenius_power(3.0, 1, 3),
    lambda: EnergyDensity.quadratic_form(_random_spd(7, 3), 1, 3),
], ids=["p_norm3", "frobenius3", "quadratic"])
def test_whom_one_layer_matches_layered_cylinder(density, profile, nz):
    # the cylinder mask is constant along x_n, so w_hom's in-plane solve with
    # F's last column as an offset must reproduce a solve on nz genuine
    # vertical layers
    prof = Profile.builtin(profile, dim=2)
    W = density()
    t, n = 0.6, 12
    F = np.array([[0.5, -0.7, 0.9]])
    occ = superlevel_mask(prof, t, n)
    layered = np.broadcast_to(occ[..., np.newaxis], occ.shape + (nz,)).copy()
    ref, _, report = minimize_periodic(layered, W, F)
    assert report.converged
    sample = w_hom(prof, t, F, W, n)
    assert sample.report.converged
    assert sample.value == pytest.approx(ref, abs=1e-9)


def test_whom_p3_descent_reaches_tolerance(checker2):
    # this probe used to stall at 641 iterations, residual 3.6e-7: the Armijo
    # and restart tests compared two rounded energy totals, which stop
    # resolving the decrease long before the gradient tolerance
    W = EnergyDensity.p_norm_power(3.0, 1, 3)
    F = np.random.default_rng(206).uniform(-1, 1, (1, 3))
    sample = w_hom(checker2, 0.5, F, W, 32)
    assert sample.report.method == "newton"
    assert sample.report.converged
    split = psi(checker2, 0.5, F, 32, p=3.0)
    assert split.report.converged
    assert sample.value == pytest.approx(split.value, abs=1e-6)


@pytest.mark.parametrize("kind,t,F,n", [
    ("p_norm_power", 0.5, np.random.default_rng(10).uniform(-1, 1, (1, 3)), 32),
    ("p_norm_power", 0.5, np.random.default_rng(31).uniform(-1, 1, (1, 3)), 32),
    ("p_norm_power", 0.5, np.random.default_rng(46).uniform(-1, 1, (1, 3)), 32),
    ("frobenius_power", 0.6, np.array([[0.3, 0.2, 2.0]]), 24),
], ids=["seed10", "seed31", "seed46", "frobenius"])
def test_whom_descent_converges_near_tolerance(checker2, kind, t, F, n):
    # these solves stalled short of grad_tol (residuals 1.1e-7 to 1.6e-6)
    # while the step and restart tests compared energies: near the
    # tolerance the decrease is below what a sum of cell energies resolves
    W = getattr(EnergyDensity, kind)(3.0, 1, 3)
    sample = w_hom(checker2, t, F, W, n)
    assert sample.report.method == "newton"
    assert sample.report.converged
    if kind == "p_norm_power":
        split = psi(checker2, t, F, n, p=3.0)
        assert split.report.converged
        assert sample.value == pytest.approx(split.value, abs=1e-9)


def test_whom_rejects_declared_nonconvex():
    # the declaration alone decides: the density is convex, but no chord
    # is sampled for a density declared non-convex
    declared = EnergyDensity.custom(lambda G: np.sum(G * G, axis=(0, 1)), p=2.0,
                                    m=1, n=3, convex=False)
    with pytest.raises(ConfigurationError, match="declared non-convex"):
        w_hom(Profile.builtin("sin2-stripe", dim=2), 0.3, [[1.0, 0.0, 0.0]],
              declared, 8)


def test_whom_rejects_a_density_of_another_shape(product2, W2):
    with pytest.raises(DimensionMismatchError, match="W is declared for 1x2 matrices; "
                                                     "this problem needs 1x3"):
        w_hom(product2, 0.3, [[1.0, 0.0, 0.0]], W2, 8)


def test_whom_rejects_nonconvex():
    bad = EnergyDensity.custom(lambda G: np.sqrt(np.abs(G).sum(axis=(0, 1))),
                               p=2.0, m=1, n=3)
    prof = Profile.builtin("sin2-stripe", dim=2)
    with pytest.raises(ConfigurationError):
        w_hom(prof, 0.3, [[1.0, 0.0, 0.0]], bad, 8)


# -- growing-cube oracle -------------------------------------------------------


def test_cube_full_mask_box_one(product2, W3):
    F = np.array([[1.0, -0.5, 2.0]])
    v, report = w_hom_cube_oracle(product2, 0.3, F, W3, 1, 8)
    assert report.converged
    assert v == pytest.approx(W3.evaluate(F), abs=1e-10)


def test_cube_monotone_toward_periodic(stripe2, W3):
    F = np.array([[1.0, 0.0, 0.0]])
    vals = [w_hom_cube_oracle(stripe2, 0.75, F, W3, T, 8)[0] for T in (1, 2, 4)]
    assert vals[2] <= vals[1] <= vals[0]
    periodic = w_hom(stripe2, 0.75, F, W3, 8).value
    assert all(v >= periodic - 1e-10 for v in vals)


def test_cube_rejects_non_integral_box_side(product2, W3):
    with pytest.raises(ConfigurationError, match="box_side"):
        w_hom_cube_oracle(product2, 0.3, [[1.0, 0.0, 0.0]], W3, 2.5, 8)


def test_cube_refuses_a_box_beyond_desk_scale(product2, W3):
    with pytest.raises(ConfigurationError, match="^box_side must be at most 8 at desk scale; got 9"):
        w_hom_cube_oracle(product2, 0.3, [[1.0, 0.0, 0.0]], W3, 9, 8)


def test_cube_empty_mask(product2, W3):
    for T in (1, 2):
        v, report = w_hom_cube_oracle(product2, 0.9995, [[1.0, 0.0, 0.0]], W3, T, 64)
        assert v == 0.0 and report.converged


# -- kernel and thresholds -------------------------------------------------------


def test_kernel_product_coercive(product2):
    k, xi = kernel(product2, 0.3, 64)
    assert k == 0
    assert len(xi) == 2


def test_kernel_product_degenerate(product2):
    k, xi = kernel(product2, 0.7, 64)
    assert k == 2
    assert xi == []


def test_kernel_stripe(stripe2):
    k, xi = kernel(stripe2, 0.7, 64)
    assert k == 1
    assert len(xi) == 1
    assert np.allclose(xi[0], (0.0, 1.0), atol=1e-12)


def test_kernel_inconsistency_raises(monkeypatch, checker2):
    # above the floor the checkerboard squares meet only at corners: the
    # face lattice is empty, but the node lattice holds the winding (1, -1),
    # and the two lattices decide it with no solve
    solves = []
    monkeypatch.setattr(homogenize, "minimize_periodic",
                        lambda *a, **k: solves.append(a) or minimize_periodic(*a, **k))
    with pytest.raises(StructuralInconsistencyError) as err:
        kernel(checker2, 0.6, 32)
    assert solves == []
    assert err.value.geometric == "face lattice ()"
    assert err.value.energetic == "node lattice ((1, -1),)"
    assert "(1, -1)" in str(err.value)


@st.composite
def probe_masks(draw):
    """Random cell masks: 2-d with sides 3-12, or 3-d with sides 3-6, each
    cell occupied with a drawn probability in [0.3, 0.8]."""
    d = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(3, 12 if d == 2 else 6)) for _ in range(d))
    fill = draw(st.floats(0.3, 0.8))
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(shape) < fill


@settings(max_examples=80, deadline=None)
@given(probe_masks())
def test_lattice_ranks_decide_the_energetic_probes(occ):
    # the energetic oracle of kernel's verdict: p = 2 cell values at an
    # orthonormal basis of the face span and of its complement.  A probe
    # vanishes iff it annihilates every node winding, and the face lattice
    # lies in the node lattice, so the ranks decide every probe
    faces = wrap_lattice(occ)
    nodes = wrap_lattice(occ, nodes=True)
    d = occ.ndim
    basis = (np.linalg.svd(np.array(faces, dtype=float))[2] if faces
             else np.eye(d))
    W = EnergyDensity.p_norm_power(2.0, 1, d)

    def probe(z):
        value, _, report = minimize_periodic(occ, W, z[np.newaxis, :])
        assert report.converged
        return value

    inside = [probe(z) for z in basis[:len(faces)]]
    outside = [probe(z) for z in basis[len(faces):]]
    assert any(v > 1e-6 for v in outside) == (len(nodes) > len(faces))
    if len(nodes) == len(faces):
        assert all(v <= 1e-12 for v in outside)
    assert all(v >= 1e-6 for v in inside)


def test_thresholds_constant():
    rep = thresholds(Profile.constant(2), 32)
    assert rep.thresholds == (1.0, 1.0)
    assert len(rep.intervals) == 1
    assert rep.intervals[0].wrap_rank == 2
    assert rep.intervals[0].kernel_dim == 0


def test_thresholds_product(product2):
    n = 128
    rep = thresholds(product2, n)
    tol = 2.0 / n
    assert abs(rep.thresholds[0] - 0.5) <= tol
    assert abs(rep.thresholds[1] - 0.5) <= tol


def test_thresholds_stripe(stripe2):
    n = 128
    rep = thresholds(stripe2, n)
    tol = 2.0 / n
    assert abs(rep.thresholds[0] - 0.5) <= tol
    assert abs(rep.thresholds[1] - 1.0) <= tol
    upper = rep.intervals[-1]
    assert upper.wrap_rank == 1
    assert upper.kernel_dim == 1
    assert np.allclose(upper.xi[0], (0.0, 1.0), atol=1e-12)


def test_thresholds_weakly_increasing_and_xi_orthonormal(product2, stripe2, checker2):
    for prof in (product2, stripe2):
        rep = thresholds(prof, 64)
        assert all(a <= b + 1e-12 for a, b in
                   zip(rep.thresholds, rep.thresholds[1:]))
        for iv in rep.intervals:
            X = np.array(iv.xi, dtype=float)
            if X.size:
                assert np.allclose(X @ X.T, np.eye(len(iv.xi)), atol=1e-12)
    # checkerboard: skip the certification (see the dedicated test)
    rep = thresholds(checker2, 64, confirm=False)
    assert all(a <= b + 1e-12 for a, b in zip(rep.thresholds, rep.thresholds[1:]))


def test_thresholds_first_interval_coercive(product2, stripe2):
    # below the first drop the occupied set percolates in every direction
    for prof in (product2, stripe2):
        rep = thresholds(prof, 64)
        assert rep.intervals[0].wrap_rank == prof.dim
        assert rep.intervals[0].kernel_dim == 0


def test_level_preconditions(stripe2, W3):
    with pytest.raises(ConfigurationError):
        phi_sharp(stripe2, 1.0, [[1.0, 0.0]], 16)
    with pytest.raises(ConfigurationError):
        psi(stripe2, 0.5, [[1.0, 0.0, 0.0]], 1)
    # a NaN level passed a `level >= 1` test: an empty mask gave the value
    # 0 and a full kernel, silently
    nan = float("nan")
    for run in (lambda: phi_sharp(stripe2, nan, [[1.0, 0.0]], 16),
                lambda: w_tilde(stripe2, W3, nan, [[1.0, 0.0]], n_grid=16),
                lambda: kernel(stripe2, nan, 16)):
        with pytest.raises(ConfigurationError, match=r"^t must be a finite number in \(-1, 1\); got nan"):
            run()


def test_checkerboard_corner_contacts_flagged(checker2):
    # The open checkerboard squares only meet at points, which carry no
    # Sobolev capacity, so the degenerate verdict is geometric; the discrete
    # stencil couples the squares through the shared corner nodes and decays
    # only logarithmically: its node lattice outranks the face lattice, so
    # kernel must flag the clash instead of certifying either side.
    with pytest.raises(StructuralInconsistencyError):
        kernel(checker2, 0.6, 64)
    k, xi = kernel(checker2, 0.6, 64, confirm=False)
    assert k == 2 and xi == []


def test_thresholds_kernel_dim_scales_with_m(product2):
    rep = thresholds(product2, 32, m=3)
    assert rep.intervals[-1].kernel_dim == 2 * 3


@pytest.mark.parametrize("m", [0, -1, 1.5])
def test_kernel_and_thresholds_reject_bad_m(product2, m):
    # kernel takes no m: it only checked it, while thresholds multiplies
    # each kernel dimension by it
    with pytest.raises(ConfigurationError, match="^m must be"):
        thresholds(product2, 16, m=m)


def test_kernel_and_thresholds_read_an_integral_float_m(product2):
    # 2.0 is the count 2, as for box_side and vertical_cells
    assert thresholds(product2, 16, m=2.0) == thresholds(product2, 16, m=2)


# -- two-sided bounds --------------------------------------------------------


def test_bounds_stripe_interval(stripe2, rng):
    rep = thresholds(stripe2, 64)
    samples = [rng.uniform(-1, 1, size=(1, 3)) for _ in range(8)]
    out = bounds_check(stripe2, rep, 0.9, samples, 64)
    # on the stripe the ratio is exactly theta(t), so the fit brackets it
    assert out.alpha_hat >= stripe_theta(0.9) - 0.05
    assert out.beta_hat <= 1.0 + 1e-9
    assert 0 < out.alpha_hat <= out.beta_hat


def test_bounds_coercive_interval(stripe2, rng):
    rep = thresholds(stripe2, 64)
    samples = [rng.uniform(-1, 1, size=(1, 3)) for _ in range(6)]
    out = bounds_check(stripe2, rep, 0.3, samples, 64)
    assert out.alpha_hat > 0.0
    assert np.isfinite(out.beta_hat)


def test_bounds_excludes_pure_kernel_matrices(stripe2):
    rep = thresholds(stripe2, 64)
    # F with F_bar in the kernel (annihilates (0,1)) and no transverse column
    only_kernel = [np.array([[1.0, 0.0, 0.0]])]
    with pytest.raises(ConfigurationError):
        bounds_check(stripe2, rep, 0.9, only_kernel, 64)
