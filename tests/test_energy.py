import numpy as np
import pytest

from filmhom import ConfigurationError, DimensionMismatchError, EnergyDensity


def test_evaluate_p_norm_examples():
    W = EnergyDensity.p_norm_power(2.0, 1, 2)
    assert W.evaluate([[1.0, 0.0]]) == pytest.approx(1.0)
    W3 = EnergyDensity.p_norm_power(2.0, 1, 3)
    assert W3.evaluate([[1.0, 2.0, 2.0]]) == pytest.approx(9.0)


def test_evaluate_frobenius_example():
    W = EnergyDensity.frobenius_power(4.0, 1, 2)
    assert W.evaluate([[3.0, 4.0]]) == pytest.approx(625.0)


def test_gradient_examples():
    W = EnergyDensity.p_norm_power(2.0, 1, 3)
    assert np.allclose(W.gradient([[1.0, 2.0, 2.0]]), [[2.0, 4.0, 4.0]])
    Wq = EnergyDensity.quadratic_form(np.eye(4), 2, 2)
    F = np.array([[1.0, -2.0], [0.5, 3.0]])
    assert np.allclose(Wq.gradient(F), 2.0 * F)
    W4 = EnergyDensity.p_norm_power(4.0, 1, 2)
    assert np.allclose(W4.gradient([[1.0, 0.0]]), [[4.0, 0.0]])


def test_gradient_matches_directional_derivative(rng):
    densities = [
        EnergyDensity.p_norm_power(2.0, 2, 3),
        EnergyDensity.p_norm_power(4.0, 2, 3),
        EnergyDensity.frobenius_power(3.0, 2, 3),
        EnergyDensity.quadratic_form(np.eye(6) + 0.2 * np.ones((6, 6)), 2, 3),
    ]
    h = 1e-5
    for W in densities:
        for _ in range(10):
            F = rng.uniform(-2, 2, size=(2, 3))
            G = rng.uniform(-1, 1, size=(2, 3))
            fd = (W.evaluate(F + h * G) - W.evaluate(F - h * G)) / (2 * h)
            an = float(np.sum(W.gradient(F) * G))
            assert fd == pytest.approx(an, rel=1e-4, abs=1e-8)


def test_custom_density_fd_gradient(rng):
    W = EnergyDensity.custom(
        lambda G: np.sum(G * G, axis=(0, 1)) + np.sum(np.abs(G) ** 4, axis=(0, 1)),
        p=4.0, m=1, n=2)
    F = np.array([[0.7, -1.2]])
    expected = 2 * F + 4 * np.abs(F) ** 3 * np.sign(F)
    assert np.allclose(W.gradient(F), expected, rtol=1e-5, atol=1e-5)


def _counted(f, calls):
    def counted(G):
        calls.append(G.shape)
        return f(G)
    return counted


def _cube_norm(G):
    return np.sum(G * G, axis=(0, 1)) ** 1.5


def _cube_norm_grad(G):
    return 3.0 * np.sqrt(np.sum(G * G, axis=(0, 1))) * G


def test_custom_stress_is_one_pass_over_the_stack(rng):
    # without grad: one central difference per matrix entry over the whole
    # stack, 2 m n calls of fn; with grad: one call
    G = rng.uniform(-1, 1, size=(2, 3, 64, 64))
    fn_calls, grad_calls = [], []
    W = EnergyDensity.custom(_counted(_cube_norm, fn_calls), p=3.0, m=2, n=3)
    fn_calls.clear()
    S = W.cell_stress(G)
    assert fn_calls == [G.shape] * (2 * 2 * 3)
    assert np.allclose(S, _cube_norm_grad(G), rtol=1e-6, atol=1e-8)
    Wg = EnergyDensity.custom(_cube_norm, p=3.0, m=2, n=3,
                              grad=_counted(_cube_norm_grad, grad_calls))
    grad_calls.clear()
    assert np.array_equal(Wg.cell_stress(G), _cube_norm_grad(G))
    assert grad_calls == [G.shape]


def test_custom_rejects_per_matrix_callables():
    with pytest.raises(ConfigurationError, match="custom density fn"):
        EnergyDensity.custom(lambda F: float(np.sum(F * F) ** 1.5), p=3.0,
                             m=1, n=3)
    with pytest.raises(ConfigurationError, match="custom density grad"):
        EnergyDensity.custom(_cube_norm, p=3.0, m=1, n=3,
                             grad=lambda G: _cube_norm_grad(G)[:, :, 0])
    # a per-matrix callable that cannot take a stack at all
    with pytest.raises(ConfigurationError, match="custom density fn"):
        EnergyDensity.custom(lambda F: float((F[0, 0] ** 2 - 1.0) ** 2), p=4.0,
                             m=1, n=2)


def test_unknown_kind_rejected_at_construction():
    with pytest.raises(ConfigurationError, match="unknown density kind"):
        EnergyDensity(kind="ogden", p=2.0, m=1, n=2)


@pytest.mark.parametrize("kind,fields,named", [
    ("p_norm_power", dict(quad_matrix=np.eye(2)), "quad_matrix"),
    ("frobenius_power", dict(fn=_cube_norm), "fn"),
    ("p_norm_power", dict(grad_fn=_cube_norm_grad), "grad_fn"),
    ("p_norm_power", dict(convex=False), "convex"),
    ("quadratic_form", dict(quad_matrix=np.eye(2), fn=_cube_norm), "fn"),
    ("custom", dict(fn=_cube_norm, quad_matrix=np.eye(2)), "quad_matrix"),
    ("p_norm_power", dict(quad_matrix=np.eye(2), fn=print), "quad_matrix, fn"),
], ids=["matrix-on-norm", "fn-on-frobenius", "grad-on-norm", "convex-on-norm",
        "fn-on-form", "matrix-on-custom", "two-fields"])
def test_raw_constructor_refuses_fields_its_kind_does_not_read(kind, fields, named):
    with pytest.raises(ConfigurationError,
                       match=rf"^{named}: not read by density kind '{kind}'"):
        EnergyDensity(kind=kind, p=2.0, m=1, n=2, **fields)


def test_raw_custom_density_without_fn_refused_by_name():
    # it built, and its first evaluate raised a bare TypeError
    with pytest.raises(ConfigurationError, match="^fn of a custom density"):
        EnergyDensity(kind="custom", p=2.0, m=1, n=3)


def test_custom_constructor_without_fn_refused_by_name():
    with pytest.raises(ConfigurationError, match="^fn of a custom density"):
        EnergyDensity.custom(None, 2.0, 1, 3)


def test_growth_constants_and_label_are_no_fields():
    # p-growth is a hypothesis of the limits: no computation reads its
    # constants, and the label was read only by two error messages
    for extra in (dict(gamma=50.0), dict(beta=0.1), dict(label="x")):
        with pytest.raises(TypeError):
            EnergyDensity(kind="p_norm_power", p=2.0, m=1, n=2, **extra)
    # an old positional call with gamma and beta binds to no parameter
    with pytest.raises(TypeError):
        EnergyDensity.custom(_cube_norm, 3.0, 1, 2, 0.1, 10.0)


def test_custom_convexity_messages_name_the_custom_density():
    declared = EnergyDensity.custom(_cube_norm, p=3.0, m=1, n=2, convex=False)
    with pytest.raises(ConfigurationError, match="^custom density is declared non-convex"):
        declared.check_convexity()
    bad = EnergyDensity.custom(lambda G: np.sqrt(np.abs(G).sum(axis=(0, 1))),
                               p=2.0, m=1, n=2)
    with pytest.raises(ConfigurationError, match="^custom density failed sampled convexity"):
        bad.check_convexity()


def test_p_homogeneity_exact(rng):
    for W in (EnergyDensity.p_norm_power(3.0, 2, 2),
              EnergyDensity.frobenius_power(2.5, 2, 2)):
        for _ in range(10):
            F = rng.uniform(-2, 2, size=(2, 2))
            lam = rng.uniform(-3, 3)
            assert W.evaluate(lam * F) == pytest.approx(
                abs(lam) ** W.p * W.evaluate(F), rel=1e-12, abs=1e-12)


def test_evenness(rng):
    for W in (EnergyDensity.p_norm_power(2.0, 2, 2),
              EnergyDensity.frobenius_power(3.0, 2, 2)):
        for _ in range(10):
            F = rng.uniform(-2, 2, size=(2, 2))
            assert W.evaluate(-F) == pytest.approx(W.evaluate(F), rel=1e-14)


def test_convexity_sampled(rng):
    densities = [
        EnergyDensity.p_norm_power(1.5, 2, 2),
        EnergyDensity.p_norm_power(4.0, 2, 2),
        EnergyDensity.frobenius_power(2.0, 2, 2),
        EnergyDensity.quadratic_form(np.diag([1.0, 2.0, 3.0, 4.0]), 2, 2),
    ]
    for W in densities:
        for _ in range(30):
            F = rng.uniform(-2, 2, size=(2, 2))
            G = rng.uniform(-2, 2, size=(2, 2))
            lam = rng.uniform(0, 1)
            mid = W.evaluate(lam * F + (1 - lam) * G)
            assert mid <= lam * W.evaluate(F) + (1 - lam) * W.evaluate(G) + 1e-10


def test_growth_bounds(rng):
    # the builtins have p-growth, gamma |F|^p <= W(F) <= beta (1 + |F|^p),
    # with the sharp constants: sum_j |F_j|^p lies between |F|^p and
    # n^(1 - p/2) |F|^p, and a quadratic form between its extreme
    # eigenvalues times |F|^2
    for W, gamma, beta in (
            (EnergyDensity.p_norm_power(2.0, 2, 3), 1.0, 1.0),
            (EnergyDensity.p_norm_power(4.0, 1, 3), 1.0 / 3.0, 1.0),
            (EnergyDensity.p_norm_power(1.5, 1, 2), 1.0, 2.0 ** 0.25),
            (EnergyDensity.frobenius_power(3.0, 2, 2), 1.0, 1.0),
            (EnergyDensity.quadratic_form(np.diag([0.5, 1.0, 2.0, 3.0]), 2, 2), 0.5, 3.0)):
        for _ in range(50):
            F = rng.uniform(-3, 3, size=(W.m, W.n))
            w = W.evaluate(F)
            fro = float(np.linalg.norm(F))
            assert w >= gamma * fro ** W.p - 1e-12
            assert w <= beta * (1 + fro ** W.p) + 1e-12


def test_dimension_mismatch():
    W = EnergyDensity.p_norm_power(2.0, 1, 3)
    with pytest.raises(DimensionMismatchError):
        W.evaluate([[1.0, 2.0]])
    with pytest.raises(DimensionMismatchError):
        W.gradient(np.ones((2, 3)))


def test_quadratic_form_requires_spd():
    with pytest.raises(ConfigurationError):
        EnergyDensity.quadratic_form(-np.eye(4), 2, 2)
    with pytest.raises(ConfigurationError):
        EnergyDensity.quadratic_form(np.arange(16.0).reshape(4, 4), 2, 2)


def test_quadratic_form_refuses_p_other_than_2():
    # its growth is quadratic; a raw constructor kept p = 3
    with pytest.raises(ConfigurationError, match="^p of a quadratic_form density must be 2"):
        EnergyDensity(kind="quadratic_form", p=3.0, m=1, n=2, quad_matrix=np.eye(2))


def test_p_must_exceed_one():
    with pytest.raises(ConfigurationError):
        EnergyDensity.p_norm_power(1.0, 1, 2)
    with pytest.raises(ConfigurationError):
        EnergyDensity.frobenius_power(0.5, 1, 2)


def test_custom_convexity_check_catches_violation():
    W = EnergyDensity.custom(lambda G: np.sqrt(np.abs(G).sum(axis=(0, 1))),
                             p=2.0, m=1, n=2)
    with pytest.raises(ConfigurationError):
        W.check_convexity()


@pytest.mark.parametrize("make", [EnergyDensity.p_norm_power,
                                  EnergyDensity.frobenius_power])
def test_smoothed_terms_below_two_match_stress_and_values(make, rng):
    # for p < 2 cell_stress smooths the column norms at the scale 1e-8, while
    # cell_values stays the exact density: columns of norm ~1e-9 tell the two
    # apart.  Far above the smoothing scale the stress is the derivative of
    # the exact values.
    W = make(1.5, 2, 3)
    G = 1e-9 * rng.uniform(-1, 1, size=(2, 3, 7))
    columns = np.sqrt(np.sum(G * G, axis=0))
    exact = (np.sum(columns ** 1.5, axis=0) if W.kind == "p_norm_power"
             else np.sqrt(np.sum(G * G, axis=(0, 1))) ** 1.5)
    assert np.allclose(W.cell_values(G), exact, rtol=1e-12, atol=0)
    G = rng.uniform(0.5, 1.5, size=(2, 3, 7)) * rng.choice([-1, 1], size=(2, 3, 7))
    h = 1e-6
    for _ in range(5):
        D = rng.uniform(-1, 1, size=G.shape)
        fd = (W.cell_values(G + h * D) - W.cell_values(G - h * D)) / (2 * h)
        an = np.sum(W.cell_stress(G) * D, axis=(0, 1))
        assert np.allclose(fd, an, rtol=1e-6, atol=0)
