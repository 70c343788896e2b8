import re

import numpy as np
import pytest

from filmhom import (ConfigurationError, Profile, ResolutionError,
                     load_sampled_profile, oscillating_domain_mask,
                     save_sampled_profile, superlevel_mask, torus_components)


def test_eval_constant():
    p = Profile.constant(2)
    assert p.eval([0.3, 12.7]) == 1.0


def test_eval_builtin_values(product2, stripe2):
    assert product2.eval([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert stripe2.eval([0.0, 0.42]) == pytest.approx(0.5, abs=1e-15)
    assert stripe2.eval([0.5, 0.0]) == pytest.approx(1.0, abs=1e-15)
    assert stripe2.eval([0.25, 0.0]) == pytest.approx(0.75, abs=1e-15)


def test_eval_periodicity_exact(product2, stripe2, checker2, rng):
    # dyadic query points so that x + z is exactly representable
    sampled = Profile.sampled(np.array([[0.2, 1.0], [0.7, 0.4]]))
    for prof in (product2, stripe2, checker2, sampled):
        for _ in range(50):
            x = rng.integers(0, 512, size=2) / 512.0
            z = rng.integers(-7, 8, size=2).astype(float)
            assert prof.eval(x) == prof.eval(x + z)


def test_sampled_profile_roundtrip(tmp_path, stripe2):
    values = stripe2.eval_grid(16)
    values = values / values.max()  # callers must normalize to sup 1
    original = Profile.sampled(values)
    path = tmp_path / "f.txt"
    save_sampled_profile(values, path)
    loaded = load_sampled_profile(path)
    assert loaded.dim == 2
    assert np.array_equal(loaded.values, original.values)
    # masks of the saved profile match masks of the in-memory original
    a = superlevel_mask(original, 0.6, 16)
    b = superlevel_mask(loaded, 0.6, 16)
    assert np.array_equal(a, b)


def test_sampled_profile_validation():
    with pytest.raises(ConfigurationError):
        Profile.sampled(np.zeros((0,)))
    with pytest.raises(ConfigurationError):
        Profile.sampled(np.array([[0.5, 1.2], [0.1, 0.3]]))
    with pytest.raises(ConfigurationError):
        Profile.sampled(np.array([[0.5, 0.9], [0.1, 0.3]]))  # sup != 1
    # NaN slips past a range check: every comparison with it is False
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="finite"):
            Profile.sampled(np.array([[1.0, 0.5], [bad, 0.3]]))


@pytest.mark.parametrize("body", [
    "2 x\n1 1\n1 1\n", "2\n1\n", "0 2\n1\n", "2 -2\n1\n", "2.0 2\n1 1\n1 1\n",
    "2 2\n1 a\n1 1\n", "2 2\n1 1\n1\n", None,
], ids=["header-text", "header-short", "dim-zero", "n-negative", "dim-float",
        "entry-text", "ragged-rows", "missing-file"])
def test_malformed_sampled_profile_file_rejected_by_path(tmp_path, body):
    path = tmp_path / "f.txt"
    if body is not None:
        path.write_text(body, encoding="utf-8")
    with pytest.raises(ConfigurationError, match=re.escape(str(path))):
        load_sampled_profile(path)


@pytest.mark.parametrize("make, match", [
    (lambda: Profile.constant(0), "^dim must be an integer >= 1"),
    (lambda: Profile.constant(-1), "^dim must be an integer >= 1"),
    # a sampled profile's dim is the number of axes of its values
    (lambda: Profile.sampled(np.float64(1.0)), "^values must have at least one axis"),
    (lambda: Profile.builtin("sin2-stripe", 0), "^dim must be an integer >= 1"),
], ids=["constant-0", "constant-negative", "sampled-scalar", "builtin-0"])
def test_profile_of_dim_below_one_rejected_by_name(make, match):
    with pytest.raises(ConfigurationError, match=match):
        make()


def test_floor_is_the_profile_minimum():
    assert Profile.constant(2).floor == 1.0
    assert Profile.builtin("checkerboard", 2).floor == 0.25
    assert Profile.builtin("sin2-stripe", 1, floor=0.3).floor == 0.3
    # a sampled profile's floor is its grid minimum (it read 0.5 always)
    assert Profile.sampled(np.array([[0.2, 1.0], [0.7, 0.4]])).floor == 0.2


@pytest.mark.parametrize("make", [
    lambda: Profile.builtin("constant", 2, floor=0.3),
    lambda: Profile.builtin("constant", 2, floor=7.0),
    lambda: Profile(dim=2, kind="sampled", values=np.ones((2, 2)), floor=0.5),
    lambda: Profile.builtin("sin2-stripe", 2, floor=1.0),
], ids=["constant", "constant-out-of-range", "sampled", "builtin-out-of-range"])
def test_floor_that_is_not_the_minimum_rejected_by_name(make):
    # Profile.builtin("constant", ...) dropped its floor silently
    with pytest.raises(ConfigurationError, match="floor"):
        make()


def test_superlevel_constant_full():
    mask = superlevel_mask(Profile.constant(2), 0.5, 16)
    assert mask.shape == (16, 16) and mask.all()
    assert not mask.flags.writeable


def test_superlevel_product_below_floor_full(product2):
    assert superlevel_mask(product2, 0.3, 64).all()


def test_superlevel_stripe_theta(stripe2):
    # {sin^2(pi x) > 1/2} has measure exactly 1/2
    mask = superlevel_mask(stripe2, 0.75, 64)
    assert abs(mask.mean() - 0.5) <= 2.0 / 64


def test_superlevel_nesting_and_theta_monotone(stripe2, product2):
    for prof in (stripe2, product2):
        prev = None
        for t in np.linspace(0.05, 0.95, 10):
            mask = superlevel_mask(prof, t, 32)
            if prev is not None:
                assert not (mask & ~prev).any()
                assert mask.sum() <= prev.sum()
            prev = mask


def test_superlevel_even_in_t(stripe2):
    a = superlevel_mask(stripe2, 0.6, 32)
    b = superlevel_mask(stripe2, -0.6, 32)
    assert np.array_equal(a, b)


def test_torus_components_full_mask():
    comps = torus_components(np.ones((8, 8), bool))
    assert comps.num_components == 1
    assert len(comps.wrap_lattice) == 2
    span = np.array(comps.wrap_lattice, dtype=float)
    # unit vectors lie in the lattice span
    for e in np.eye(2):
        resid = e - span.T @ np.linalg.lstsq(span.T, e, rcond=None)[0]
        assert np.linalg.norm(resid) < 1e-12


def test_torus_components_stripe_wraps_one_direction(stripe2):
    comps = torus_components(superlevel_mask(stripe2, 0.75, 64))
    assert comps.wrap_lattice == ((0, 1),)


def test_torus_components_product_blobs(product2):
    comps = torus_components(superlevel_mask(product2, 0.75, 64))
    assert comps.wrap_lattice == ()
    assert comps.num_components == 1


def test_torus_components_empty():
    comps = torus_components(np.zeros((6, 6), bool))
    assert comps.num_components == 0
    assert comps.wrap_lattice == ()


def test_torus_labels_contiguous(checker2):
    comps = torus_components(superlevel_mask(checker2, 0.5, 16))
    occupied_labels = comps.labels[comps.labels >= 0]
    assert occupied_labels.size > 0
    assert set(np.unique(occupied_labels)) == set(range(comps.num_components))


def test_torus_rank_monotone_in_t(product2, stripe2, checker2):
    for prof in (product2, stripe2, checker2):
        ranks = [len(torus_components(superlevel_mask(prof, t, 32)).wrap_lattice)
                 for t in np.linspace(0.05, 0.95, 8)]
        assert all(b <= a for a, b in zip(ranks, ranks[1:]))


def test_diagonal_stripe_wrap_vector():
    # a one-cell-wide diagonal band wraps along (1, 1)
    n = 8
    idx = np.arange(n)
    mask = np.zeros((n, n), bool)
    mask[idx, idx] = True
    mask[idx, (idx + 1) % n] = True
    comps = torus_components(mask)
    assert comps.num_components == 1
    assert comps.wrap_lattice == ((1, 1),)


def test_oscillating_domain_constant_full():
    dm = oscillating_domain_mask(Profile.constant(2), 0.25, 0.25, (16, 16, 8))
    assert dm.occupancy.all()


def test_oscillating_domain_stripe_volume_fraction():
    # integral of 1/2 + sin^2(pi x)/2 over a period is 3/4
    prof = Profile.builtin("sin2-stripe", dim=1)
    dm = oscillating_domain_mask(prof, 0.25, 1.0 / 16, (128, 32))
    assert abs(dm.occupancy.mean() - 0.75) <= 2.0 / 32


def test_oscillating_domain_core_always_occupied():
    prof = Profile.builtin("sin2-stripe", dim=1, floor=0.25)
    dm = oscillating_domain_mask(prof, 1.0, 0.25, (64, 40))
    zc = -1.0 + (np.arange(40) + 0.5) * dm.spacings[-1]
    core = np.abs(zc) < 0.2
    assert dm.occupancy[:, core].all()


def test_oscillating_domain_vertical_symmetry():
    prof = Profile.builtin("sin2-stripe", dim=1)
    dm = oscillating_domain_mask(prof, 0.5, 0.25, (32, 16))
    assert np.array_equal(dm.occupancy, dm.occupancy[:, ::-1])


def test_oscillating_domain_resolution_error():
    prof = Profile.builtin("sin2-stripe", dim=1)
    with pytest.raises(ResolutionError) as err:
        oscillating_domain_mask(prof, 0.25, 1.0 / 16, (32, 8))
    assert err.value.required == 64
    assert "64" in str(err.value)


@pytest.mark.parametrize("omega, match", [
    (((1.0, 0.0),), "^omega intervals must be increasing"),
    (((0.0, 1.0), (0.0, 1.0)), r"^omega must have shape \(1, 2\); got \(2, 2\)"),
    (((0.0, float("nan")),), "^omega must hold finite numbers"),
    (((float("-inf"), 1.0),), "^omega must hold finite numbers"),
    (((0.0, 1.0, 2.0),), r"^omega must have shape \(1, 2\)"),
    (((0.0,),), r"^omega must have shape \(1, 2\)"),
    ((0.0, 1.0), r"^omega must have shape \(1, 2\)"),
    ((("a", 1.0),), "^omega must be a rectangular array of real numbers"),
], ids=["reversed", "two-for-dim-1", "nan", "inf", "triple", "single", "flat",
        "text"])
def test_oscillating_domain_rejects_bad_omega(omega, match):
    prof = Profile.builtin("sin2-stripe", dim=1)
    with pytest.raises(ConfigurationError, match=match):
        oscillating_domain_mask(prof, 0.25, 0.25, (16, 8), omega=omega)


@pytest.mark.parametrize("eps, delta", [(float("nan"), 0.25), (0.25, float("nan")),
                                        (0.0, 0.25), (0.25, -0.25)])
def test_oscillating_domain_rejects_bad_eps_or_delta(eps, delta):
    # a NaN eps passed an `eps <= 0` test and gave an empty slab
    prof = Profile.builtin("sin2-stripe", dim=1)
    name = "delta" if eps == 0.25 else "eps"
    with pytest.raises(ConfigurationError, match=rf"^{name} must be a finite number in \(0, inf\)"):
        oscillating_domain_mask(prof, eps, delta, (16, 8))


@pytest.mark.parametrize("cells", [16.7, True, 0], ids=["fraction", "bool", "zero"])
def test_oscillating_domain_refuses_a_grid_it_would_truncate(cells):
    # int() read (16.7, 8.9) as a 16 x 8 mask and True as one cell
    prof = Profile.builtin("sin2-stripe", dim=1)
    for grid in ((cells, 8), (16, cells)):
        with pytest.raises(ConfigurationError, match="^grid must be an integer >= 1"):
            oscillating_domain_mask(prof, 0.25, 0.25, grid)
    assert oscillating_domain_mask(prof, 0.25, 0.25, (16.0, 8)).occupancy.shape == (16, 8)


@pytest.mark.parametrize("n", [float("nan"), float("inf"), 2.5, 0, 1, True, "8"])
def test_eval_grid_refuses_a_bad_resolution_by_name(stripe2, n):
    # NaN raised a bare ValueError from arange, inf "Maximum allowed size
    # exceeded", 2.5 a TypeError, and 0 a message that did not say n_grid
    with pytest.raises(ConfigurationError, match="^n_grid must be"):
        stripe2.eval_grid(n)


def test_eval_grid_reads_an_integral_float_as_its_int(stripe2):
    assert stripe2.eval_grid(8.0) is stripe2.eval_grid(8)


def test_checkerboard_geometry(checker2):
    assert checker2.eval([0.1, 0.1]) == 1.0
    assert checker2.eval([0.6, 0.1]) == 0.25
    mask = superlevel_mask(checker2, 0.5, 16)
    assert mask.mean() == pytest.approx(0.5)
    comps = torus_components(mask)
    assert comps.wrap_lattice == ()
    assert comps.num_components == 2


def test_profile_refuses_an_unknown_kind_at_construction():
    with pytest.raises(ConfigurationError, match="unknown profile kind 'bogus'"):
        Profile(dim=2, kind="bogus")


def test_builtin_profile_refuses_values():
    with pytest.raises(ConfigurationError,
                       match="^values: not read by profile kind 'sin2-stripe'"):
        Profile(dim=1, kind="sin2-stripe", values=np.ones(4))


@pytest.mark.parametrize("dim,values,match", [
    (2, np.full((4, 4), 0.5), "^values must be normalized to sup f = 1"),
    (2, np.full((4, 4), 7.0), r"^values must lie in \[0, 1\]"),
    (2, np.ones((3, 5)), r"^values must be an N\*\*dim grid"),
    (3, np.ones((4, 4)), "^dim must be the 2 axes of values"),
], ids=["max-below-one", "above-one", "not-square", "dim"])
def test_raw_sampled_profile_keeps_the_rules_of_sampled(dim, values, match):
    # Profile(kind="sampled") skipped them: a max of 0.5 built a profile
    # whose masks raised IndexError, and 7.0 was kept with floor 7.0
    with pytest.raises(ConfigurationError, match=match):
        Profile(dim=dim, kind="sampled", values=values)


def test_raw_sampled_profile_holds_a_read_only_copy():
    values = np.ones((4, 4))
    profile = Profile(dim=2, kind="sampled", values=values)
    assert profile.values is not values and not profile.values.flags.writeable
    values[0, 0] = 0.5
    assert profile.eval_grid(4)[0, 0] == 1.0


def test_torus_components_takes_the_superlevel_mask_not_a_slab_result(stripe2):
    assert torus_components(superlevel_mask(stripe2, 0.75, 16)).wrap_lattice == ((0, 1),)
    with pytest.raises(ConfigurationError, match="^mask"):
        torus_components(oscillating_domain_mask(stripe2, 0.25, 0.25, (16, 16, 8)))


def test_profile_compares_and_hashes_by_identity():
    # the generated __eq__ compared the values arrays and raised ValueError,
    # and hash() raised TypeError
    values = [[1.0, 0.5], [0.5, 0.25]]
    a, b = Profile.sampled(values), Profile.sampled(values)
    assert (a == b) is False and a != b
    assert a == a
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert Profile.builtin("sin2-stripe", 1) != Profile.builtin("sin2-stripe", 1)
