"""The spectral preconditioner and the preconditioned CG of quadratic masked
solves, checked against dense and scipy.sparse references."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg

from filmhom import (EnergyDensity, Profile, SolverOptions, direct_min,
                     gamma_check, minimize_periodic, superlevel_mask)
from filmhom import cli
from filmhom.cell_solver import (_cell_gradient, _distinct, _frozen_ends, _Grid,
                                 _line_solvable, _solve_masked,
                                 _SpectralPreconditioner)
from filmhom.homogenize import psi_cylinder_oracle
from filmhom.profiles import oscillating_domain_mask

from conftest import active_nodes, forced_periodic_solve


# -- the preconditioner is the pseudo-inverse of the unmasked box operator ----


def dense_box_operator(grid):
    """sum_a L_a / h_a^2 on the interior nodes of the Dirichlet axes, built
    densely from 1-d second differences."""
    factors = []
    for kind, n, h in zip(grid.kinds, grid.node_shape, grid.spacings):
        if kind == "P":
            eye = np.eye(n)
            L = 2 * eye - np.roll(eye, 1, axis=0) - np.roll(eye, -1, axis=0)
        elif kind == "D":
            n -= 2
            L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        else:
            L = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
            L[0, 0] = L[-1, -1] = 1.0
        factors.append(L / h ** 2)
    sizes = [f.shape[0] for f in factors]
    total = np.zeros((int(np.prod(sizes)),) * 2)
    for a, L in enumerate(factors):
        term = np.ones((1, 1))
        for b, size in enumerate(sizes):
            term = np.kron(term, L if b == a else np.eye(size))
        total += term
    return total, sizes


@pytest.mark.parametrize("cells,periodic,dirichlet_axes", [
    ((7,), (True,), ()),
    ((6,), (False,), ()),
    ((7,), (False,), (0,)),
    ((4, 5), (True, True), ()),
    ((5, 4), (False, False), (0,)),
    ((6, 3), (False, False), (0, 1)),
    ((4, 3, 2), (True, True, True), ()),
    ((2, 5), (True, False), ()),
    ((5, 2), (False, True), (0,)),
    ((4, 5, 3), (True, False, False), (1,)),
    ((3, 4), (False, True), ()),
    ((2, 7, 3), (False, False, False), (0, 1)),
])
def test_preconditioner_inverts_box_operator(cells, periodic, dirichlet_axes, rng):
    spacings = tuple(rng.uniform(0.3, 2.0, size=len(cells)))
    kinds = "".join("P" if p else "D" if a in dirichlet_axes else "N"
                    for a, p in enumerate(periodic))
    grid = _Grid(cells=cells, spacings=spacings, kinds=kinds)
    select = ~_frozen_ends(grid)
    precond = _SpectralPreconditioner(grid, select)
    A, sizes = dense_box_operator(grid)
    window = (slice(None),) + precond.window
    r = np.zeros((2,) + grid.node_shape)
    r[window] = rng.standard_normal((2,) + tuple(sizes))
    z = precond(r, np.zeros_like(r))
    pinv = np.linalg.pinv(A)
    for i in range(2):
        ref = (pinv @ r[i][precond.window].ravel()).reshape(sizes)
        assert np.abs(z[i][precond.window] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(z[:, ~select] == 0.0)


def rfft_periodic_preconditioner(precond, r):
    """The preconditioner of an all-periodic grid with numpy's real FFT on
    the last axis and the spectrum in node order: the formulation that the
    length-2 butterfly replaces."""
    *rest, last = precond.periodic
    weights = np.moveaxis(precond.weights, 0, last)
    out = np.empty_like(r)
    for ri, zi in zip(r, out):
        spec = np.fft.rfft(ri, axis=last)
        for a in rest:
            spec = np.fft.fft(spec, axis=a)
        spec *= weights
        for a in rest:
            spec = np.fft.ifft(spec, axis=a)
        zi[...] = np.fft.irfft(spec, n=2, axis=last) * precond.select
    return out


@pytest.mark.parametrize("cells", [(64, 64, 2), (5, 7, 2), (33, 2), (2,)])
def test_length_two_axis_matches_real_fft_bit_for_bit(cells, rng):
    grid = _Grid(cells=cells, spacings=tuple(rng.uniform(0.3, 2.0, size=len(cells))),
                 kinds="P" * len(cells))
    precond = _SpectralPreconditioner(
        grid, active_nodes(grid, rng.random(cells) < 0.8))
    r = rng.standard_normal((2,) + grid.node_shape)
    assert np.array_equal(precond(r, np.empty_like(r)),
                          rfft_periodic_preconditioner(precond, r))


# -- scipy.sparse reference solves --------------------------------------------


def sparse_gradient(grid):
    """Scalar forward-difference matrix: (dim * cells) x nodes, rows in the
    (axis, cell) order of _cell_gradient."""
    cells = np.indices(grid.cells).reshape(grid.dim, -1)
    ncells = cells.shape[1]
    base = np.ravel_multi_index(cells, grid.node_shape)
    blocks = []
    for a in range(grid.dim):
        nb = cells.copy()
        nb[a] += 1
        if grid.kinds[a] == "P":
            nb[a] %= grid.cells[a]
        ahead = np.ravel_multi_index(nb, grid.node_shape)
        rows = np.arange(ncells)
        data = np.full(ncells, 1.0 / grid.spacings[a])
        blocks.append(sp.csr_matrix(
            (np.concatenate([data, -data]),
             (np.concatenate([rows, rows]), np.concatenate([ahead, base]))),
            shape=(ncells, grid.num_nodes)))
    return sp.vstack(blocks).tocsr()


def sparse_reference(grid, mask, A, F):
    """Minimize vol * sum_occupied <A (F + Dv), F + Dv> with scipy: assemble
    K and b, drop frozen and inactive nodes and one node per (connected
    component, field component), and solve the SPD remainder directly.
    Returns the minimizing node field (m, *nodes)."""
    m = F.shape[0]
    ncells = int(np.prod(grid.cells))
    D = sp.kron(sp.identity(m), sparse_gradient(grid)).tocsr()
    weight = grid.cell_volume * np.tile(mask.ravel().astype(float), m * grid.dim)
    S = sp.kron(2.0 * A, sp.identity(ncells))
    MS = sp.diags(weight) @ S
    K = (D.T @ MS @ D).tocsr()
    b = -(D.T @ (MS @ np.repeat(F.ravel(), ncells)))

    keep = active_nodes(grid, mask) & ~_frozen_ends(grid)
    keep = np.tile(keep.ravel(), m)
    if "D" not in grid.kinds:
        # gauge: pin one node of each connected component of each field component
        idx = np.flatnonzero(keep)
        ncomp, labels = scipy.sparse.csgraph.connected_components(
            K[idx][:, idx], directed=False)
        firsts = [idx[np.flatnonzero(labels == c)[0]] for c in range(ncomp)]
        keep[firsts] = False
    idx = np.flatnonzero(keep)
    v = np.zeros(m * grid.num_nodes)
    v[idx] = scipy.sparse.linalg.spsolve(K[idx][:, idx].tocsc(), b[idx])
    return v.reshape((m,) + grid.node_shape)


def reference_value(grid, mask, W, F, v):
    G = _cell_gradient(grid, v) + F.reshape(F.shape + (1,) * grid.dim)
    return grid.cell_volume * float(np.sum(W.cell_values(G) * mask))


def slab_density(form, d):
    """(W, its matrix A, offset F) of the slab cases: the Euclidean p = 2
    norm power, or seeded SPD quadratic forms coupling every pair of
    gradient entries, with m = 1 or m = 2 field components."""
    if form in ("identity", "empty-column"):
        return (EnergyDensity.p_norm_power(2.0, 1, d + 1), np.eye(d + 1),
                np.array([[1.0, -0.5][:d] + [0.0]]))
    m = 2 if form == "two-component" else 1
    M = np.random.default_rng(7).normal(size=(m * (d + 1),) * 2)
    A = M @ M.T + 0.5 * np.eye(m * (d + 1))
    F = np.array([[1.0, 0.3], [-0.5, 0.2]][:m])
    return EnergyDensity.quadratic_form(A, m, d + 1), A, F


@pytest.mark.parametrize("kind,eps,cells,form", [
    # d = 1: the exact line solve, one CG iteration
    pytest.param("sin2-stripe", 0.25, (128, 8), "identity",
                 id="sin2-stripe-0.25-cells0"),
    pytest.param("sin2-stripe", 0.25, (128, 8), "anisotropic",
                 id="sin2-stripe-anisotropic"),
    pytest.param("sin2-stripe", 0.25, (128, 8), "two-component",
                 id="sin2-stripe-two-component"),
    # the direct_min slab at eps = 0.07: 1632 interior lines, 8.16 cells per
    # period, so the period does not align with the grid (9 distinct columns)
    pytest.param("sin2-stripe", 0.07, (1633, 32), "identity",
                 id="sin2-stripe-0.07-nonaligned"),
    # one empty cell column: the spectral preconditioner
    pytest.param("sin2-stripe", 0.25, (128, 8), "empty-column",
                 id="sin2-stripe-empty-column"),
    # d = 2: the spectral preconditioner
    pytest.param("sin2-product", 0.5, (16, 20, 6), "identity",
                 id="sin2-product-0.5-cells1"),
])
def test_slab_solve_matches_sparse_reference(kind, eps, cells, form):
    # lateral Dirichlet, free top and bottom, oscillating mask; every axis
    # has its own spacing
    d = len(cells) - 1
    profile = Profile.builtin(kind, dim=d)
    dm = oscillating_domain_mask(profile, eps, eps * eps, cells)
    grid = _Grid(cells=cells, spacings=dm.spacings, kinds="D" * d + "N")
    assert len(set(grid.spacings)) == d + 1
    mask = np.array(dm.occupancy)
    if form == "empty-column":
        mask[cells[0] // 2] = False
    W, A, F = slab_density(form, d)
    exact = _line_solvable(grid, mask) is not None
    assert exact == (d == 1 and form != "empty-column")
    ref = sparse_reference(grid, mask, A, F)
    ref_value = reference_value(grid, mask, W, F, ref)

    value, _, report = _solve_masked(grid, mask, W, F, None)
    assert report.converged and report.method == "cg"
    assert (report.iterations == 1) == exact
    assert value == pytest.approx(ref_value, rel=1e-10)

    opts = SolverOptions(cg_rtol=1e-12)
    value, v, report = _solve_masked(grid, mask, W, F, opts)
    assert report.converged
    assert np.linalg.norm(v - ref) <= 1e-10 * np.linalg.norm(ref)
    # frozen lateral layers and nodes touching no occupied cell stay exactly 0
    active = active_nodes(grid, mask) & ~_frozen_ends(grid)
    assert (~active[1:-1]).any()
    assert np.all(v[:, ~active] == 0.0)


def one_run_columns(lines, nz, period, rng):
    """A (lines + 1) x nz mask with one run of occupied cells per column.
    Every run holds the middle cell, so neighbouring runs share nodes.  The
    runs are drawn without repeats, one per column (period None) or one per
    residue of the column index modulo ``period``."""
    mid = nz // 2
    runs = [(lo, hi) for lo in range(mid + 1) for hi in range(mid + 1, nz + 1)]
    drawn = rng.choice(len(runs), size=period or lines + 1, replace=False)
    mask = np.zeros((lines + 1, nz), bool)
    for i in range(lines + 1):
        lo, hi = runs[drawn[i % len(drawn)]]
        mask[i, lo:hi] = True
    return mask


@pytest.mark.parametrize("lines", [1, 2, 3, 4, 15, 16, 17, 200])
@pytest.mark.parametrize("form", ["anisotropic", "two-component"])
@pytest.mark.parametrize("period", [None, 3], ids=["distinct", "period3"])
def test_line_solve_matches_sparse_reference(lines, form, period):
    # 2^k - 1, 2^k and 2^k + 1 interior lines give the reduction levels odd
    # and even ends; seeded full SPD forms make the couplings bidiagonal and
    # cross-component; with distinct columns no two blocks share a key
    mask = one_run_columns(lines, 30, period, np.random.default_rng(lines))
    grid = _Grid(cells=mask.shape, spacings=(0.7 / (lines + 1), 0.05), kinds="DN")
    assert _line_solvable(grid, mask)
    W, A, F = slab_density(form, 1)
    ref = sparse_reference(grid, mask, A, F)
    value, v, report = _solve_masked(grid, mask, W, F, None)
    assert report.converged and report.iterations == 1
    assert value == pytest.approx(reference_value(grid, mask, W, F, ref), rel=1e-10)
    assert np.linalg.norm(v - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.all(v[:, ~active_nodes(grid, mask)] == 0.0)


def test_line_solvable_needs_connected_column_runs():
    def grid(kinds):
        return _Grid(cells=(6, 5), spacings=(0.5, 0.25), kinds=kinds)

    mask = np.zeros((6, 5), bool)
    mask[:, 1:4] = True
    assert _line_solvable(grid("DN"), mask)
    for kinds in ("DD", "NN", "ND", "PN", "DP"):
        assert not _line_solvable(grid(kinds), mask)
    # a cell (i, k) and the cell (i + 1, k - 1) share the node (i + 1, k);
    # the cells (i, k - 1) and (i + 1, k) share none
    steps = np.zeros((6, 5), bool)
    steps[:3, 3] = steps[3:, 2] = True
    assert _line_solvable(grid("DN"), steps)
    assert not _line_solvable(grid("DN"), steps[:, ::-1])
    # two runs in one column: the upper one could float
    split = mask.copy()
    split[2] = [True, False, True, True, False]
    assert not _line_solvable(grid("DN"), split)


@pytest.mark.parametrize("quadratic", [False, True])
def test_periodic_islands_match_sparse_reference(quadratic, product2):
    # four disconnected islands (two periods of the product profile per
    # axis at t = 0.7), two field components
    mask = np.tile(superlevel_mask(product2, 0.7, 12), (2, 2))
    grid = _Grid(cells=mask.shape, spacings=(1 / 24, 1 / 24), kinds="PP")
    if quadratic:
        A = np.diag([1.0, 2.0, 0.5, 3.0])
        A[0, 3] = A[3, 0] = 0.25
        A[1, 2] = A[2, 1] = -0.3
        W = EnergyDensity.quadratic_form(A, 2, 2)
    else:
        A = np.eye(4)
        W = EnergyDensity.p_norm_power(2.0, 2, 2)
    F = np.array([[0.8, -0.3], [0.4, 1.1]])
    ref = sparse_reference(grid, mask, A, F)
    ref_value = reference_value(grid, mask, W, F, ref)
    value, _, report = minimize_periodic(mask, W, F)
    assert report.converged
    assert value == pytest.approx(ref_value, rel=1e-10)
    # the corrector is fixed up to a constant per island: compare gradients.
    # The islands do not wind, so for the norm power minimize_periodic
    # returns the exact value with a zero field; the forced solve gives one
    value, corr, report = forced_periodic_solve(mask, W, F,
                                                opts=SolverOptions(cg_rtol=1e-12))
    assert report.converged
    G, G_ref = (_cell_gradient(grid, np.asarray(x)) * mask
                for x in (corr.values, ref))
    assert np.linalg.norm(G - G_ref) <= 1e-10 * np.linalg.norm(G_ref)


# -- iteration counts -----------------------------------------------------------


def test_gamma_slab_iteration_bound(stripe1, W2):
    # the eps = 0.125 slab of the gamma schedule: 1095 plain CG iterations,
    # 91 with the spectral preconditioner, 1 with the exact line solve
    _, report = direct_min(stripe1, 0.125, 0.125 ** 2, [[1.0]], W2,
                           cells_per_delta=8, vertical_cells=32)
    assert report.converged
    assert report.iterations == 1


def test_line_solve_memory_stays_flat(stripe1, W2):
    # the eps = 0.125 slab: 511 interior lines of 33 nodes.  Keeping every
    # 33 x 33 line block would take 511 * 33**2 * 8 B = 4.45 MB on its own;
    # the whole solve peaks at about 1.8 MB (2.0 MB with a copied residual
    # and spare full-grid arrays, 2.2 MB with the spectral preconditioner,
    # 2.3 MB with block elimination and checkpoints).  The eps = 0.0625
    # slab (2047 lines) sets the gamma run's peak RSS: it peaks at about
    # 6.0 MB, against 7.1 MB with a copied residual and spare full-grid
    # arrays and 8.72 MB with block elimination and checkpoints
    direct_min(stripe1, 0.25, 0.0625, [[1.0]], W2)         # warm caches
    for eps, bound in [(0.125, 3.5e6), (0.0625, 6.6e6)]:
        tracemalloc.start()
        try:
            _, report = direct_min(stripe1, eps, eps ** 2, [[1.0]], W2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == 1
        assert peak < bound


def scattered_active_nodes(grid, mask):
    """The formula active_nodes replaced: scatter the flat indices of
    the base node c and of the nodes c + e_a of every occupied cell, which
    wrap on a periodic axis (a non-periodic axis has a node past its last
    cell, so only periodic ones can wrap)."""
    cells = np.nonzero(mask)
    active = np.zeros(grid.num_nodes, dtype=bool)
    active[np.ravel_multi_index(cells, grid.node_shape)] = True
    for a in range(grid.dim):
        forward = list(cells)
        forward[a] = cells[a] + 1
        active[np.ravel_multi_index(forward, grid.node_shape, mode="wrap")] = True
    return active.reshape(grid.node_shape)


@pytest.mark.parametrize("kinds", ["".join(k) for d in (1, 2, 3)
                                   for k in itertools.product("PDN", repeat=d)])
def test_active_node_mask_matches_stencil_scatter(kinds):
    # every box with sides 1..6, periodic axes of length 1 and 2 included,
    # with an empty, a full and two random masks
    rng = np.random.default_rng(len(kinds))
    d = len(kinds)
    for cells in itertools.product(range(1, 7), repeat=d):
        grid = _Grid(cells=cells, spacings=(1.0,) * d, kinds=kinds)
        masks = [np.zeros(cells, bool), np.ones(cells, bool),
                 rng.random(cells) < 0.2, rng.random(cells) < 0.6]
        for mask in masks:
            active = active_nodes(grid, mask)
            assert active.shape == grid.node_shape
            assert np.array_equal(active, scattered_active_nodes(grid, mask))


@pytest.mark.parametrize("rows", [0, 1, 7, 500])
@pytest.mark.parametrize("sizes", [(1,), (3,), (1, 1, 2), (4, 2, 5), (60, 70, 80)],
                         ids=lambda s: "x".join(map(str, s)))
def test_distinct_contract(rows, sizes):
    # packed ranges dense (a presence table), sparse (a sort) and of one
    # value, over no rows, one row and many
    rng = np.random.default_rng(rows)
    keys = [rng.integers(0, size, rows) for size in sizes]
    ids, where = _distinct(*keys, sizes=sizes)
    table = np.stack(keys, axis=1)
    distinct, inverse = np.unique(table, axis=0, return_inverse=True)
    # equal rows get equal ids, numbered in sorted key order
    assert np.array_equal(ids, inverse.reshape(-1))
    # each returned position carries its own id
    assert len(where) == len(distinct)
    assert np.array_equal(ids[where], np.arange(len(distinct)))
    assert np.array_equal(table[where], distinct)


def test_line_solve_factors_each_distinct_block_once(stripe1, W2):
    # cyclic reduction eliminates every interior line once, so factoring
    # each line block would take 127, 511 and 2047 factorizations on the
    # gamma slabs and 1632 at eps = 0.07; equal blocks are factored once,
    # and the slabs need 11, 13, 15 and 51
    counts = []
    for eps in (0.25, 0.125, 0.0625, 0.07):
        _, report = direct_min(stripe1, eps, eps ** 2, [[1.0]], W2)
        assert report.iterations == 1
        counts.append(report.factorizations)
    assert max(counts[:3]) <= 15
    assert counts[3] <= 51


def test_newton_slab_keeps_spectral_preconditioner(stripe1):
    # p = 3: the vertical column of F is 0, so the tangent a = p |G_z|^(p-2)
    # vanishes on it at the start, and line blocks of that tangent are
    # singular; Newton's inner CG keeps the spectral preconditioner
    W = EnergyDensity.p_norm_power(3.0, 1, 2)
    value, report = direct_min(stripe1, 0.25, 0.0625, [[1.0]], W)
    assert report.converged and report.method == "newton"
    # the lateral data alone, v = 0, costs more
    dm = oscillating_domain_mask(stripe1, 0.25, 0.0625, (128, 32))
    affine = W.evaluate([[1.0, 0.0]]) * dm.occupancy.mean() * 2 * 0.25
    assert 0.0 < value < affine


def test_island_iterations_do_not_grow_with_resolution(product2, W2):
    # islands do not wind, so minimize_periodic returns their exact value
    # without a solve; the forced solve runs CG on them
    iters = []
    for n in (32, 64, 128):
        mask = superlevel_mask(product2, 0.7, n)
        _, _, report = forced_periodic_solve(mask, W2, [[1.0, 1.0]])
        assert report.converged and report.method == "cg"
        assert report.iterations > 0
        iters.append(report.iterations)
    assert max(iters) <= 40


def test_quadratic_cg_keeps_its_iterates(product2):
    # Newton's node scale of the tangent diagonal stays off the quadratic
    # CG: on this psi oracle, its pendant nodes eliminated, the
    # masked-diagonal scaling raises CG from 16 to 25 iterations (from 27
    # to 47 with the pendant nodes in the solve)
    sample = psi_cylinder_oracle(product2, 0.6, [[1.0, 0.5, 0.2]], 64)
    assert sample.report.method == "cg" and sample.report.converged
    assert sample.report.iterations == 16


def test_gamma_check_reports_membrane_nonconvergence(checker2, W3):
    # checkerboard squares coupled at their corners: one preconditioned
    # iteration cannot solve the cylinders
    report = gamma_check(checker2, W3, [[1.0, 0.0]], [0.5], cells_per_delta=4,
                         vertical_cells=4, n_grid=16,
                         opts=SolverOptions(max_iterations=1))
    assert report.membrane_converged is False
    payload = json.loads(cli._json(report, []))
    assert payload["membrane_converged"] is False
