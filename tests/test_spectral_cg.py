"""The spectral preconditioner and the preconditioned CG of quadratic masked
solves, checked against dense and scipy.sparse references."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg

from filmhom import (EnergyDensity, Profile, SolverOptions, direct_min,
                     gamma_check, minimize_periodic, superlevel_mask)
from filmhom.cell_solver import (_active_node_mask, _cell_gradient, _frozen_ends,
                                 _Grid, _solve_masked, _SpectralPreconditioner)
from filmhom.profiles import oscillating_domain_mask


# -- the preconditioner is the pseudo-inverse of the unmasked box operator ----


def dense_box_operator(grid, dirichlet_axes):
    """sum_a L_a / h_a^2 on the interior nodes of the Dirichlet axes, built
    densely from 1-d second differences."""
    factors = []
    for a, (n, h) in enumerate(zip(grid.node_shape, grid.spacings)):
        if grid.periodic[a]:
            eye = np.eye(n)
            L = 2 * eye - np.roll(eye, 1, axis=0) - np.roll(eye, -1, axis=0)
        elif a in dirichlet_axes:
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
    ((4, 5, 3), (True, False, False), (1,)),
    ((3, 4), (False, True), ()),
    ((2, 7, 3), (False, False, False), (0, 1)),
])
def test_preconditioner_inverts_box_operator(cells, periodic, dirichlet_axes, rng):
    spacings = tuple(rng.uniform(0.3, 2.0, size=len(cells)))
    grid = _Grid(cells=cells, spacings=spacings, periodic=periodic)
    select = ~_frozen_ends(grid, dirichlet_axes)
    precond = _SpectralPreconditioner(grid, np.ones(cells, bool), dirichlet_axes)
    A, sizes = dense_box_operator(grid, dirichlet_axes)
    window = (slice(None),) + precond.window
    r = np.zeros((2,) + grid.node_shape)
    r[window] = rng.standard_normal((2,) + tuple(sizes))
    z = precond(r, np.zeros_like(r))
    pinv = np.linalg.pinv(A)
    for i in range(2):
        ref = (pinv @ r[i][precond.window].ravel()).reshape(sizes)
        assert np.abs(z[i][precond.window] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(z[:, ~select] == 0.0)


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
        if grid.periodic[a]:
            nb[a] %= grid.cells[a]
        ahead = np.ravel_multi_index(nb, grid.node_shape)
        rows = np.arange(ncells)
        data = np.full(ncells, 1.0 / grid.spacings[a])
        blocks.append(sp.csr_matrix(
            (np.concatenate([data, -data]),
             (np.concatenate([rows, rows]), np.concatenate([ahead, base]))),
            shape=(ncells, grid.num_nodes)))
    return sp.vstack(blocks).tocsr()


def sparse_reference(grid, mask, A, F, dirichlet_axes=()):
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

    keep = _active_node_mask(grid, mask) & ~_frozen_ends(grid, dirichlet_axes)
    keep = np.tile(keep.ravel(), m)
    if not dirichlet_axes:
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


@pytest.mark.parametrize("kind,eps,cells", [
    ("sin2-stripe", 0.25, (128, 8)),        # d = 1
    ("sin2-product", 0.5, (16, 20, 6)),     # d = 2
])
def test_slab_solve_matches_sparse_reference(kind, eps, cells):
    # lateral Dirichlet, free top and bottom, oscillating mask; every axis
    # has its own spacing
    d = len(cells) - 1
    profile = Profile.builtin(kind, dim=d)
    dm = oscillating_domain_mask(profile, eps, eps * eps, cells, scaled=False)
    grid = _Grid(cells=cells, spacings=dm.spacings, periodic=(False,) * (d + 1))
    assert len(set(grid.spacings)) == d + 1
    mask = np.asarray(dm.occupancy)
    W = EnergyDensity.p_norm_power(2.0, 1, d + 1)
    F = np.array([[1.0, -0.5][:d] + [0.0]])
    dirichlet = tuple(range(d))
    ref = sparse_reference(grid, mask, np.eye(d + 1), F, dirichlet)
    ref_value = reference_value(grid, mask, W, F, ref)

    value, _, report = _solve_masked(grid, mask, W, F, None, dirichlet_axes=dirichlet)
    assert report.converged and report.method == "cg"
    assert value == pytest.approx(ref_value, rel=1e-10)

    opts = SolverOptions(cg_rtol=1e-12)
    value, v, report = _solve_masked(grid, mask, W, F, opts, dirichlet_axes=dirichlet)
    assert report.converged
    assert np.linalg.norm(v - ref) <= 1e-10 * np.linalg.norm(ref)
    # frozen lateral layers and nodes touching no occupied cell stay exactly 0
    active = _active_node_mask(grid, mask) & ~_frozen_ends(grid, dirichlet)
    assert (~active[1:-1]).any()
    assert np.all(v[:, ~active] == 0.0)


@pytest.mark.parametrize("quadratic", [False, True])
def test_periodic_islands_match_sparse_reference(quadratic, product2):
    # four disconnected islands (two periods of the product profile per
    # axis at t = 0.7), two field components
    mask = np.tile(superlevel_mask(product2, 0.7, 12).occupancy, (2, 2))
    grid = _Grid(cells=mask.shape, spacings=(1 / 24, 1 / 24), periodic=(True, True))
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
    # the corrector is fixed up to a constant per island: compare gradients
    value, corr, report = minimize_periodic(mask, W, F,
                                            opts=SolverOptions(cg_rtol=1e-12))
    assert report.converged
    G, G_ref = (_cell_gradient(grid, np.asarray(x)) * mask
                for x in (corr.values, ref))
    assert np.linalg.norm(G - G_ref) <= 1e-10 * np.linalg.norm(G_ref)


# -- iteration counts -----------------------------------------------------------


def test_gamma_slab_iteration_bound(stripe1, W2):
    # the eps = 0.125 slab of the gamma schedule: 1095 plain CG iterations
    _, report = direct_min(stripe1, 0.125, 0.125 ** 2, [[1.0]], W2,
                           cells_per_delta=8, vertical_cells=32)
    assert report.converged
    assert report.iterations <= 150


def test_island_iterations_do_not_grow_with_resolution(product2, W2):
    iters = []
    for n in (32, 64, 128):
        mask = superlevel_mask(product2, 0.7, n).occupancy
        _, _, report = minimize_periodic(mask, W2, [[1.0, 1.0]],
                                         want_corrector=False)
        assert report.converged
        iters.append(report.iterations)
    assert max(iters) <= 40


def test_gamma_check_reports_membrane_nonconvergence(product2, W3):
    # product islands: one preconditioned iteration cannot solve the cylinders
    report = gamma_check(product2, W3, [[1.0, 0.0]], [0.5], cells_per_delta=4,
                         vertical_cells=4, n_grid=16, film_vertical_cells=2,
                         solver_opts=SolverOptions(max_iterations=1))
    assert report.membrane_converged is False
    assert report.to_dict()["membrane_converged"] is False
