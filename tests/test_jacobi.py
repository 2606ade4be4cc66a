import numpy as np
import pytest

from conftest import tridiag_moments
from freewick import grid, jacobi, ncpart
from freewick.jacobi import JacobiNode, JacobiSystem


@pytest.fixture
def semicircle_node():
    return jacobi.coeffs_from_measure(grid.semicircle_fiber(0.0, 1.0, 10), 8)


class TestPolyEval:
    def test_degree_zero(self, semicircle_node):
        assert jacobi.poly_eval(semicircle_node, 0, 0.37) == 1.0

    def test_degree_one_monic(self, rng):
        fb = grid.semicircle_fiber(0.9, 1.3, 8)
        node = jacobi.coeffs_from_measure(fb, 5)
        s = rng.standard_normal(7)
        assert np.allclose(jacobi.poly_eval(node, 1, s), s - node.b[0])

    def test_semicircle_degree_two(self, semicircle_node):
        s = np.linspace(-2, 2, 9)
        assert np.abs(jacobi.poly_eval(semicircle_node, 2, s) - (s**2 - 1)).max() < 1e-9

    def test_degree_overflow(self, semicircle_node):
        with pytest.raises(ValueError):
            jacobi.poly_eval(semicircle_node, 9, 0.0)

    def test_zero_past_finite_support(self):
        node = jacobi.coeffs_from_measure(grid.point_fiber(0.5), 4)
        assert np.all(jacobi.poly_eval(node, 2, np.array([0.1, 2.0])) == 0.0)


class TestCoeffsFromMeasure:
    def test_one_atom(self):
        node = jacobi.coeffs_from_measure(grid.point_fiber(1.5), 5)
        assert node.finite_support_n == 1
        assert node.b[0] == 1.5
        assert np.all(node.b[1:] == 0.0) and np.all(node.a == 0.0)
        assert node.g[0] == 1.0 and np.all(node.g[1:] == 0.0)

    def test_semicircle_recovery(self):
        lam, eta = 0.8, 1.7
        node = jacobi.coeffs_from_measure(grid.semicircle_fiber(lam, eta, 10), 8)
        assert np.abs(node.b - lam).max() < 1e-9
        assert np.abs(node.a[1:] - eta).max() < 1e-9

    def test_two_atom_symmetric(self):
        fb = grid.FiberMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        node = jacobi.coeffs_from_measure(fb, 4)
        assert node.finite_support_n == 2
        assert abs(node.b[0]) < 1e-14
        assert abs(node.a[1] - 1.0) < 1e-14

    def test_boundedness(self, rng):
        # |b| <= R and a <= R^2 for measures supported in [-R, R]
        for _ in range(5):
            atoms = np.sort(rng.uniform(-2.0, 2.0, size=6))
            w = rng.uniform(0.1, 1.0, size=6)
            fb = grid.FiberMeasure(atoms, w / w.sum())
            node = jacobi.coeffs_from_measure(fb, 5)
            assert np.abs(node.b).max() <= fb.radius + 1e-12
            assert node.a.max() <= fb.radius**2 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            JacobiNode(np.zeros(3), np.array([0.0, -1.0, 1.0]), np.ones(3))

    def test_recovered_polynomials_orthogonal(self, rng):
        for _ in range(4):
            atoms = np.sort(rng.uniform(-1.5, 1.5, size=7))
            w = rng.uniform(0.1, 1.0, size=7)
            fb = grid.FiberMeasure(atoms, w / w.sum())
            node = jacobi.coeffs_from_measure(fb, 6)
            values = [jacobi.poly_eval(node, l, fb.atoms) for l in range(6)]
            for l1 in range(6):
                for l2 in range(l1 + 1, 6):
                    cross = float(np.sum(fb.weights * values[l1] * values[l2]))
                    assert abs(cross) < 1e-10


def _law(kind, n, rng):
    if kind == "clustered":
        # pairs 1e-4 to 1e-3 apart, pairs at least 1e-3 from each other
        centers = np.cumsum(rng.uniform(2e-3, 0.1, size=(n + 1) // 2))
        pairs = np.stack([centers, centers + rng.uniform(1e-4, 1e-3, size=centers.size)])
        atoms = np.sort(pairs.T.ravel()[:n])
        atoms -= atoms.mean()
    else:
        atoms = np.sort(rng.uniform(-1.5, 1.5, size=n))
    if kind == "rescaled":
        atoms *= 10.0 ** rng.uniform(-3.0, 1.0)
    w = rng.uniform(0.2, 1.0, size=n)
    return grid.FiberMeasure(atoms, w / w.sum())


class TestRecoveryProperty:
    @pytest.mark.parametrize("kind", ["random", "clustered", "rescaled"])
    def test_gauss_rule_returns_the_law(self, kind, rng):
        for n in (1, 2, 3, 5, 8, 12, 16, 24, 32, 48, 64):
            for _ in range(3):
                fb = _law(kind, n, rng)
                node = jacobi.coeffs_from_measure(fb, n)
                assert node.finite_support_n == n
                atoms, weights = jacobi.gauss_rule(node.b, node.a, n)
                assert np.abs(atoms - fb.atoms).max() <= 1e-10 * np.abs(fb.atoms).max()
                assert np.abs(weights - fb.weights).max() <= 1e-10

    def test_support_size_is_scale_free(self, rng):
        fb = _law("random", 12, rng)
        for scale in (1e-3, 0.1, 1.0, 10.0):
            scaled = grid.FiberMeasure(scale * fb.atoms, fb.weights)
            assert jacobi.coeffs_from_measure(scaled, 12).finite_support_n == 12
            assert jacobi.coeffs_from_measure(scaled, 11).finite_support_n is None

    def test_repeated_atoms_merge(self):
        fb = grid.FiberMeasure(np.array([-1.0, 0.5, 0.5]), np.array([0.5, 0.25, 0.25]))
        node = jacobi.coeffs_from_measure(fb, 4)
        assert node.finite_support_n == 2
        atoms, weights = jacobi.gauss_rule(node.b, node.a, 2)
        assert np.abs(atoms - [-1.0, 0.5]).max() < 1e-14
        assert np.abs(weights - 0.5).max() < 1e-14


class TestNorms:
    def test_dual_route(self, rng):
        atoms = np.sort(rng.uniform(-1.5, 1.5, size=7))
        w = rng.uniform(0.1, 1.0, size=7)
        node = jacobi.coeffs_from_measure(grid.FiberMeasure(atoms, w / w.sum()), 6)
        g = jacobi.norms(node)
        prod = np.ones(7)
        prod[1:] = np.cumprod(node.a[1:])
        assert np.allclose(g, prod, rtol=1e-10, atol=1e-10)

    def test_semicircle_powers(self):
        eta = 1.6
        node = jacobi.coeffs_from_measure(grid.semicircle_fiber(0.4, eta, 10), 8)
        assert np.abs(jacobi.norms(node) - eta ** np.arange(9)).max() < 1e-9

    def test_disagreement_raises(self):
        node = JacobiNode(np.zeros(3), np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 1.0]))
        with pytest.raises(ArithmeticError):
            jacobi.norms(node)


class TestGaussRule:
    def test_roundtrip(self, rng):
        b = rng.standard_normal(6)
        a = np.concatenate([[0.0], rng.uniform(0.5, 2.0, size=5)])
        fb = jacobi.fiber_from_coefficients(b, a, 6)
        node = jacobi.coeffs_from_measure(fb, 5)
        assert np.abs(node.b - b).max() < 1e-9
        assert np.abs(node.a[1:] - a[1:]).max() < 1e-9

    def test_rule_integrates_polynomials(self, rng):
        # nodes/weights integrate s^j exactly against the recurrence oracle
        b = rng.standard_normal(5)
        a = np.concatenate([[0.0], rng.uniform(0.5, 2.0, size=4)])
        m_nodes = 5
        fb = jacobi.fiber_from_coefficients(b, a, m_nodes)
        oracle = tridiag_moments(b, np.sqrt(a[1:]), 2 * m_nodes - 1)
        for j in range(2 * m_nodes):
            assert abs(fb.moment(j) - oracle[j]) <= 1e-10 * max(1.0, abs(oracle[j]))

    @pytest.mark.parametrize("m_nodes", [2, 3, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("lam,eta", [(0.0, 1.0), (0.7, 1e-6), (-3.0, 1e4), (1e3, 0.25)])
    def test_semicircle_closed_form(self, m_nodes, lam, eta):
        # constant coefficients give the semicircle's Gauss rule, whose
        # atoms and weights are trigonometric closed forms
        atoms, weights = jacobi.gauss_rule(
            np.full(m_nodes, lam), [0.0] + [eta] * (m_nodes - 1), m_nodes
        )
        exact = grid.semicircle_fiber(lam, eta, m_nodes)
        assert np.abs(atoms - exact.atoms).max() <= 1e-10 * (abs(lam) + 2.0 * np.sqrt(eta))
        assert np.abs(weights - exact.weights).max() <= 1e-10

    def test_single_node(self):
        nodes, weights = jacobi.gauss_rule(np.array([0.7]), np.array([0.0]), 1)
        assert nodes[0] == 0.7 and weights[0] == 1.0

    def test_needs_positive_a(self):
        with pytest.raises(ValueError):
            jacobi.gauss_rule(np.zeros(3), np.zeros(3), 3)


class TestMeixnerMoments:
    def test_standard_semicircle_window(self):
        got = jacobi.meixner_moments(0.0, 0.0, 1.0, 6)
        assert np.allclose(got[[2, 4, 6]], [1.0, 2.0, 5.0], atol=1e-12)
        assert np.allclose(got[[1, 3, 5]], 0.0, atol=1e-12)

    def test_unit_parameters(self):
        got = jacobi.meixner_moments(1.0, 1.0, 1.0, 4)
        assert np.allclose(got[1:], [0.0, 1.0, 1.0, 4.0], atol=1e-12)

    def test_zero_mean_fourth(self):
        assert abs(jacobi.meixner_moments(0.0, 1.0, 1.0, 4)[4] - 3.0) < 1e-12

    @pytest.mark.parametrize("lam,eta,mass", [(1.0, 1.0, 1.0), (0.5, 2.0, 0.7), (-1.0, 0.5, 2.0)])
    def test_against_nc_sum_oracle(self, lam, eta, mass):
        # free cumulants of the window field: order 2 is the window mass,
        # higher orders are mass times raw moments of the node law
        fb = grid.semicircle_fiber(lam, eta, 10)
        kmax = 8
        cums = {2: mass}
        for k in range(3, kmax + 1):
            cums[k] = mass * fb.moment(k - 2)
        got = jacobi.meixner_moments(lam, eta, mass, kmax)
        for k in range(1, kmax + 1):
            expected = 0.0
            for p in ncpart.enumerate_nc(k):
                term = 1.0
                for block in p.blocks:
                    term *= cums.get(len(block), 0.0)
                expected += term
            assert abs(got[k] - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_truncation_too_small(self):
        with pytest.raises(ValueError):
            jacobi.meixner_moments(1.0, 1.0, 1.0, 8, size=3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            jacobi.meixner_moments(0.0, 1.0, 0.0, 4)
        with pytest.raises(ValueError):
            jacobi.meixner_moments(0.0, -1.0, 1.0, 4)


class TestJacobiSystem:
    def test_from_fibers_matches_analytic_meixner(self):
        g = grid.make_grid(5, lam=0.6, eta=1.1)
        fibers = grid.semicircle_fibers(g, 9)
        recovered = JacobiSystem.from_fibers(g, fibers, 8)
        analytic = JacobiSystem.meixner(g, 8)
        for l in range(8):
            assert np.abs(recovered.b_values(l) - analytic.b_values(l)).max() < 1e-9
            assert np.abs(recovered.g_values(l) - analytic.g_values(l)).max() < 1e-8
            if l >= 1:
                assert np.abs(recovered.a_values(l) - analytic.a_values(l)).max() < 1e-9

    def test_meixner_degenerate_nodes(self):
        g = grid.make_grid(4, lam=0.5, eta=0.0)
        sys = JacobiSystem.meixner(g, 5)
        for node in sys.nodes:
            assert node.finite_support_n == 1
            assert np.all(node.g[1:] == 0.0)

    def test_json_roundtrip_structure(self):
        g = grid.make_grid(3, lam=1.0, eta=1.0)
        sys = JacobiSystem.meixner(g, 4)
        payload = sys.to_json_dict()
        assert payload["max_degree"] == 4
        assert len(payload["nodes"]) == 3
        assert set(payload["nodes"][0]) == {"t", "b", "a", "g", "finite_support_n"}
