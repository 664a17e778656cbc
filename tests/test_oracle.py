"""Brute-force minimizers vs. analytic means; finite-difference gradients."""

import itertools

import numpy as np
import pytest

from bregman_bv import (
    DomainError,
    NegativeEntropySimplex,
    OracleConfig,
    SampleSet,
    SquaredEuclidean,
    argmin_from,
    argmin_to,
    divergence,
    dual_mean,
    expected_divergence_from,
    expected_divergence_to,
    fd_gradient,
    primal_mean,
)
from bregman_bv.oracle import _simplex_lattice
from conftest import fig_2b_generator, random_interior_points, random_sample_set


class TestConfig:
    def test_defaults_are_desk_scale(self):
        cfg = OracleConfig()
        assert cfg.grid_resolution >= 64
        assert cfg.descent_tolerance > 0 and cfg.fd_step > 0 and cfg.max_iters > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(grid_resolution=1)
        with pytest.raises(ValueError):
            OracleConfig(fd_step=0.0)
        with pytest.raises(ValueError):
            OracleConfig(descent_tolerance=-1.0)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_simplex_lattice_matches_cut_enumeration(dim):
    # compositions of the resolution into positive parts, from the cut positions
    resolution = 9
    expected = [
        np.diff((0,) + cuts + (resolution,)) / resolution
        for cuts in itertools.combinations(range(1, resolution), dim - 1)
    ]
    assert np.array_equal(_simplex_lattice(dim, resolution), np.array(expected))


class TestFdGradient:
    def test_euclidean(self):
        g = SquaredEuclidean(2)
        approx = fd_gradient(g, np.array([3.0, 4.0]))
        assert np.allclose(approx, [6.0, 8.0], atol=1e-6)

    def test_fig_2b_first_coordinate(self):
        g = fig_2b_generator()
        approx = fd_gradient(g, np.array([0.5, 0.5]))
        assert approx[0] == pytest.approx(4.0 / 3.0, rel=1e-8)

    def test_matches_grad_at_interior_points(self, gen):
        rng = np.random.default_rng(71)
        for x in random_interior_points(gen, rng, 10):
            approx = fd_gradient(gen, x)
            exact = gen.grad(x)
            if gen.domain.kind == "open-simplex":
                approx = approx - np.mean(approx)
                exact = exact - np.mean(exact)
            assert np.max(np.abs(approx - exact)) / max(1.0, np.max(np.abs(exact))) <= 1e-5

    def test_boundary_proximity_rejected(self):
        g = NegativeEntropySimplex(2)
        with pytest.raises(DomainError, match="finite differences"):
            fd_gradient(g, np.array([1e-6, 1.0 - 1e-6]), OracleConfig(fd_step=1e-6))


class TestArgmin:
    def test_single_atom(self, gen):
        rng = np.random.default_rng(72)
        s = random_sample_set(gen, rng, max_n=1)
        cfg = OracleConfig(grid_resolution=64)
        for fn, objective in ((argmin_to, expected_divergence_to), (argmin_from, expected_divergence_from)):
            z = fn(gen, s, cfg)
            assert objective(gen, s, z) <= 1e-10
            assert np.max(np.abs(z - s.points[0])) <= 1e-2

    def test_entropy_pair_dual_minimizer(self):
        g = NegativeEntropySimplex(2)
        s = SampleSet([[0.8, 0.2], [0.6, 0.4]])
        z = argmin_to(g, s, OracleConfig(grid_resolution=10_000))
        assert np.max(np.abs(z - [0.7101, 0.2899])) <= 1e-4
        gap = expected_divergence_to(g, s, z) - expected_divergence_to(g, s, dual_mean(g, s))
        assert abs(gap) <= 1e-8

    def test_entropy_pair_primal_minimizer(self):
        g = NegativeEntropySimplex(2)
        s = SampleSet([[0.8, 0.2], [0.6, 0.4]])
        z = argmin_from(g, s, OracleConfig(grid_resolution=10_000))
        assert np.max(np.abs(z - [0.7, 0.3])) <= 1e-4

    def test_euclidean_recovers_means(self):
        g = SquaredEuclidean(2)
        rng = np.random.default_rng(73)
        s = random_sample_set(g, rng, max_n=6, min_n=2)
        cfg = OracleConfig(grid_resolution=64)
        assert np.max(np.abs(argmin_from(g, s, cfg) - primal_mean(s))) <= 1e-5
        assert np.max(np.abs(argmin_to(g, s, cfg) - primal_mean(s))) <= 1e-5

    def test_objective_gaps_randomized(self, gen):
        rng = np.random.default_rng(74)
        cfg = OracleConfig(grid_resolution=64)
        for _ in range(5):
            s = random_sample_set(gen, rng, max_n=5, min_n=2)
            dual_gap = abs(
                expected_divergence_to(gen, s, argmin_to(gen, s, cfg))
                - expected_divergence_to(gen, s, dual_mean(gen, s))
            )
            primal_gap = abs(
                expected_divergence_from(gen, s, argmin_from(gen, s, cfg))
                - expected_divergence_from(gen, s, primal_mean(s))
            )
            assert dual_gap <= 1e-5
            assert primal_gap <= 1e-5

    def test_deterministic(self, gen):
        rng = np.random.default_rng(75)
        s = random_sample_set(gen, rng, max_n=4, min_n=2)
        cfg = OracleConfig(grid_resolution=32)
        assert np.array_equal(argmin_to(gen, s, cfg), argmin_to(gen, s, cfg))
        assert np.array_equal(argmin_from(gen, s, cfg), argmin_from(gen, s, cfg))


class TestObjectiveEvaluators:
    def test_match_weighted_divergence_sums(self, gen):
        rng = np.random.default_rng(76)
        s = random_sample_set(gen, rng, max_n=6, min_n=2)
        z = random_interior_points(gen, rng, 1)[0]
        to_direct = float(s.weights @ divergence(gen, z, s.points, validate=False))
        from_direct = float(s.weights @ divergence(gen, s.points, z, validate=False))
        assert expected_divergence_to(gen, s, z) == pytest.approx(to_direct, abs=1e-12)
        assert expected_divergence_from(gen, s, z) == pytest.approx(from_direct, abs=1e-12)
