"""
Two means for the price of one loss
===================================

For an asymmetric divergence the point closest to a random variable depends
on which slot the variable occupies.  The minimizer of E[D(X, z)] over z is
always the ordinary (primal) mean.  The minimizer of E[D(z, X)] is the *dual
mean*: average the points in gradient coordinates, then map back.  Under the
KL divergence the dual mean is the normalized geometric mean, which is why
log-probability averaging is the natural way to combine classifiers.

This script computes both means, checks them against a brute-force grid
minimizer, and shows the matching pair of averaging operators.
"""

import numpy as np

from bregman_bv import (
    NegativeEntropySimplex,
    OracleConfig,
    SampleSet,
    SquaredEuclidean,
    certify_means,
    dual_average,
    dual_mean,
    dual_variance,
    primal_average,
    primal_mean,
    primal_variance,
)

print(__doc__)

entropy = NegativeEntropySimplex(2)
samples = SampleSet([[0.8, 0.2], [0.6, 0.4]])

p_mean = primal_mean(samples)
d_mean = dual_mean(entropy, samples)
print("samples: (0.8, 0.2) and (0.6, 0.4), equal weights")
print("primal mean (argmin of E D(X, z)):", p_mean)
print("dual mean   (argmin of E D(z, X)):", d_mean)

# the dual mean is the normalized geometric mean of the samples
geo = np.sqrt([0.8 * 0.6, 0.2 * 0.4])
print("normalized geometric mean:        ", geo / geo.sum())

# ----------------------------------------------------------------------------
# Certify both characterizations against the brute-force oracle
# ----------------------------------------------------------------------------

certificate = certify_means(entropy, samples, OracleConfig(grid_resolution=10_000), 1e-5)
print("\ngrid minimizer of E D(z, X):", certificate.dual.oracle_point,
      " objective gap:", certificate.dual.objective_gap)
print("grid minimizer of E D(X, z):", certificate.primal.oracle_point,
      " objective gap:", certificate.primal.objective_gap)
print("certification failures at 1e-5:", certificate.failures(1e-5))

# ----------------------------------------------------------------------------
# Each mean carries its own variance
# ----------------------------------------------------------------------------

print("\nprimal variance E D(X, mean)     :", primal_variance(entropy, samples))
print("dual variance   E D(dual mean, X):", dual_variance(entropy, samples))

# ----------------------------------------------------------------------------
# Averaging a finite batch of points works the same way
# ----------------------------------------------------------------------------

batch = np.array([[0.8, 0.2], [0.6, 0.4]])
print("\nprimal average:", primal_average(batch))
print("dual average (geometric):", dual_average(entropy, batch))

# for a symmetric divergence the two means coincide
euclid = SquaredEuclidean(2)
pts = SampleSet([[1.0, 2.0], [3.0, -1.0], [0.0, 0.5]], [0.2, 0.5, 0.3])
print("\nsquared Euclidean: primal mean", primal_mean(pts),
      "= dual mean", dual_mean(euclid, pts))
