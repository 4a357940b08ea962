"""Multiscale projections on the circle and the A^r trace norms.

Projects a smooth trace datum onto the piecewise-constant spaces V_N of
the dyadic cell decomposition, measures the L2 projection error, and
checks the quantified error bound in the multiscale A^r norms that drives
the interface convergence rate: the constant in front is
p^{2 sigma} / (p^{2 sigma} - 1) for the gap sigma' - sigma.
"""

import numpy as np

from treedisk import circle
from treedisk.circle import FourierFn, MultiscaleDecomposition
from treedisk.tree import TreeParams

REF = TreeParams(p=2, ell=0.5, omega=0.4)


def main():
    decomp = MultiscaleDecomposition(R=1.0, p=2, n_max=14)
    g = FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5})  # cos(theta)
    sigma = REF.sigma
    sigma_prime = 0.42
    constant = 2.0**(2 * sigma) / (2.0**(2 * sigma) - 1.0)
    print("datum: cos(theta); sigma = %.5f, sigma' = %.2f, corridor constant %.4f"
          % (sigma, sigma_prime, constant))

    print("\nL2 projection error of P_N g and the running decay factor")
    prev = None
    for n in range(2, 9):
        err = np.sqrt(circle.err_norm_sq(decomp, g, n))
        ratio = "" if prev is None else "  x %.3f" % (err / prev)
        print("  N=%d: cells %4d, error %.4e%s" % (n, decomp.n_cells(n), err, ratio))
        prev = err

    print("\nmultiscale norms of the datum")
    for r in (sigma, sigma_prime):
        rep = circle.ar_norm_report(decomp, g, r)
        print("  A^%.5f norm %.6f (%d levels, tail^2 estimate %.1e)"
              % (r, rep.value, rep.levels_used, rep.tail_sq_estimate))
    print("  H^0.5 Fourier norm %.6f" % circle.sobolev_norms(g, 0.5)[0])

    print("\nprojector error bound ||P_N g - g||_{A^sigma} <= C 2^(-N(sigma'-sigma)) ||g||_{A^sigma'}")
    for n in range(2, 9):
        lhs, rhs = circle.projector_error_check(decomp, g, n, sigma, sigma_prime)
        print("  N=%d: error %.4e <= bound %.4e (ratio %.3f)" % (n, lhs, rhs, lhs / rhs))


if __name__ == "__main__":
    main()
