"""Tree Dirichlet-to-Neumann maps: truncation, condensation, compression.

Builds the reference self-similar tree (p=2, ell=0.5, omega=0.4), compares
the truncated DtN against the exactly condensed one, and shows that the
condensed map at a deep level compresses onto the shallow one without any
additional error.  The interval tree (p=1) is included because its DtN is
a scalar with a closed geometric-series form.
"""

import numpy as np

from treedisk.dtn import compress, condensed_dtn, dtn_convergence_rate, truncated_dtn
from treedisk.tree import TreeParams, validate_params

REF = TreeParams(p=2, ell=0.5, omega=0.4)
INTERVAL = TreeParams(p=1, ell=0.5, omega=1.0)


def main():
    report = validate_params(REF)
    print("reference tree: p=%d ell=%r omega=%r" % (REF.p, REF.ell, REF.omega))
    print("  sigma = %.10f, r = %r, corridor constant = %r" % (report.sigma, report.r, report.min_C))

    print("\ninterval tree (p=1): truncated DtN vs exact condensed value 0.5")
    print("  depth   truncated        defect vs 0.5/(1-0.5^N)")
    for n in range(1, 7):
        t = truncated_dtn(INTERVAL, n - 1)[0, 0]
        closed = 0.5 / (1.0 - 0.5**n)
        print("  %5d   %.12f   %.2e" % (n, t, abs(t - closed)))
    print("  condensed at any level: %.15f" % condensed_dtn(INTERVAL, 3)[0, 0])

    print("\ncondensed DtN on constants carries the uniform radial flux")
    for n in (2, 4, 6):
        A = condensed_dtn(REF, n)
        flux = A @ np.ones(len(A))
        print("  level %d: size %4d, cell flux %.3e (expected %.3e), spread %.2e"
              % (n + 1, len(A), flux[0], 0.375 / len(A), np.ptp(flux)))

    print("\ncompression consistency: compress(condensed(N+3), N+1) vs condensed(N)")
    for n in (2, 3):
        fine = compress(condensed_dtn(REF, n + 3), REF.p, n + 1)
        coarse = condensed_dtn(REF, n)
        print("  N=%d: max entrywise defect %.2e" % (n, np.abs(fine - coarse).max()))

    print("\nfitted convergence of the projected DtN")
    rec = dtn_convergence_rate(REF, [2, 3, 4, 5])
    print("  p=2: %s" % rec.measure)
    print("       errors %s" % ", ".join("%.3e" % e for e in rec.errors))
    print("       rate/level %.3f, rho_hat %.3f" % (rec.rate_per_level, rec.rho_hat))
    rec1 = dtn_convergence_rate(INTERVAL, [2, 4, 6, 8])
    print("  p=1: %s, rate/level %.3f (-log r = %.3f)"
          % (rec1.measure, rec1.rate_per_level, -np.log(INTERVAL.r)))


if __name__ == "__main__":
    main()
