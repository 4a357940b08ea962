"""The coupled tree-disk transmission problem and its plasmonic pencil.

Assembles M_N = -C_N + alpha1 D_N + A0 on the piecewise-constant interface
space, solves M_N g = -h for an exterior source, and reports the residual
diagnostics.  A constant-equilibrium configuration recovers the exact
answer, the manufactured-datum study exhibits the geometric convergence
rate, and the generalized eigenvalues of (C, D) locate the coupling
coefficients alpha1 where the interface operator degenerates.
"""

import numpy as np

from treedisk.errors import SingularInterfaceOperator
from treedisk.exterior import RadialSource
from treedisk.transmission import (
    TransmissionConfig,
    assemble_system,
    convergence_study,
    plasmonic_pencil,
    solve_interface,
    solve_transmission,
)
from treedisk.circle import FourierFn
from treedisk.tree import TreeParams

REF = TreeParams(p=2, ell=0.5, omega=0.4)
SOURCE = RadialSource(R=1.0, r_max=2.0, terms=[(1, {0: 1.0}), (-1, {0: 1.0})])


def main():
    cfg = TransmissionConfig(params=REF, level=4, alpha1=1.0, alpha0=0.3,
                             exterior_source=SOURCE)
    sol = solve_transmission(cfg)
    print("exterior cos(theta) source, level 4 (%d cells)" % sol.g.values.size)
    print("  condition estimate %.2e" % sol.condition_estimate)
    print("  trace defect %.2e, flux residual %.2e (discretization defect %.2e)"
          % (sol.trace_defect, sol.flux_residual, sol.discretization_defect))
    print("  interface values g in [%.4f, %.4f]" % (sol.g.values.real.min(), sol.g.values.real.max()))
    print("  tree potential at the root %.4e" % sol.u_tree.root_value.real)
    radii = np.array([1.0, 1.5, 2.0, 3.0])
    print("  exterior potential at theta = 0, r = 1, 1.5, 2, 3 (source in 1 < r < 2): %s"
          % ", ".join("%.4f" % v for v in sol.u_ext.eval(radii, 0.0).real))
    trace = sol.u_ext.trace0()
    print("  exterior trace: modes |k| <= %d, mode 1 = %.4f%+.4fj (g's, at 16 p^N modes)"
          % (trace.M, trace.coeffs[trace.M + 1].real, trace.coeffs[trace.M + 1].imag))

    const = solve_transmission(TransmissionConfig(params=REF, level=4, alpha1=1.0,
                                                  alpha0=0.0, c_root=2.5))
    print("\nconstant equilibrium (alpha0 = 0, root datum 2.5):")
    print("  max |g - 2.5| = %.2e" % np.abs(const.g.values - 2.5).max())

    smooth = FourierFn.from_modes(1.0, {1: 0.5, -1: 0.5})
    study = convergence_study(TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.3),
                              [3, 4, 5, 6, 7], manufactured=smooth)
    print("\nmanufactured cos(theta) datum: level, dof, H^1/2 error, running rate")
    for n, d, eh, rr in zip(study.levels, study.dof, study.err_h12, study.rate_running):
        print("  N=%d  dof %3d  err %.4e  rate %s" % (n, d, eh, "-" if np.isnan(rr) else "%.3f" % rr))
    print("  fitted rho_hat %.3f (admissible bound %.3f)"
          % (study.rho_hat, study.rho_admissible_max))

    print("\nplasmonic pencil of (C, D): leading generalized eigenvalues")
    for n in (3, 4, 5):
        system = assemble_system(TransmissionConfig(params=REF, level=n, alpha1=1.0, alpha0=0.0))
        values = plasmonic_pencil(system.C, system.D, count=4)
        print("  N=%d: %s" % (n, ", ".join("%.6f" % z.real for z in values)))

    system = assemble_system(TransmissionConfig(params=REF, level=3, alpha1=1.0, alpha0=0.0))
    lam = plasmonic_pencil(system.C, system.D, 2)[1]
    singular = TransmissionConfig(params=REF, level=3, alpha1=lam, alpha0=0.0,
                                  exterior_source=SOURCE)
    try:
        solve_interface(assemble_system(singular))
    except SingularInterfaceOperator as exc:
        print("\nsolving at alpha1 = %.6f raises SingularInterfaceOperator:" % lam.real)
        print("  %s" % exc)


if __name__ == "__main__":
    main()
