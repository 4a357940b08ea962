"""Exception and warning types shared across the package."""


class TreediskError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveParameter(TreediskError):
    """A parameter that must be strictly positive (or a positive integer) is not."""


class StructuralConditionViolated(TreediskError):
    """One of the structural inequalities on (p, ell, omega) fails; the message names it."""


class CondensationBelowGeometricGeneration(TreediskError):
    """Condensation requested at a generation where the tree is not yet geometric."""


class DepthMismatch(TreediskError):
    """Tree depth, decomposition level, or function level do not line up."""


class KirchhoffViolated(TreediskError):
    """Flux balance at interior vertices fails beyond tolerance; gamma1 is undefined."""


class NotGeometric(TreediskError):
    """Operation requires a purely geometric tree (no overrides, N1 = 0)."""


class SingularSystem(TreediskError):
    """A linear solve met a (numerically) singular matrix."""


class AssemblyTooLarge(TreediskError):
    """A dense operator or a tree exceeds its size budget; raised before it is allocated."""


class ExponentOrderViolated(TreediskError):
    """Smoothness exponents must satisfy 0 < sigma < sigma' < 1/2."""


class ScaleEqualsRadius(TreediskError):
    """The logarithmic scale r_scale must differ from the circle radius."""


class UnresolvableMode0(TreediskError):
    """Mode-0 radiation constraint conflicts with the data (diagnostic mode only)."""


class DepthBelowChartLevel(TreediskError):
    """Interface system level below the minimum admissible level."""


class Alpha1Zero(TreediskError):
    """The transmission coefficient alpha1 must be nonzero."""


class SingularInterfaceOperator(TreediskError):
    """The interface operator M_N is numerically singular (plasmonic parameter hit)."""


class InsufficientDepths(TreediskError):
    """A rate fit needs at least three depths."""


class InsufficientLevels(TreediskError):
    """A convergence study needs at least two levels."""


class ConfigError(TreediskError):
    """Malformed or unknown configuration content; the message carries the line."""


class CutoffTooSmall(UserWarning):
    """Galerkin mode cutoff too small for the requested level."""
