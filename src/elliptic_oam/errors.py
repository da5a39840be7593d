"""Exception hierarchy shared by all modules."""


class EllipticOamError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModeError(EllipticOamError):
    """Mode indices violate the (p, m, parity) admissibility rules."""


class SolverError(EllipticOamError):
    """Numerical failure inside an eigensolver (non-convergence, collision)."""


class UnnormalizedStateError(EllipticOamError):
    """Quantum state coefficients do not sum to unit probability."""


class GridError(EllipticOamError):
    """Sampled field grid is degenerate or incompatible with the operation."""
