"""Exception hierarchy shared across the package."""


class EntbathError(Exception):
    """Base class for all package errors."""


class ConfigError(EntbathError):
    """Invalid run configuration; message names the offending field."""


class UnphysicalStateError(EntbathError):
    """A covariance matrix violates the uncertainty principle."""


class OrderingError(EntbathError):
    """An operation received a covariance matrix in the wrong ordering."""


class UnstableHamiltonianError(EntbathError):
    """The total quadratic Hamiltonian is not positive semidefinite."""


class RecurrenceWindowError(EntbathError):
    """Requested evolution time exceeds the discrete-bath recurrence window."""


class NumericalError(EntbathError):
    """A numerical routine failed to converge or produced invalid output."""
