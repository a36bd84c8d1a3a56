"""Error taxonomy and resource caps shared by the library and the CLI.

The CLI maps these onto exit codes: DomainError -> 2, ResourceError -> 3,
UsageError -> 64.  The caps live here, beside ResourceError, because this
module imports nothing: the CLI checks them without loading numpy.
"""

# Largest integer an SPF table or a factored window reaches.  Construction
# allocates one 4-byte cell per integer (8 bytes above 2**32); the cap keeps
# a full build comfortably inside a few GB of RAM.
DEFAULT_LIMIT_CAP = 400_000_000

# Largest x of a whole-range table or scan over 1..x.
DEFAULT_SCAN_CAP = 200_000_000


class DivilabError(Exception):
    """Base class for all divilab errors."""


class DomainError(DivilabError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ResourceError(DivilabError, RuntimeError):
    """Request exceeds a configured capability cap (memory, sieve range, ...)."""


class ConstraintError(DomainError):
    """A structural constraint failed validation (names the first offender)."""


class UsageError(DivilabError):
    """Bad command line or manifest."""
