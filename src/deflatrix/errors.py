"""Exception types shared across the package.

``PreconditionError`` subclasses mark mathematical preconditions discovered at
runtime (degenerate gaps, non-convergence, ...); the CLI maps them to exit
code 2 so shell pipelines can tell a vacuous run from a broken invocation.
"""


class DeflatrixError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(DeflatrixError, ValueError):
    """Operands have incompatible shapes."""


class SchemaError(DeflatrixError, ValueError):
    """A CSV file, config file or dataset does not match the expected schema."""


class PreconditionError(DeflatrixError):
    """A mathematical precondition failed at runtime (CLI exit code 2)."""


class InvalidSpectrumError(PreconditionError):
    """Eigenvalues violate the strict-decay requirement (ties, wrong order,
    non-positive values, or a rate outside its admissible range)."""


class DegenerateIterateError(PreconditionError):
    """A power-iteration step produced a vanishing vector (the start vector
    lies in the kernel of the iterated matrix)."""


class DegenerateGapError(PreconditionError):
    """An eigenvalue gap needed by the computation is numerically zero."""


class IsolatedNodeError(PreconditionError):
    """A similarity-graph node has zero degree."""

    def __init__(self, node: int):
        super().__init__(f"node {node} has zero degree; the normalized Laplacian is undefined")
        self.node = node
