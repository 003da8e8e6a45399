"""Exception types shared across the package."""


class GcbError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GcbError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CapExceeded(GcbError):
    """An enumeration would exceed the configured size cap."""


class UnknownEdge(GcbError):
    """A configuration mentions an edge the graph does not have."""


class OutOfAlphabet(GcbError):
    """An assigned symbol lies outside the edge's alphabet."""


class SupportOnZeroMass(GcbError):
    """A distribution puts weight on a configuration with zero global value."""


class EmptyCode(GcbError):
    """The graph has no valid configurations where one is required."""


class InvalidMember(GcbError):
    """A sequence element is not a valid configuration of the graph."""


class InvalidConfiguration(GcbError):
    """A configuration is not valid on the (cover) graph it was given for."""


class NonIntegralType(GcbError):
    """M times the pseudo-marginal vector is not integral."""


class InconsistentBeta(GcbError):
    """Pseudo-marginals violate an edge consistency constraint."""


class ShapeMismatch(GcbError):
    """Pseudo-marginals are not shaped for the given graph."""


class SupportOnZeroFactor(GcbError):
    """Factor beliefs put weight on a local assignment with zero value."""


class ZeroGlobalValue(GcbError):
    """The global function vanishes where a positive value is required."""


class NonConvergence(GcbError):
    """An iterative solver hit its iteration cap without a usable result."""


class InfeasibleOmega(GcbError):
    """The requested half-edge marginals lie outside the fundamental polytope."""


class LengthMismatch(GcbError):
    """A received vector's length does not match the code length."""


class LpFailure(GcbError):
    """The linear-programming solver failed."""


class NotCycleCode(GcbError):
    """The graph is not an all-parity, half-edge-free binary graph."""


class NonBinaryAlphabet(GcbError):
    """An operation requiring binary alphabets met a larger one."""
