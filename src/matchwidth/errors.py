"""Exception types shared across the package."""


class MatchwidthError(Exception):
    """Base class for all library errors."""


class OracleLimitExceeded(MatchwidthError):
    """An exhaustive routine was asked to run above its size limit."""


class InvalidMatching(MatchwidthError):
    """Edge set is not a matching of the host graph."""


class NotPerfect(MatchwidthError):
    """Matching does not cover every vertex."""


class NoPerfectMatching(MatchwidthError):
    """Operation requires a graph with a perfect matching."""


class DegreeNotTwo(MatchwidthError):
    """Bicontraction target must have degree exactly two."""


class InvalidDecomposition(MatchwidthError):
    """Decomposition fails its structural axioms."""


class NotNice(MatchwidthError):
    """Directed tree decomposition lacks the niceness properties."""


class NotContractible(MatchwidthError):
    """Arc does not satisfy the butterfly contraction condition."""


class NotStronglyConnected(MatchwidthError):
    """Digraph must be strongly connected."""


class InvalidParameter(MatchwidthError):
    """A generator was given an order or arc it cannot build from."""


class OddOrder(MatchwidthError):
    """Construction requires an even order parameter."""


class OddVertexCount(MatchwidthError):
    """Construction would produce an odd number of vertices."""


class NotMatchingCovered(MatchwidthError):
    """Graph must be matching covered."""


class InvalidW(MatchwidthError):
    """Terminal-covering matching violates its preconditions."""


class InvalidPairs(MatchwidthError):
    """Terminal pairs must each join V1 to V2."""


class NotExtendable(MatchwidthError):
    """Edge set is not contained in any perfect matching."""


class ModelInvalid(MatchwidthError):
    """Matching minor model violates one of its conditions."""


class ParseError(MatchwidthError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
