"""Exception types shared across the toolkit."""


class BoxFormatError(ValueError):
    """Box data cannot be parsed into the expected (2,2,2,2) layout."""


class BoxInvariantError(ValueError):
    """A probability table violates positivity or per-setting normalization."""


class WeightError(ValueError):
    """Mixture weights are negative, mismatched, or do not sum to one."""


class DomainError(ValueError):
    """A scalar argument falls outside its documented range."""


class Infeasible(Exception):
    """The box lies outside the local + one-way communication polytope."""


class NumericalError(Exception):
    """A solver failed to reach the requested tolerance."""
