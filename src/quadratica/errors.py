"""Domain errors raised across the package.

Every rule violation raises a subclass of :class:`DomainError`, so callers
(and the CLI) can distinguish "your inputs break a mathematical precondition"
from programming errors.
"""


class DomainError(Exception):
    """Base class for all domain-rule violations."""


# quadratic fields
class PerfectSquareRadicand(DomainError):
    """The radicand is 0, 1, or a perfect square: x^2 = m already has a rational root."""


class MixedRadicands(DomainError):
    """Two elements live in different quadratic extensions and neither is rational."""


class DivisionByZero(DomainError, ZeroDivisionError):
    """Division by the zero element."""


# solving / series
class DegenerateLeadingCoefficient(DomainError):
    """Leading coefficient a = 0: not a quadratic."""


class NonPositiveParameter(DomainError):
    """A parameter required to be strictly positive is not."""


class NegativeIndex(DomainError):
    """Sequence index outside its domain."""


class InputTooLarge(DomainError):
    """An input whose size maps straight to run time or output size is past its limit."""


class IndistinctSamples(DomainError):
    """A sampler step too fine for the printed precision to show consecutive x values apart."""


# congruences
class CompositeModulus(DomainError):
    """Modulus is not an odd prime."""


class EvenModulusUnsupported(DomainError):
    """Modulus 2 (or any even modulus) is rejected rather than special-cased."""


class DegenerateLeading(DomainError):
    """p divides the leading coefficient: the congruence is not quadratic mod p."""


class NotRepresentable(DomainError):
    """No a^2 + b^2 = p decomposition exists (p = 4t + 3)."""


# areas
class EmptyInterval(DomainError):
    """Interval [a, b] requires a < b."""


# Goldbach
class EvenInput(DomainError):
    """Both inputs must be odd."""


class InvalidTarget(DomainError):
    """A witness target must be an even N >= 4."""


class NoWitnessFound(DomainError):
    """The witness search exhausted I < M: a Goldbach counterexample candidate."""


class InvalidPair(DomainError):
    """The (p, q) pair does not satisfy the required prime/ordering constraints."""


class NotCoprime(DomainError):
    """gcd(2n, I) must be 1."""


# p-numbers
class InvalidDigit(DomainError):
    """A repdigit's digit must lie in 1..9."""


# geometry
class NonPositiveLength(DomainError):
    """Lengths must be strictly positive."""


class InvalidAngle(DomainError):
    """Launch angle must lie strictly between 0 and pi/2."""


class NonFiniteTrajectory(DomainError):
    """A launch whose coefficients, apex or range are NaN or outside the float range."""
