"""Domain error types shared across the library.

Every error the library raises on bad mathematical input derives from
DdfError, so callers (and the CLI) can distinguish domain failures from
plain usage mistakes.
"""


class DdfError(Exception):
    """Base class for all domain errors raised by this library."""


class InvalidElement(DdfError):
    """Element has the wrong arity or a coordinate out of range."""


class TooLarge(DdfError):
    """Input exceeds the exhaustive-enumeration bound."""


class NotAUnit(DdfError):
    """A residue or matrix is not invertible modulo the given modulus."""


class DoesNotDivide(DdfError):
    """A required divisibility relation fails."""


class FiveExcluded(DdfError):
    """p = 5 is outside the Fibonacci-matrix construction's scope."""


class NotSemiregular(DdfError):
    """The automorphism set has an orbit shorter than its size."""


class OrderOverflow(DdfError):
    """Iterating an automorphism exceeded the closure cap."""


class RequiresAbelianOddOrder(DdfError):
    """Operation needs a commutative group of odd relevant order."""


class PairingFailure(DdfError):
    """A block and its negation failed to pair up (internal assertion)."""


class CongruenceViolation(DdfError):
    """A prime or prime-power factor misses the required congruence."""


class DivisibleByThree(DdfError):
    """gcd(q, 3) = 1 is required."""


class EvenOrderU(DdfError):
    """The multiplicative subgroup must have odd order."""


class EvenOrder(DdfError):
    """The group order must be odd."""


class NotSpanning(DdfError):
    """Blocks do not partition the non-zero elements."""


class NotNormal(DdfError):
    """The subgroup is not normal in its parent."""


class IndexNotPrime(DdfError):
    """The subgroup index must be prime."""


class SmallPrimeFactor(DdfError):
    """Some prime factor of the group order does not exceed the block size."""


class InputNotDF(DdfError):
    """An input family fails its difference-family check."""


class InputNotDDF(DdfError):
    """The input must be a verified disjoint difference family."""


class BadChain(DdfError):
    """The supplied normal-subgroup chain is malformed."""


class VerificationFailed(DdfError):
    """A constructed object failed its own re-verification.

    This is raised loudly: it indicates a defect in the construction code,
    never a legitimate input condition.
    """
