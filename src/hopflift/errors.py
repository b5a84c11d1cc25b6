"""Exception types shared across the package."""


class HopfliftError(Exception):
    """Base class for all library errors."""


# coefficient rings
class NotPrime(HopfliftError):
    pass


class ReducibleModulus(HopfliftError):
    pass


class DescriptorMismatch(HopfliftError):
    pass


class NotAUnit(HopfliftError):
    pass


class NotDivisible(HopfliftError):
    """A claimed p^k-divisibility failed; signals an internal consistency bug."""


class SingularModP(HopfliftError):
    pass


class UnsupportedModulus(HopfliftError):
    """q = p^n exceeds MAX_MODULUS; residues are int64 and a sum of two must fit."""


# tensor calculus
class ArityMismatch(HopfliftError):
    pass


# hopf core
class NotAGroup(HopfliftError):
    pass


class SingularAntipode(HopfliftError):
    pass


class InternalAxiomFailure(HopfliftError):
    """A built-in construction failed its own axioms; indicates a convention bug."""


class OrderNotFound(HopfliftError):
    pass


class FieldTooLargeForRootSearch(HopfliftError):
    pass


class NotSemisimple(HopfliftError):
    pass


class NotSplit(HopfliftError):
    pass


class ThetaNotHopfMap(HopfliftError):
    pass


# cohomology
class NotACocycle(HopfliftError):
    pass


class BudgetExceeded(HopfliftError):
    pass


# lifting
class NotSemisimpleOrCosemisimple(HopfliftError):
    pass


class AxiomsViolated(NotSemisimpleOrCosemisimple):
    """A base handed to lift fails Hopf axioms; the message names them."""


class CoboundaryUnsolvable(HopfliftError):
    """A degree-2 obstruction was not a coboundary; contradicts H^2 = 0."""


class CocycleUnsolvable(HopfliftError):
    """A degree-1 cocycle was not a coboundary; contradicts H^1 = 0."""


class PostAxiomFailure(HopfliftError):
    pass


class RightAntipodeFailure(HopfliftError):
    pass


class DifferentBaseOrPrecision(HopfliftError):
    pass


class UnitCompatibilityFailure(HopfliftError):
    pass


class TriangularityLost(HopfliftError):
    pass


# arithcheck
class NotRealAtRoot(HopfliftError):
    pass


class NonConstantProduct(HopfliftError):
    pass


class DimensionTooSmall(HopfliftError):
    pass


# serialization / CLI
class SchemaViolation(HopfliftError):
    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
