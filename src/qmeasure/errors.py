"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all qmeasure errors."""


class DimensionMismatch(SimulationError):
    """Operands live on Hilbert spaces of incompatible dimension."""


class NotHermitian(SimulationError):
    """An operator required to be Hermitian is not, within tolerance."""


class UnresolvableWidth(SimulationError):
    """A wavepacket width cannot be represented on the given grid."""


class ImpossibleOutcome(SimulationError):
    """Conditioning on an outcome of (numerically) zero probability."""


class InvalidPovm(SimulationError):
    """Effects are not positive or do not sum to the identity."""


class InvalidSmearing(SimulationError):
    """Smearing weights are negative or do not sum to one per eigenvalue."""


class IncompleteTiling(SimulationError):
    """Phase-space cells do not resolve the identity within tolerance."""


class NonExtendable(SimulationError):
    """A partially specified interaction cannot be completed to a unitary."""


class InvalidRegime(SimulationError):
    """Decay-model parameters violate the weak-coupling regime."""


class UnresolvedSpectrum(SimulationError):
    """The decay model's secular equation gave no converged, finite, normalized spectrum."""


class OutsideValidityWindow(SimulationError):
    """A requested time exceeds the model's recurrence-safe window."""


class EmptyRegion(SimulationError):
    """A region projector was requested for an empty index window."""


class InvalidIndex(SimulationError):
    """A history label does not address a valid projector sequence."""


class InconsistentFamily(SimulationError):
    """A history family fails the consistency test, so its diagonal
    weights are not licensed as probabilities."""


class InvalidConfig(SimulationError):
    """A scenario configuration is unusable."""


class ParseError(InvalidConfig):
    """A scenario configuration could not be parsed at all."""


class RangeError(InvalidConfig):
    """One or more configuration fields are outside their valid ranges."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
