"""Exception and warning types shared across the package."""


class HJHomogError(Exception):
    """Base class for all package errors."""


class ProfileError(HJHomogError):
    """Invalid or non-finite Hamiltonian profile."""


class NotConstrained(HJHomogError):
    """Branch detection found x-dependent breakpoints."""


class OutOfBranchRange(HJHomogError):
    """Requested level is outside a monotone branch's value range."""


class ClusterSuspected(HJHomogError):
    """Two junctions or extrema closer than the cluster-free separation."""


class NotApplicable(HJHomogError):
    """Operation does not apply to this field (e.g. no interior minimum)."""


class Diverged(HJHomogError):
    """Discounted solve failed to reach the residual tolerance."""

    def __init__(self, message, residual_trace):
        super().__init__(message)
        self.residual_trace = residual_trace


class NotPointwiseExtremal(HJHomogError):
    """Integral-optimal admissible function failed pointwise dominance."""


class LevelSetConflict(HJHomogError):
    """Level intervals overlap beyond their confidence intervals."""


class NormalizationViolated(HJHomogError):
    """Field does not satisfy the normalization esssup H(0, x) = 0."""


class GridTooLarge(HJHomogError):
    """A grid needs more nodes than ``cell_solver.MAX_NODES``."""


class ConfigError(HJHomogError):
    """Malformed run configuration."""


class ReductionStalled(UserWarning):
    """A reduction step stalled or hit the depth cap: a direct-solver leaf
    stands in."""


class VirtualHatEndpoint(UserWarning):
    """No hill right of the tied well: the tilt hat ends at a mirror image."""


class OracleFellBack(UserWarning):
    """The convex oracle failed on a quasi-convex leaf: the solver stands in."""


class NoisyLimit(UserWarning):
    """The discounted limit trend is not monotone within tolerance."""


class WarmStartRetried(UserWarning):
    """A warm-started discounted solve diverged and was solved again cold."""


class ExtrapolationUsed(UserWarning):
    """A sampled effective curve was evaluated outside its support."""
