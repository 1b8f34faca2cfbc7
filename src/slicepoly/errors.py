"""Exception types shared across the package.

Everything raised for a *domain* reason (input outside the class a theorem
needs, singular kernel argument, contour violation) derives from
``SlicePolyError`` so callers, in particular the CLI, can distinguish domain
failures from plain usage errors.
"""

from __future__ import annotations


class SlicePolyError(Exception):
    """Base class for domain and class-membership errors."""


class DegreeCapExceeded(SlicePolyError):
    """A polynomial operation would exceed the configured total-degree cap."""


class NotDivisible(SlicePolyError):
    """Exact division by the squared vector norm left a nonzero remainder.

    The offending remainder is kept on the ``remainder`` attribute; a nonzero
    remainder means the input is not the expansion of a slice polyanalytic
    function, i.e. the normalized global operator does not extend across the
    real axis for it.  Its degree may be DEGREE_CAP + 1: V divides an unchecked G image.
    """

    def __init__(self, remainder):
        super().__init__("polynomial is not divisible by the squared vector norm")
        self.remainder = remainder


class NotFueterRegular(SlicePolyError):
    """A component expected to be annihilated by the Cauchy-Fueter operator is not."""


class NotOrthogonal(SlicePolyError):
    """The two imaginary units supplied for a splitting do not anticommute."""


class NotInClass(SlicePolyError):
    """A polynomial is not the expansion of a slice polyanalytic function of the given order."""


class OnSingularSphere(SlicePolyError):
    """Kernel evaluation was requested on (or too close to) the singular sphere."""


class OutsideContour(SlicePolyError):
    """The evaluation point does not lie strictly inside the quadrature circle."""


class OrderMismatch(SlicePolyError):
    """The two functions of a bilinear integral do not share the same order."""


class OnRealAxis(SlicePolyError):
    """A finite-difference operator with a 1/|vec|^2 coefficient was evaluated on the real axis."""
