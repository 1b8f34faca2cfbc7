"""Slice polyanalytic operator calculus on quaternions.

Exact polynomial backend for the global operators G and V, the order-n
Fueter maps, and the conjugate-power decomposition; float backend for the
slice Cauchy kernels and the reproducing/mapping contour integrals; a
finite-difference oracle for everything the exact backend cannot reach.
"""

from .errors import (
    DegreeCapExceeded,
    NotDivisible,
    NotFueterRegular,
    NotInClass,
    NotOrthogonal,
    OnRealAxis,
    OnSingularSphere,
    OrderMismatch,
    OutsideContour,
    SlicePolyError,
)
from .quat import (
    E1,
    E2,
    E3,
    ONE,
    Quaternion,
    U1,
    U2,
    UnitImaginary,
    ZERO,
    quatf,
)
from .qpoly import (
    QPoly,
    c_n,
    cauchy_fueter,
    conjugate_cauchy_fueter,
    divide_by_vecnorm_sq,
    expand_q_power,
    expand_qbar_power,
    global_g,
    global_v,
    is_poly_fueter,
    build_poly_fueter,
    laplacian,
    partial,
    tau_n,
)
from .slicefn import (
    RightSlicePolyFn,
    SlicePolyFn,
    SliceRegularSeries,
    appell_apply,
    appell_check,
    decompose,
    right_cr_derivative,
    slice_cr_derivative,
)
from .kernels import delta_s_inv, f_j, s_inv
from .quad import (
    CirclePath,
    canonical_perp,
    cauchy_theorem_residual,
    fueter_integral,
    fueter_integral_explicit,
    poly_cauchy_eval,
    restrict,
    unit_independence_check,
)

__version__ = "0.1.0"
