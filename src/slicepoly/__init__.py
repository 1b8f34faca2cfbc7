"""Slice polyanalytic operator calculus on quaternions.

Exact polynomial backend for the global operators G and V, the order-n
Fueter maps, and the conjugate-power decomposition; float backend for the
slice Cauchy kernels and the reproducing/mapping contour integrals; a
finite-difference oracle for everything the exact backend cannot reach.

Every public name below is importable from the package root.  Each loads its
home module on first access (PEP 562), so ``import slicepoly.cli`` reads only
the modules its command needs.
"""

from importlib import import_module

_EXPORTS = {
    "errors": ("DegreeCapExceeded", "NotDivisible", "NotFueterRegular", "NotInClass",
               "NotOrthogonal", "OnRealAxis", "OnSingularSphere", "OrderMismatch",
               "OutsideContour", "SlicePolyError"),
    "quat": ("E1", "E2", "E3", "ONE", "Quaternion", "U1", "U2", "UnitImaginary", "ZERO",
             "quatf"),
    "qpoly": ("QPoly", "c_n", "cauchy_fueter", "conjugate_cauchy_fueter",
              "divide_by_vecnorm_sq", "expand_q_power", "expand_qbar_power", "global_g",
              "global_v", "is_poly_fueter", "build_poly_fueter", "laplacian", "partial",
              "tau_n"),
    "slicefn": ("RightSlicePolyFn", "SlicePolyFn", "SliceRegularSeries", "appell_apply",
                "appell_check", "decompose", "right_cr_derivative", "slice_cr_derivative"),
    "kernels": ("delta_s_inv", "f_j", "s_inv"),
    "quad": ("CirclePath", "canonical_perp", "cauchy_theorem_residual", "fueter_integral",
             "fueter_integral_explicit", "poly_cauchy_eval", "restrict",
             "unit_independence_check"),
}

#: public name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{home}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})
