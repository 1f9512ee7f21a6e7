"""Parameter quadruple (k, a, b, c) of the wave-equation family.

The family is indexed by an integer nonlinearity degree k >= 1 and three
real coefficients a, b, c.  Everything downstream (term assembly, CFL
speeds, admissibility predicates) is driven by the derived coefficient set
computed here, so zero coefficients can be pruned before any discretization
ever sees a negative power of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Absolute tolerance on parameter identities.  Parameters are user-entered
# exact rationals in practice, so this only absorbs float representation.
PARAM_TOL = 1e-12


@dataclass(frozen=True)
class Params:
    """Family parameters.  k >= 1; k = 1 is admitted solely with a = 0 and
    b + 2c = 3 (otherwise a nonzero term needs a negative power of u)."""

    k: int
    a: float
    b: float
    c: float

    def __post_init__(self):
        k = as_int(self.k)
        object.__setattr__(self, "k", k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        for name in ("a", "b", "c"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        # At k = 1 only the two u^{k-2} u_x^3 terms (coefficients a and c_f2_1)
        # can need a negative power of u: the u^{k-3} ones carry a factor k - 2
        if k == 1 and (self.a != 0.0 or coefficients(self).c_f2_1 != 0.0):
            raise ValueError(
                f"k = 1 needs a = 0 and b + 2c = 3 (got a = {self.a:g}, b + 2c = {self.b + 2.0 * self.c:g}), "
                "else a term u^{k-2} u_x^3 needs a negative power of u; other a, b, c need k >= 2"
            )


def as_int(value, name: str = "k") -> int:
    """value as an int: an integral float reads as its int; a fraction, a
    bool or any other type is rejected with an error naming name."""
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


_FIXED_PRESETS = {
    "ch": (1, 0.0, 2.0, 0.5),
    "dp": (1, 0.0, 3.0, 0.0),
    "novikov": (2, 0.0, 3.0, 1.5),
    "forq": (2, 1.0 / 3.0, 2.0, 1.0),
}


def preset(name: str, **free) -> Params:
    """Named reductions of the family.

    Fixed presets: "ch", "dp", "novikov", "forq".  Parameterized families:
    "gkbch" (keywords k, b; sets a = 0, c = (3k - b)/2) and "ab" (keywords
    a, b; sets k = 2, c = (6 - 6a - b)/2).  The b-family is gkbch at k = 1.
    """
    key = name.lower()
    if key in _FIXED_PRESETS:
        if free:
            raise TypeError(f"preset {name!r} takes no free parameters")
        return Params(*_FIXED_PRESETS[key])
    try:
        if key == "gkbch":
            k, b = as_int(free.pop("k")), float(free.pop("b"))
            if free:
                raise TypeError(f"unexpected parameters for gkbch: {sorted(free)}")
            return Params(k, 0.0, b, (3.0 * k - b) / 2.0)
        if key == "ab":
            a, b = float(free.pop("a")), float(free.pop("b"))
            if free:
                raise TypeError(f"unexpected parameters for ab: {sorted(free)}")
            return Params(2, a, b, (6.0 - 6.0 * a - b) / 2.0)
    except KeyError as missing:
        raise TypeError(f"preset {name!r} is missing parameter {missing}") from None
    raise ValueError(f"unknown preset {name!r}")


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the evolution form's monomials beyond its transport
    term -u^k u_x, grouped by where they enter: one local term, three under
    the smoothed-and-differentiated bracket (f1) and two under the plain
    smoothed bracket (f2).  The trailing comment names each one's monomial.
    """

    c_cub: float   # u^{k-2} u_x^3
    c_f1_1: float  # u^{k+1}
    c_f1_2: float  # u^{k-1} u_x^2
    c_f1_3: float  # u^{k-3} u_x^4
    c_f2_1: float  # u^{k-2} u_x^3
    c_f2_2: float  # u^{k-3} u_x^3 u_xx


def coefficients(p: Params) -> CoefficientSet:
    """Derived coefficient set.  For k = 2 the factor (k - 2) makes c_f1_3
    and c_f2_2 exactly zero, so the u^{k-3} monomials are never formed."""
    k, a, b, c = p.k, p.a, p.b, p.c
    return CoefficientSet(
        c_cub=a,
        c_f1_1=b / (k + 1.0),
        c_f1_2=c,
        c_f1_3=-a * (k - 2),
        c_f2_1=k * (k + 2.0) - 8.0 * a - b - c * (k + 1.0),
        c_f2_2=-3.0 * a * (k - 2),
    )


def h1_conserved(p: Params) -> bool:
    """Whether the squared H^1 norm is invariant under the flow.

    The condition is 9a + b + 4c = 9 for k = 2, and a = 0 together with
    2c + (2/k)(b + 2c - 3k) + 1 = 2k for k >= 3 and for k = 1, where on the
    admissible line b + 2c = 3 it holds at CH (b = 2) only.
    """
    k, a, b, c = p.k, p.a, p.b, p.c
    if k == 2:
        return abs(9.0 * a + b + 4.0 * c - 9.0) <= PARAM_TOL
    if abs(a) > PARAM_TOL:
        return False
    return abs(2.0 * c + (2.0 / k) * (b + 2.0 * c - 3.0 * k) + 1.0 - 2.0 * k) <= PARAM_TOL


def periodic_peakon_admissible(p: Params) -> bool:
    """Whether the circle peakon formula applies: 6a + b + 2c = 3k."""
    return abs(6.0 * p.a + p.b + 2.0 * p.c - 3.0 * p.k) <= PARAM_TOL
