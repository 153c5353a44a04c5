"""Newton polygons of primitive integer polynomials and per-prime entropy.

A polygon at prime p is the lower convex hull of the points (i, vp(b_i))
over the nonzero coefficients b_i.  With the orientation fixed here, a
segment of slope sigma and length ell certifies exactly ell roots (in a
finite extension of Q_p, with multiplicity) of valuation -sigma, i.e. of
p-adic norm p**sigma; so "positive slope <=> contributes entropy" is
literal.  Everything in this module is exact integer/rational arithmetic.

The primes of the clearing integer s and their exponents come from one
`factorize(s)`; a polygon reads each coefficient's exponent by division.
`lower_hull` also draws Bini's archimedean polygon, of (i, -log|a_i|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .numtheory import factorize, is_prime
from .ratpoly import IntPoly, valuation


class Segment(NamedTuple):
    slope: Fraction
    length: int


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower hull of coefficient valuations at one prime."""

    p: int
    points: tuple[tuple[int, int], ...]
    segments: tuple[Segment, ...]

    def positive_mass(self) -> Fraction:
        """Sum of length * slope over the positive-slope segments.

        For a primitive polynomial this equals vp of the leading
        coefficient exactly (content 1 forces a valuation-0 vertex, and the
        hull climbs from there to (degree, vp(lead))).
        """
        return sum(
            (Fraction(s.length) * s.slope for s in self.segments if s.slope > 0),
            Fraction(0),
        )


@dataclass(frozen=True)
class PlaceIdentityReport:
    """Exact per-prime comparison of polygon mass against vp(s)."""

    s: int
    per_prime: tuple[tuple[int, int, Fraction, bool], ...]  # (p, vp(s), mass, ok)
    polygons: tuple[NewtonPolygon, ...]  # one per row of per_prime, same order
    reconstruction_ok: bool  # prod p**vp(s) == s exactly
    log_gap: float  # |log s - sum vp(s) log p| in floating point

    @property
    def all_ok(self) -> bool:
        return self.reconstruction_ok and all(ok for *_, ok in self.per_prime)


def lower_hull(points):
    """The lower convex hull's vertices of `points`, given by strictly increasing
    abscissa, by monotone chain: slopes strictly increase, as a vertex on or
    above the chord from the one before it to the next point is dropped."""
    hull = []
    for x, y in points:
        while len(hull) > 1:
            (x0, y0), (x1, y1) = hull[-2:]
            if (x1 - x0) * (y - y0) > (y1 - y0) * (x - x0):
                break
            hull.pop()
        hull.append((x, y))
    return hull


def newton_polygon(P: IntPoly, p: int) -> NewtonPolygon:
    """Lower convex hull of (i, vp(b_i)) for a primitive polynomial; a
    constant, +/-1, has the one point (0, 0) and no segment."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if P.content() != 1:
        raise ValueError("polynomial must be primitive (content 1)")
    pts = [(i, valuation(c, p)) for i, c in enumerate(P.coeffs) if c != 0]
    hull = lower_hull(pts)
    segments = tuple(
        Segment(Fraction(y2 - y1, x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    )
    return NewtonPolygon(p=p, points=tuple(pts), segments=segments)


def verify_place_identity(P: IntPoly) -> PlaceIdentityReport:
    """Check, prime by prime, that the polygon mass equals vp(lead) exactly.

    The primes of s = |lead| and their exponents come from one
    `factorize(s)`.  Keeps the polygons it builds, so callers need not
    build them again.  Also reconstructs s as the product of p**vp(s),
    which checks those exponents, and reports the floating-point gap of
    the log identity.
    """
    if P.content() != 1:
        raise ValueError("polynomial must be primitive (content 1)")
    s = abs(P.lead)
    rows = []
    polygons = []
    product = 1
    log_sum = 0.0
    for p, v in factorize(s).items():
        polygon = newton_polygon(P, p)
        mass = polygon.positive_mass()
        rows.append((p, v, mass, mass == v))
        polygons.append(polygon)
        product *= p**v
        log_sum += v * math.log(p)
    return PlaceIdentityReport(
        s=s,
        per_prime=tuple(rows),
        polygons=tuple(polygons),
        reconstruction_ok=(product == s),
        log_gap=abs(math.log(s) - log_sum),
    )
