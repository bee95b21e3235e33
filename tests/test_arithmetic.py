"""Geometric arithmetic on the axis versus the pure field operations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geokernel.field import Negative, Q, inv_positive, sqrt_nonneg
from geokernel.geometry import Point, between, pt
from geokernel.arithmetic import (
    DIAG, ORIGIN, UNIT_X, UNIT_Y, axis, check_homomorphism, coordinates,
    expresses_negative, geo_add, geo_inv, geo_mul, geo_sqrt,
    point_from_coords, rotate90,
)
from geokernel import arithmetic
from geokernel.constructions import ConstructionError, PostconditionFailure

nonzero = st.fractions(min_value=-30, max_value=30).filter(lambda v: v != 0)
anyq = st.fractions(min_value=-30, max_value=30)


class TestOps:
    def test_add(self):
        assert geo_add(axis(Fraction(3)), axis(Fraction(-5))) == pt(-2, 0)
        assert geo_add(axis(Fraction(0)), axis(Fraction(0))) == ORIGIN

    def test_mul_sign_table(self):
        for a in (2, -2):
            for b in (3, -3):
                got = geo_mul(axis(Fraction(a)), axis(Fraction(b)))
                assert got == pt(a * b, 0)

    def test_mul_with_zero(self):
        assert geo_mul(axis(Fraction(0)), axis(Fraction(7))) == ORIGIN
        assert geo_mul(axis(Fraction(5)), axis(Fraction(5))) == pt(25, 0)

    def test_inv(self):
        assert geo_inv(axis(Fraction(4))) == pt(Fraction(1, 4), 0)
        assert geo_inv(axis(Fraction(-1, 3))) == pt(-3, 0)
        with pytest.raises(ConstructionError):
            geo_inv(ORIGIN)

    def test_sqrt(self):
        assert geo_sqrt(axis(Fraction(9))) == pt(3, 0)
        two = geo_sqrt(axis(Fraction(2)))
        assert two.x == sqrt_nonneg(Q(2)) and two.y.is_zero()
        assert geo_sqrt(ORIGIN) == ORIGIN
        with pytest.raises(Negative):
            geo_sqrt(axis(Fraction(-1)))

    def test_postcondition_survives_optimize(self, monkeypatch):
        # a wrong chord point must fail the exact re-check, which is a
        # raise, not an assert, so it holds under python -O as well
        monkeypatch.setattr(arithmetic, "line_circle",
                            lambda *args, **kw: (pt(5, 5), pt(7, 7)))
        with pytest.raises(PostconditionFailure):
            geo_mul(axis(Fraction(2)), axis(Fraction(3)))

    def test_rotate90(self):
        assert rotate90(pt(1, 0)) == pt(0, 1)
        assert rotate90(pt(0, 1)) == pt(-1, 0)

    @given(a=anyq, b=anyq)
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, a, b):
        assert check_homomorphism(Q(a), Q(b))


class TestCoordinates:
    def test_roundtrip(self):
        p = pt(Fraction(3, 2), Fraction(-7, 5))
        fx, fy = coordinates(p)
        assert fx == pt(Fraction(3, 2), 0)
        assert fy == pt(Fraction(-7, 5), 0)
        assert point_from_coords(fx, fy) == p

    def test_axis_points(self):
        fx, fy = coordinates(pt(4, 0))
        assert fx == pt(4, 0) and fy == ORIGIN

    @given(x=anyq, y=anyq)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, x, y):
        p = pt(x, y)
        fx, fy = coordinates(p)
        assert point_from_coords(fx, fy) == p


class TestTwoSides:
    def test_negative_iff_between(self):
        assert expresses_negative(axis(Fraction(-3)))
        assert not expresses_negative(axis(Fraction(3)))
        assert not expresses_negative(ORIGIN)
        assert not expresses_negative(UNIT_X)
