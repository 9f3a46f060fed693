"""Exact geometry: reflections, projections, subsystem validation."""
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from projdunkl import (
    OrthogonalSubsystem,
    RationalVector,
    build_subsystem_A,
    build_subsystem_B,
    build_subsystem_coordinate,
    project,
    reflect,
)


def rv(*coords):
    return RationalVector([F(c) for c in coords])


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def test_parse_and_str_roundtrip():
    v = RationalVector.parse("(1/2, -3, 0)")
    assert v.coords == (F(1, 2), F(-3), F(0))
    assert RationalVector.parse(str(v)) == v


def test_unit_and_zero():
    e2 = RationalVector.unit(1, 3)
    assert e2.coords == (0, 1, 0)
    assert RationalVector.zero(2).is_zero()
    assert not e2.is_zero()


def test_dot_and_norm():
    a = rv(1, -1, 0)
    b = rv("1/2", "1/2", 5)
    assert a.dot(b) == 0
    assert a.norm_sq() == 2


wide = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6)


@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.lists(wide, min_size=n, max_size=n), st.lists(wide, min_size=n, max_size=n))))
def test_dot_and_norm_equal_the_fraction_sums(pair):
    a, b = (RationalVector(v) for v in pair)
    want = sum((x * y for x, y in zip(a, b)), F(0))
    assert type(a.dot(b)) is F and a.dot(b) == want
    assert a.norm_sq() == sum((x * x for x in a), F(0))


def test_reflection_formula():
    # s fixes the wall and negates the normal component; for e1 - e2 it
    # swaps the two coordinates
    alpha = rv(1, -1)
    assert reflect(rv(1, 1), alpha) == rv(1, 1)
    assert reflect(alpha, alpha) == rv(-1, 1)
    assert reflect(rv(2, 0), alpha) == rv(0, 2)
    # the projection is the midpoint of x and its mirror image
    assert project(rv(2, 0), alpha) == rv(1, 1)


def test_projection_is_midpoint():
    alpha = rv(0, 3)
    x = rv(5, 7)
    p = project(x, alpha)
    assert p == rv(5, 0)
    # 2 P = 1 + tau
    assert p.scale(2) == x + reflect(x, alpha)


@given(st.lists(fractions, min_size=2, max_size=4), st.lists(fractions, min_size=2, max_size=4))
def test_reflection_involution_and_isometry(xs, ys):
    n = min(len(xs), len(ys))
    x = RationalVector(xs[:n])
    alpha = RationalVector(ys[:n])
    if alpha.is_zero():
        return
    tx = reflect(x, alpha)
    assert reflect(tx, alpha) == x
    assert tx.norm_sq() == x.norm_sq()


@given(st.lists(fractions, min_size=2, max_size=4), st.lists(fractions, min_size=2, max_size=4))
def test_projection_idempotent_and_kills_alpha(xs, ys):
    n = min(len(xs), len(ys))
    x = RationalVector(xs[:n])
    alpha = RationalVector(ys[:n])
    if alpha.is_zero():
        return
    p = project(x, alpha)
    assert project(p, alpha) == p
    assert p.dot(alpha) == 0


def test_subsystem_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="not orthogonal"):
        OrthogonalSubsystem(2, [rv(1, 0), rv(1, 1)], [F(1), F(1)])


def test_subsystem_rejects_zero_root():
    with pytest.raises(ValueError, match="zero vector"):
        OrthogonalSubsystem(2, [rv(0, 0)], [F(1)])


def test_subsystem_rejects_negative_kappa():
    with pytest.raises(ValueError, match="negative"):
        OrthogonalSubsystem(2, [rv(1, 0)], [F(-1, 2)])


def test_subsystem_rejects_too_many_roots():
    with pytest.raises(ValueError, match="dimension"):
        OrthogonalSubsystem(1, [rv(1), rv(2)], [F(1), F(1)])


def test_subsystem_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        OrthogonalSubsystem(3, [rv(1, 0)], [F(1)])


def test_json_roundtrip():
    sub = build_subsystem_B(2, [F(1, 2)], [F(3, 2)])
    again = OrthogonalSubsystem.from_json(sub.to_json())
    assert again.dim == sub.dim
    assert again.roots == sub.roots
    assert again.kappas == sub.kappas


def test_builder_A_layout():
    sub = build_subsystem_A(5, [F(1), F(2)])
    assert sub.dim == 5
    assert sub.roots == (rv(1, -1, 0, 0, 0), rv(0, 0, 1, -1, 0))


def test_builder_A_rejects_excess_kappas():
    with pytest.raises(ValueError):
        build_subsystem_A(3, [F(1), F(1)])


def test_builder_B_layout():
    sub = build_subsystem_B(2, [F(1, 2)], [F(1)])
    assert sub.roots == (rv(1, -1), rv(1, 1))
    assert sub.kappas == (F(1, 2), F(1))


def test_builder_coordinate_layout():
    sub = build_subsystem_coordinate(3, [F(1, 2), F(1), F(2)])
    assert sub.roots == (rv(1, 0, 0), rv(0, 1, 0), rv(0, 0, 1))
