"""Wigner 3j/6j cache: values against sympy, symmetries, capacity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from sympy.physics.wigner import clebsch_gordan as sp_cg
from sympy.physics.wigner import wigner_3j as sp_3j
from sympy.physics.wigner import wigner_6j as sp_6j

from oracles import real_cg, real_cg_table_per_entry
from sixjconv.angular import (
    CapacityError,
    CoefficientCache,
    clebsch_gordan,
    default_cache,
    real_cg_table,
    sixj_oracle,
    triangle_ok,
    wigner3j,
    wigner6j,
)

TOL = 1e-14
J_MAX = default_cache.j_max


def _admissible_triples(j_hi):
    for j1 in range(j_hi + 1):
        for j2 in range(j_hi + 1):
            for j3 in range(abs(j1 - j2), min(j1 + j2, j_hi) + 1):
                yield j1, j2, j3


def test_triangle_ok():
    assert triangle_ok(1, 1, 2)
    assert triangle_ok(1, 1, 0)
    assert not triangle_ok(1, 1, 3)
    assert not triangle_ok(0, 2, 1)
    assert triangle_ok(0, 0, 0)


def test_wigner3j_matches_sympy_exhaustive_low_degrees():
    for j1, j2, j3 in _admissible_triples(2):
        for m1 in range(-j1, j1 + 1):
            for m2 in range(-j2, j2 + 1):
                m3 = -m1 - m2
                if abs(m3) > j3:
                    continue
                want = float(sp_3j(j1, j2, j3, m1, m2, m3))
                got = wigner3j((j1, j2, j3, m1, m2, m3))
                assert got == pytest.approx(want, abs=TOL)


def test_wigner3j_matches_sympy_sampled():
    rng = np.random.default_rng(np.random.Philox(key=41))
    for _ in range(60):
        j1, j2 = rng.integers(0, 4, size=2)
        j3 = rng.integers(abs(j1 - j2), j1 + j2 + 1)
        m1 = rng.integers(-j1, j1 + 1)
        m2 = rng.integers(-j2, j2 + 1)
        m3 = -m1 - m2
        if abs(m3) > j3:
            continue
        want = float(sp_3j(int(j1), int(j2), int(j3), int(m1), int(m2), int(m3)))
        got = wigner3j((j1, j2, j3, m1, m2, m3))
        assert got == pytest.approx(want, abs=TOL)


def test_wigner6j_matches_sympy():
    rng = np.random.default_rng(np.random.Philox(key=42))
    checked = 0
    while checked < 50:
        j = rng.integers(0, 4, size=6)
        j1, j2, j3, j4, j5, j6 = (int(x) for x in j)
        if not (triangle_ok(j1, j2, j3) and triangle_ok(j1, j5, j6)
                and triangle_ok(j4, j2, j6) and triangle_ok(j4, j5, j3)):
            continue
        want = float(sp_6j(j1, j2, j3, j4, j5, j6))
        got = wigner6j((j1, j2, j3, j4, j5, j6))
        assert got == pytest.approx(want, abs=TOL)
        checked += 1


def test_closed_form_values():
    # 3j(j,j,0; m,-m,0) = (-1)^(j-m) / sqrt(2j+1)
    for j in range(4):
        for m in range(-j, j + 1):
            want = (-1.0) ** (j - m) / math.sqrt(2 * j + 1)
            assert wigner3j((j, j, 0, m, -m, 0)) == pytest.approx(want, abs=TOL)
    assert wigner3j((1, 1, 2, 0, 0, 0)) == pytest.approx(math.sqrt(2 / 15), abs=TOL)
    assert wigner6j((1, 1, 1, 1, 1, 1)) == pytest.approx(Fraction(1, 6), abs=TOL)
    assert wigner6j((2, 2, 2, 2, 2, 2)) == pytest.approx(Fraction(-3, 70), abs=TOL)


def test_wigner3j_zero_outside_selection_rules():
    assert wigner3j((1, 1, 3, 0, 0, 0)) == 0.0
    assert wigner3j((1, 1, 2, 1, 1, -2)) != 0.0
    assert wigner3j((1, 1, 2, 1, 0, 0)) == 0.0  # m1+m2+m3 != 0
    assert wigner3j((1, 1, 1, 0, 0, 0)) == 0.0  # odd J with equal columns


def test_wigner3j_symmetries():
    # Exact: the Racah sums are rationals that the symmetries map to +-1 times
    # each other, so symmetric keys convert to the same float, phase applied.
    rng = np.random.default_rng(np.random.Philox(key=43))
    for _ in range(40):
        j1, j2 = (int(x) for x in rng.integers(0, J_MAX + 1, size=2))
        j3 = int(rng.integers(abs(j1 - j2), min(j1 + j2, J_MAX) + 1))
        m1 = int(rng.integers(-j1, j1 + 1))
        m2 = int(rng.integers(-j2, j2 + 1))
        m3 = -m1 - m2
        if abs(m3) > j3:
            continue
        base = wigner3j((j1, j2, j3, m1, m2, m3))
        sgn = (-1.0) ** (j1 + j2 + j3)
        # even column permutation: invariant
        assert wigner3j((j2, j3, j1, m2, m3, m1)) == base
        # odd column permutation and m negation: phase (-1)^(j1+j2+j3)
        assert wigner3j((j2, j1, j3, m2, m1, m3)) == sgn * base
        assert wigner3j((j1, j2, j3, -m1, -m2, -m3)) == sgn * base


def test_wigner6j_symmetries():
    rng = np.random.default_rng(np.random.Philox(key=44))
    checked = 0
    while checked < 40:
        j = [int(x) for x in rng.integers(0, J_MAX + 1, size=6)]
        j1, j2, j3, j4, j5, j6 = j
        if not (triangle_ok(j1, j2, j3) and triangle_ok(j1, j5, j6)
                and triangle_ok(j4, j2, j6) and triangle_ok(j4, j5, j3)):
            continue
        base = wigner6j((j1, j2, j3, j4, j5, j6))
        # column permutations of {(j1,j4),(j2,j5),(j3,j6)} are symmetries
        assert wigner6j((j2, j1, j3, j5, j4, j6)) == base
        assert wigner6j((j3, j2, j1, j6, j5, j4)) == base
        # swapping upper and lower entries of any two columns is one too
        assert wigner6j((j4, j5, j3, j1, j2, j6)) == base
        assert wigner6j((j1, j5, j6, j4, j2, j3)) == base
        checked += 1


def test_sixj_oracle_agrees_with_closed_form():
    for key in [(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 2, 2), (2, 2, 2, 2, 2, 2),
                (3, 2, 1, 2, 1, 2), (0, 2, 2, 1, 1, 1)]:
        assert sixj_oracle(key) == pytest.approx(wigner6j(key), abs=1e-12)


def test_capacity_and_validation():
    with pytest.raises(CapacityError, match="exceeds J_max"):
        wigner3j((13, 0, 13, 0, 0, 0))
    with pytest.raises(CapacityError, match="exceeds J_max"):
        wigner6j((13, 13, 13, 13, 13, 13))
    with pytest.raises(ValueError, match="negative degree"):
        wigner3j((-1, 1, 1, 0, 0, 0))
    cache = CoefficientCache(j_max=2)
    with pytest.raises(CapacityError):
        cache.wigner3j((3, 3, 3, 0, 0, 0))


def test_non_integer_keys_raise_whatever_the_caches_hold():
    # Asked before and after the integer key is cached: the answer must not
    # depend on what an earlier call left behind.
    for _ in range(2):
        with pytest.raises(ValueError, match="must be integers"):
            wigner3j((1.0, 1, 2, 0, 0, 0))
        with pytest.raises(ValueError, match="must be integers"):
            wigner6j((1, 1, 1, 1, 1, 1.5))
        with pytest.raises(ValueError, match="must be integers"):
            real_cg_table(1.0, 1, 2)
        with pytest.raises(ValueError, match="must be integers"):
            CoefficientCache().wigner3j((np.float64(1), 1, 2, 0, 0, 0))
        assert wigner3j((1, 1, 2, 0, 0, 0)) == pytest.approx(math.sqrt(2 / 15), abs=TOL)
        assert wigner6j((1, 1, 1, 1, 1, 1)) == pytest.approx(1 / 6, abs=TOL)
        real_cg_table(1, 1, 2)
    # numpy integers are integers
    key = tuple(np.int64(x) for x in (2, 1, 3, 1, -1, 0))
    assert wigner3j(key) == wigner3j((2, 1, 3, 1, -1, 0))
    assert wigner6j(np.full(6, 2)) == wigner6j((2, 2, 2, 2, 2, 2))
    assert np.array_equal(real_cg_table(np.int64(2), 1, 2), real_cg_table(2, 1, 2))


def test_clebsch_gordan_matches_sympy():
    rng = np.random.default_rng(np.random.Philox(key=45))
    for _ in range(40):
        j1, j2 = (int(x) for x in rng.integers(0, 4, size=2))
        j3 = int(rng.integers(abs(j1 - j2), j1 + j2 + 1))
        m1 = int(rng.integers(-j1, j1 + 1))
        m2 = int(rng.integers(-j2, j2 + 1))
        m3 = m1 + m2
        if abs(m3) > j3:
            continue
        want = float(sp_cg(j1, j2, j3, m1, m2, m3))
        assert clebsch_gordan(j1, m1, j2, m2, j3, m3) == pytest.approx(want, abs=TOL)


def test_real_cg_table_shape_and_triangle_zero():
    t = real_cg_table(1, 2, 2)
    assert t.shape == (3, 5, 5)
    assert not t.flags.writeable
    assert np.all(real_cg_table(1, 1, 3) == 0.0)


def test_real_cg_table_matches_per_entry_construction():
    # Bitwise: the half-table mirror by m -> -m changes no entry.
    triples = list(_admissible_triples(J_MAX))
    assert len(triples) == 1105
    for l1, l2, l3 in triples:
        assert np.array_equal(real_cg_table(l1, l2, l3), real_cg_table_per_entry(l1, l2, l3))


def test_real_cg_scalar_matches_table():
    t = real_cg_table(1, 2, 1)
    for m1 in range(-1, 2):
        for m2 in range(-2, 3):
            for m3 in range(-1, 2):
                assert real_cg(1, m1, 2, m2, 1, m3) == t[m1 + 1, m2 + 2, m3 + 1]


def test_real_cg_vector_coupling_structure():
    """(1,1) couplings split by symmetry: ->0 is the dot, ->1 the cross."""
    t0 = real_cg_table(1, 1, 0)[:, :, 0]
    assert np.allclose(t0, t0[0, 0] * np.eye(3), atol=TOL)
    assert abs(t0[0, 0]) > 0.1
    t1 = real_cg_table(1, 1, 1)
    assert np.allclose(t1 + t1.transpose(1, 0, 2), 0.0, atol=TOL)
    t2 = real_cg_table(1, 1, 2)
    assert np.allclose(t2, t2.transpose(1, 0, 2), atol=TOL)


def test_real_cg_table_orthogonality():
    # Clebsch-Gordan normalization: flattened columns are orthonormal
    for l1, l2, l3 in [(1, 1, 2), (2, 2, 2), (2, 1, 3), (3, 3, 0)]:
        t = real_cg_table(l1, l2, l3).reshape(-1, 2 * l3 + 1)
        gram = t.T @ t
        assert np.allclose(gram, np.eye(2 * l3 + 1), atol=1e-13)


def test_default_cache_capacity():
    assert default_cache.j_max == 12
