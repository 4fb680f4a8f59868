"""Solid harmonics: polynomial goldens, normalization, rotations, Wigner D."""

import math

import numpy as np
import pytest

from sixjconv.angular import DEFAULT_J_MAX
from sixjconv.harmonics import (
    Rotation,
    SolidHarmonicsTable,
    presentation_scale,
    solid_sh,
    wigner_d,
)


def _rng(key):
    return np.random.default_rng(np.random.Philox(key=key))


# -- raw-mode polynomial goldens (hand evaluation of the primitive forms) --
# degree 1 is the coordinate permutation (y, z, x); degree 2 in m order is
# (xy, yz, 2z^2 - x^2 - y^2, xz, x^2 - y^2).


def test_raw_degree0_is_one():
    for pt in [(1.0, 0, 0), (1, 2, 3), (0.3, -0.7, 0.01)]:
        assert solid_sh(0, pt).block(0) == pytest.approx([1.0])


def test_raw_degree1_is_coordinate_permutation():
    assert solid_sh(1, (1.0, 2.0, 3.0)).block(1) == pytest.approx([2, 3, 1])
    assert solid_sh(1, (1.0, 0, 0)).block(1) == pytest.approx([0, 0, 1])
    assert solid_sh(1, (0, 1.0, 0)).block(1) == pytest.approx([1, 0, 0])
    assert solid_sh(1, (0, 0, 1.0)).block(1) == pytest.approx([0, 1, 0])


def test_raw_degree2_hand_values():
    assert solid_sh(2, (1.0, 2.0, 3.0)).block(2) == pytest.approx([2, 6, 13, 3, -3])
    # at (2,2,1): xy=4, yz=2, 2z^2-x^2-y^2=-6, xz=2, x^2-y^2=0
    assert solid_sh(2, (2.0, 2.0, 1.0)).block(2) == pytest.approx([4, 2, -6, 2, 0])
    assert solid_sh(2, (0, 0, 1.0)).block(2) == pytest.approx([0, 0, 2, 0, 0])


def test_raw_degree3_along_z():
    # every m != 0 component carries an x or y factor; m=0 is 2z^3-3x^2z-3y^2z
    got = solid_sh(3, (0, 0, 1.0)).block(3)
    assert got == pytest.approx([0, 0, 0, 2, 0, 0, 0])


def test_homogeneity_raw():
    rng = _rng(7)
    r = rng.standard_normal(3)
    for s in (0.5, 2.0, 3.7):
        a = solid_sh(6, r)
        b = solid_sh(6, s * r)
        for l in range(7):
            assert b.block(l) == pytest.approx(s ** l * a.block(l), rel=1e-12)


def test_normalized_is_scaled_raw():
    rng = _rng(8)
    pts = rng.standard_normal((5, 3))
    raw = solid_sh(4, pts, mode="raw")
    unit = solid_sh(4, pts, mode="normalized")
    for l in range(5):
        want = raw.blocks[l] * presentation_scale(l)
        assert unit.blocks[l] == pytest.approx(want, rel=1e-13)


def test_presentation_scale_degree1():
    want = math.sqrt(3.0 / (4.0 * math.pi))
    assert presentation_scale(1) == pytest.approx([want] * 3, rel=1e-14)
    assert presentation_scale(0) == pytest.approx([1.0 / math.sqrt(4 * math.pi)])


def test_normalized_mode_is_orthonormal_on_sphere():
    """Exact quadrature Gram: unit L2 norm against the surface measure.

    Gauss-Legendre in z times a uniform phi grid integrates spherical
    polynomials up to the product band limit exactly, so the tolerance
    here is roundoff, not quadrature error.
    """
    lmax = 3
    nz, nphi = 10, 16
    z, wz = np.polynomial.legendre.leggauss(nz)
    phi = 2 * np.pi * np.arange(nphi) / nphi
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    rho = np.sqrt(1 - zz ** 2)
    pts = np.stack([rho * np.cos(pp), rho * np.sin(pp), zz], axis=-1).reshape(-1, 3)
    w = np.broadcast_to(wz[:, None] * (2 * np.pi / nphi), zz.shape).reshape(-1)
    tab = solid_sh(lmax, pts, mode="normalized")
    y = np.concatenate([tab.blocks[l] for l in range(lmax + 1)], axis=1)
    gram = (y * w[:, None]).T @ y
    assert np.allclose(gram, np.eye(y.shape[1]), atol=1e-12)


def test_additivity_fixes_edge_vector_convention():
    rng = _rng(9)
    for _ in range(10):
        ri, rj = rng.standard_normal(3), rng.standard_normal(3)
        lhs = solid_sh(1, ri - rj).block(1)
        rhs = solid_sh(1, ri).block(1) - solid_sh(1, rj).block(1)
        assert np.abs(lhs - rhs).max() < 1e-13
    # the analogous identity is false at degree 2
    ri, rj = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0])
    lhs = solid_sh(2, ri - rj).block(2)
    rhs = solid_sh(2, ri).block(2) - solid_sh(2, rj).block(2)
    assert np.abs(lhs - rhs).max() > 0.1


def test_table_single_vs_batch():
    rng = _rng(10)
    pts = rng.standard_normal((4, 3))
    batch = solid_sh(3, pts)
    assert isinstance(batch, SolidHarmonicsTable)
    assert not batch.single
    for i in range(4):
        one = solid_sh(3, pts[i])
        assert one.single
        for l in range(4):
            assert one.block(l) == pytest.approx(batch.blocks[l][i])
            assert one.block(l).shape == (2 * l + 1,)


def test_solid_sh_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        solid_sh(1, (1.0, 0, 0), mode="bogus")


# -- rotations ---------------------------------------------------------------


def test_random_rotation_is_special_orthogonal():
    rng = _rng(11)
    for _ in range(5):
        rot = Rotation.random(rng)
        m = rot.matrix
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-13)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-13)


def test_rotation_apply_compose_inverse():
    rng = _rng(12)
    a, b = Rotation.random(rng), Rotation.random(rng)
    v = rng.standard_normal((6, 3))
    assert np.linalg.norm(a.apply(v), axis=1) == pytest.approx(
        np.linalg.norm(v, axis=1))
    c = a.compose(b)
    assert c.apply(v) == pytest.approx(a.apply(b.apply(v)))
    assert a.inverse().apply(a.apply(v)) == pytest.approx(v)


def test_rotation_rejects_non_orthogonal_matrix():
    with pytest.raises(ValueError):
        Rotation(matrix=np.diag([1.0, 2.0, 1.0]))


def test_wigner_d_identity():
    for l in range(DEFAULT_J_MAX + 1):
        d = wigner_d(l, Rotation.identity())
        assert d.matrix == pytest.approx(np.eye(2 * l + 1), abs=1e-12)


def test_wigner_d_is_orthogonal_and_equivariant():
    rng = _rng(13)
    pts = rng.standard_normal((7, 3))
    # on the unit sphere every degree has values of order 1, so an absolute
    # 1e-13 is the relative 1e-13 that 1e-11 was for degree 4 at |r| ~ 1.7
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for _ in range(3):
        rot = Rotation.random(rng)
        rotated = solid_sh(DEFAULT_J_MAX, rot.apply(pts), mode="normalized")
        plain = solid_sh(DEFAULT_J_MAX, pts, mode="normalized")
        for l in range(DEFAULT_J_MAX + 1):
            d = wigner_d(l, rot).matrix
            assert np.allclose(d.T @ d, np.eye(2 * l + 1), atol=1e-12)
            assert rotated.blocks[l] == pytest.approx(
                plain.blocks[l] @ d.T, abs=1e-13)


def test_wigner_d_is_a_homomorphism():
    rng = _rng(14)
    a, b = Rotation.random(rng), Rotation.random(rng)
    c = a.compose(b)
    for l in range(1, DEFAULT_J_MAX + 1):
        da, db = wigner_d(l, a).matrix, wigner_d(l, b).matrix
        dc = wigner_d(l, c).matrix
        assert dc == pytest.approx(da @ db, abs=1e-10)
