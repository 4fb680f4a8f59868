"""Real solid spherical harmonics and real Wigner D matrices.

Conventions (frozen):

* Component ordering inside a degree block is m = -l..l ascending.
* The l=1 raw block is the permutation (y, z, x) of the coordinates; this is
  the unique assignment under which the classical l=2 raw list comes out as
  (xy, yz, 3z^2-r^2, xz, x^2-y^2) in m = -2..2 order.
* "raw" presentation: primitive integer-coefficient homogeneous polynomials,
  sign fixed positive on the leading-z monomial (block 0 is the constant 1).
* "normalized" presentation: each component scaled so its restriction to the
  unit sphere is the orthonormal real spherical harmonic Y^(l)_m. All
  coupling tables and D matrices in this library act on normalized blocks;
  raw is a per-(l, m) diagonal rescaling kept for presentation and goldens.

Every block is a polynomial in (x, y, z), so r = 0 is a valid input (blocks
with l >= 1 vanish there). Coefficients are built once per (l, m) in exact
rational arithmetic from Legendre derivatives and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .angular import DEFAULT_J_MAX, real_cg_table

__all__ = [
    "SolidHarmonicsTable",
    "Rotation",
    "WignerD",
    "solid_sh",
    "wigner_d",
    "presentation_scale",
]


# ---------------------------------------------------------------------------
# exact polynomial tables


@lru_cache(maxsize=None)
def _legendre_coeffs(l: int) -> tuple:
    # Coefficients of P_l(t), index = power of t, exact rationals.
    if l == 0:
        return (Fraction(1),)
    if l == 1:
        return (Fraction(0), Fraction(1))
    pm2 = _legendre_coeffs(l - 2)
    pm1 = _legendre_coeffs(l - 1)
    out = [Fraction(0)] * (l + 1)
    for q, c in enumerate(pm1):
        out[q + 1] += Fraction(2 * l - 1, l) * c
    for q, c in enumerate(pm2):
        out[q] -= Fraction(l - 1, l) * c
    return tuple(out)


def _legendre_derivative(l: int, m: int) -> dict:
    # d^m P_l / dt^m as {power: Fraction}.
    coeffs = _legendre_coeffs(l)
    out = {}
    for q in range(m, l + 1):
        c = coeffs[q]
        if c:
            fac = 1
            for t in range(q, q - m, -1):
                fac *= t
            out[q - m] = c * fac
    return out


def _cos_sin_poly(m: int, want_sin: bool) -> dict:
    # A_m = Re[(x+iy)^m] or B_m = Im[(x+iy)^m] as {(i, j): int}.
    out = {}
    for t in range(m + 1):
        # i^t cycles 1, i, -1, -i
        if want_sin != (t % 2 == 1):
            continue
        sign = -1 if t % 4 in (2, 3) else 1
        out[(m - t, t)] = sign * math.comb(m, t)
    return out


@lru_cache(maxsize=None)
def _monomials(l: int, m: int):
    """Raw monomials for component (l, m) plus the raw->normalized scale.

    Returns (exponents array (n,3) int, integer coefficients (n,) float,
    scale float) with normalized = scale * raw.
    """
    am = abs(m)
    zpart = _legendre_derivative(l, am)
    angular = _cos_sin_poly(am, want_sin=(m < 0)) if am else {(0, 0): 1}
    terms: dict = {}
    for q, aq in zpart.items():
        k = (l - am - q) // 2  # power of r^2; parity guarantees integrality
        for p1 in range(k + 1):
            for p2 in range(k - p1 + 1):
                p3 = k - p1 - p2
                mult = Fraction(math.factorial(k), math.factorial(p1) * math.factorial(p2) * math.factorial(p3))
                for (i, j), c in angular.items():
                    key = (i + 2 * p1, j + 2 * p2, q + 2 * p3)
                    terms[key] = terms.get(key, Fraction(0)) + aq * mult * c
    terms = {k: v for k, v in terms.items() if v != 0}
    # primitive integer content; construction keeps the leading-z sign positive
    content = Fraction(math.gcd(*(v.numerator for v in terms.values())),
                       math.lcm(*(v.denominator for v in terms.values())))
    exps = np.array(sorted(terms), dtype=np.int64)
    coeffs = np.array([float(terms[tuple(e)] / content) for e in exps])
    # orthonormality constant of the real spherical harmonic
    k_lm = math.sqrt((2 * l + 1) / (4 * math.pi)
                     * math.factorial(l - am) / math.factorial(l + am))
    if am:
        k_lm *= math.sqrt(2.0)
    scale = k_lm * float(content)
    return exps, coeffs, scale


@lru_cache(maxsize=None)
def presentation_scale(l: int) -> np.ndarray:
    """Diagonal map raw -> normalized for degree l (normalized = scale * raw)."""
    out = np.array([_monomials(l, m)[2] for m in range(-l, l + 1)])
    out.setflags(write=False)
    return out


def _eval_blocks(l_max: int, pts: np.ndarray, normalized: bool) -> list:
    # pts (N, 3) -> [block (N, 2l+1) for l in 0..l_max]
    n = pts.shape[0]
    deg = l_max
    pows = np.ones((3, deg + 1, n))
    for i in range(3):
        for p in range(1, deg + 1):
            pows[i, p] = pows[i, p - 1] * pts[:, i]
    blocks = []
    for l in range(l_max + 1):
        block = np.empty((n, 2 * l + 1))
        for m in range(-l, l + 1):
            exps, coeffs, scale = _monomials(l, m)
            vals = (pows[0, exps[:, 0]] * pows[1, exps[:, 1]] * pows[2, exps[:, 2]])
            comp = coeffs @ vals
            if normalized:
                comp = comp * scale
            block[:, m + l] = comp
        blocks.append(block)
    return blocks


@dataclass(frozen=True)
class SolidHarmonicsTable:
    """Solid-harmonic blocks for one point or a batch of points.

    ``blocks[l]`` has shape (N, 2l+1) (or (2l+1,) via :meth:`block` when the
    table was built from a single vector), m = -l..l ascending.
    """

    l_max: int
    mode: str  # "raw" or "normalized"
    blocks: tuple
    single: bool

    def block(self, l: int) -> np.ndarray:
        arr = self.blocks[l]
        return arr[0] if self.single else arr


def solid_sh(l_max: int, r, mode: str = "raw") -> SolidHarmonicsTable:
    """Evaluate solid harmonics for degrees 0..l_max at r ((3,) or (N, 3)).

    Raw mode returns the primitive polynomial values (degree-2 block is
    (xy, yz, 3z^2-r^2, xz, x^2-y^2)); normalized mode returns r^l times the
    orthonormal real spherical harmonic.
    """
    if mode not in ("raw", "normalized"):
        raise ValueError(f"unknown mode {mode!r}")
    if l_max > DEFAULT_J_MAX:
        raise ValueError(f"l_max {l_max} exceeds supported degree {DEFAULT_J_MAX}")
    pts = np.asarray(r, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("r must be a 3-vector or an (N, 3) array")
    blocks = tuple(_eval_blocks(l_max, pts, normalized=(mode == "normalized")))
    return SolidHarmonicsTable(l_max=l_max, mode=mode, blocks=blocks, single=single)


# ---------------------------------------------------------------------------
# rotations


_ORTHO_TOL = 1e-12
_YZX = [1, 2, 0]  # coordinates in the component order of the degree-1 block


@dataclass(frozen=True)
class Rotation:
    """A proper rotation; wraps a validated 3x3 orthogonal matrix, det +1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("rotation matrix must be 3x3")
        if np.abs(m.T @ m - np.eye(3)).max() > _ORTHO_TOL:
            raise ValueError("matrix is not orthogonal within 1e-12")
        if abs(np.linalg.det(m) - 1.0) > _ORTHO_TOL:
            raise ValueError("matrix determinant is not +1 within 1e-12")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))

    @staticmethod
    def random(rng) -> "Rotation":
        """Haar-ish random rotation from a QR decomposition of a Gaussian."""
        rng = np.random.default_rng(rng)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, [0, 1]] = q[:, [1, 0]]
        return Rotation(q)

    def apply(self, vectors) -> np.ndarray:
        return np.asarray(vectors, dtype=float) @ self.matrix.T

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(self.matrix @ other.matrix)

    def inverse(self) -> "Rotation":
        return Rotation(self.matrix.T)


@dataclass(frozen=True)
class WignerD:
    """Real representation matrix of one rotation at degree l.

    Acts on normalized-basis blocks: solid_sh(l, R r) = D @ solid_sh(l, r).
    Orthogonal, and a homomorphism in R, to rounding.
    """

    l: int
    matrix: np.ndarray


def wigner_d(l: int, rot: Rotation) -> WignerD:
    """Real Wigner D matrix for degree l in the normalized basis, exact.

    D^1 is the rotation matrix in the (y, z, x) order of the degree-1 block.
    Higher degrees follow from D^l = W^T (D^(l-1) x D^1) W, W the real
    coupling table (l-1, 1 -> l) as a ((2l-1) 3, 2l+1) isometry, which
    intertwines the product representation with degree l.
    """
    d1 = rot.matrix[np.ix_(_YZX, _YZX)]
    d = np.ones((1, 1))
    for k in range(1, l + 1):
        w = real_cg_table(k - 1, 1, k).reshape(3 * (2 * k - 1), 2 * k + 1)
        d = w.T @ np.kron(d, d1) @ w
    d.setflags(write=False)
    return WignerD(l=l, matrix=d)
