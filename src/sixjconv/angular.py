"""Exact Wigner 3j/6j symbols and Clebsch-Gordan coefficients, with caching.

Conventions (frozen for the whole library):

* Condon-Shortley phase throughout the complex basis.
* Clebsch-Gordan from 3j:
  C^{l3 m3}_{l1 m1, l2 m2} = (-1)^{l1-l2+m3} sqrt(2*l3+1) * 3j(l1,l2,l3; m1,m2,-m3).
* Real-basis coupling tables are obtained by conjugating the complex CG
  tensor with the real<->complex change-of-basis matrices per degree, times
  the parity phase i^(l1+l2-l3) that makes every allowed table purely real.
* Integer angular momenta only; any other entry raises ValueError.

The alternating Racah sums are accumulated in exact integer/rational
arithmetic (``fractions.Fraction``); square roots happen once, at the final
conversion to float. Naive float factorials lose all precision above j ~ 8.
Values are memoized under the key as asked. The 3j and 6j symmetries map
these exact rationals to +-1 times each other, so symmetric keys give the
same float up to that sign without a search for a shared key.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "CapacityError",
    "ConventionError",
    "TripleKey",
    "SixJKey",
    "CoefficientCache",
    "triangle_ok",
    "wigner3j",
    "clebsch_gordan",
    "real_cg_table",
    "wigner6j",
    "sixj_oracle",
    "default_cache",
]

DEFAULT_J_MAX = 12


class CapacityError(ValueError):
    """A requested degree exceeds the cache's configured J_max."""


class ConventionError(RuntimeError):
    """A basis or phase inconsistency was detected (library bug trap)."""


class TripleKey(NamedTuple):
    j1: int
    j2: int
    j3: int
    m1: int
    m2: int
    m3: int


class SixJKey(NamedTuple):
    j1: int
    j2: int
    j3: int
    j4: int
    j5: int
    j6: int


def triangle_ok(a: int, b: int, c: int) -> bool:
    """True iff (a, b, c) satisfies the triangle inequality |a-b| <= c <= a+b."""
    return abs(a - b) <= c <= a + b


# ---------------------------------------------------------------------------
# exact evaluation


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    if n < 0:
        raise ValueError("negative factorial")
    return math.factorial(n)


def _sqrt_fraction(q: Fraction) -> float:
    # Fraction -> float is correctly rounded even for huge integers.
    return math.sqrt(float(q))


def _delta_sq(a: int, b: int, c: int) -> Fraction:
    # Squared triangle coefficient Delta(a,b,c)^2, exact.
    return Fraction(
        _fact(a + b - c) * _fact(a - b + c) * _fact(-a + b + c),
        _fact(a + b + c + 1),
    )


def _wigner3j_exact(j1, j2, j3, m1, m2, m3) -> float:
    if m1 + m2 + m3 != 0:
        return 0.0
    if not triangle_ok(j1, j2, j3):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0

    # Racah's single-sum form. z ranges so every factorial argument is >= 0.
    z_min = max(0, j2 - j3 - m1, j1 - j3 + m2)
    z_max = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    if z_min > z_max:
        return 0.0
    total = Fraction(0)
    for z in range(z_min, z_max + 1):
        den = (
            _fact(z)
            * _fact(j1 + j2 - j3 - z)
            * _fact(j1 - m1 - z)
            * _fact(j2 + m2 - z)
            * _fact(j3 - j2 + m1 + z)
            * _fact(j3 - j1 - m2 + z)
        )
        total += Fraction(-1 if z % 2 else 1, den)
    if total == 0:
        return 0.0
    sqrt_arg = _delta_sq(j1, j2, j3) * Fraction(
        _fact(j1 + m1) * _fact(j1 - m1)
        * _fact(j2 + m2) * _fact(j2 - m2)
        * _fact(j3 + m3) * _fact(j3 - m3)
    )
    sign = -1.0 if (j1 - j2 - m3) % 2 else 1.0
    return sign * _sqrt_fraction(sqrt_arg) * float(total)


def _racah_w_exact(a, b, c, d, e, f) -> float:
    # Racah W(a,b,c,d;e,f) via the single-sum formula; exact rationals.
    for tri in ((a, b, e), (c, d, e), (a, c, f), (b, d, f)):
        if not triangle_ok(*tri):
            return 0.0
    k_min = max(a + b + e, c + d + e, a + c + f, b + d + f)
    k_max = min(a + b + c + d, a + d + e + f, b + c + e + f)
    if k_min > k_max:
        return 0.0
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        den = (
            _fact(k - a - b - e)
            * _fact(k - c - d - e)
            * _fact(k - a - c - f)
            * _fact(k - b - d - f)
            * _fact(a + b + c + d - k)
            * _fact(a + d + e + f - k)
            * _fact(b + c + e + f - k)
        )
        term = Fraction(_fact(k + 1), den)
        total += -term if k % 2 else term
    if total == 0:
        return 0.0
    sqrt_arg = (
        _delta_sq(a, b, e) * _delta_sq(c, d, e) * _delta_sq(a, c, f) * _delta_sq(b, d, f)
    )
    sign = -1.0 if (a + b + c + d) % 2 else 1.0
    return sign * _sqrt_fraction(sqrt_arg) * float(total)


def _wigner6j_exact(j1, j2, j3, j4, j5, j6) -> float:
    # {j1 j2 j3; j4 j5 j6} = (-1)^(j1+j2+j4+j5) W(j1, j2, j5, j4; j3, j6)
    w = _racah_w_exact(j1, j2, j5, j4, j3, j6)
    return -w if (j1 + j2 + j4 + j5) % 2 else w


def _int_entries(key) -> tuple:
    """The entries of ``key`` as Python ints; numpy integers are accepted."""
    try:
        return tuple(map(operator.index, key))
    except TypeError:
        raise ValueError(f"angular momenta must be integers, got {key!r}") from None


class CoefficientCache:
    """Memoized exact 3j and 6j values, keyed by the tuple as asked.

    Reads are plain dict lookups; insertions take an internal lock, so
    concurrent readers and writers are safe. Each value is computed at its
    first lookup; nothing is precomputed. A key with a non-integer entry
    raises ValueError before the cache is read.
    """

    def __init__(self, j_max: int = DEFAULT_J_MAX):
        self.j_max = int(j_max)
        self._w3j: dict = {}
        self._w6j: dict = {}
        self._lock = threading.Lock()

    def _check(self, *degrees):
        for j in degrees:
            if j < 0:
                raise ValueError(f"negative degree {j}")
            if j > self.j_max:
                raise CapacityError(f"degree {j} exceeds J_max={self.j_max}")

    def wigner3j(self, key) -> float:
        key = TripleKey(*_int_entries(key))
        self._check(key.j1, key.j2, key.j3)
        try:
            return self._w3j[key]
        except KeyError:
            val = _wigner3j_exact(*key)
            with self._lock:
                self._w3j[key] = val
            return val

    def wigner6j(self, key) -> float:
        key = SixJKey(*_int_entries(key))
        self._check(*key)
        try:
            return self._w6j[key]
        except KeyError:
            val = _wigner6j_exact(*key)
            with self._lock:
                self._w6j[key] = val
            return val


default_cache = CoefficientCache()


def wigner3j(key) -> float:
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3); exact zero off selection rules."""
    return default_cache.wigner3j(key)


def wigner6j(key) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} via the Racah single-sum formula."""
    return default_cache.wigner6j(key)


def clebsch_gordan(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Complex-basis (Condon-Shortley) Clebsch-Gordan coefficient C^{l3 m3}_{l1 m1, l2 m2}."""
    if m1 + m2 != m3:
        return 0.0
    val = wigner3j((l1, l2, l3, m1, m2, -m3))
    if val == 0.0:
        return 0.0
    sign = -1.0 if (l1 - l2 + m3) % 2 else 1.0
    return sign * math.sqrt(2 * l3 + 1) * val


# ---------------------------------------------------------------------------
# real basis

_IMAG_TOL = 1e-12


@lru_cache(maxsize=None)
def _real_basis_matrix(l: int) -> np.ndarray:
    """Unitary U with real_components = U @ complex_components.

    Rows are real m = -l..l, columns complex mu = -l..l; standard real
    harmonics (cos branch for m>0, sin branch for m<0) from Condon-Shortley
    complex ones.
    """
    dim = 2 * l + 1
    u = np.zeros((dim, dim), dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    u[l, l] = 1.0
    for m in range(1, l + 1):
        cs = -1.0 if m % 2 else 1.0
        u[l + m, l + m] = cs * s          # coefficient of mu = +m
        u[l + m, l - m] = s               # coefficient of mu = -m
        u[l - m, l - m] = 1j * s          # sin branch
        u[l - m, l + m] = -1j * cs * s
    return u


@lru_cache(maxsize=None, typed=True)
def real_cg_table(l1: int, l2: int, l3: int) -> np.ndarray:
    """Real-basis coupling table W[m1, m2, m3], shape (2l1+1, 2l2+1, 2l3+1).

    Contracting W with real-basis components couples degrees (l1, l2) into
    degree l3; every allowed parity path yields a purely real table thanks to
    the i^(l1+l2-l3) phase. A residual imaginary part above 1e-12 signals a
    basis bug and raises ConventionError. Non-integer degrees raise
    ValueError (the cache is typed, so 1.0 never reads the entry of 1).
    """
    l1, l2, l3 = _int_entries((l1, l2, l3))
    default_cache._check(l1, l2, l3)
    d1, d2, d3 = 2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1
    if not triangle_ok(l1, l2, l3):
        return np.zeros((d1, d2, d3))
    # Complex CG with m3 > 0, or m3 = 0 and m1 >= 0, evaluated; the rest
    # follows from C(-m) = (-1)^(l1+l2-l3) C(m). Zeros are left unwritten so
    # no entry becomes -0.0.
    phase = -1.0 if (l1 + l2 - l3) % 2 else 1.0
    cg = np.zeros((d1, d2, d3))
    for mu3 in range(l3 + 1):
        for mu1 in range(-l1 if mu3 else 0, l1 + 1):
            mu2 = mu3 - mu1
            if abs(mu2) > l2:
                continue
            c = clebsch_gordan(l1, mu1, l2, mu2, l3, mu3)
            if c:
                cg[l1 + mu1, l2 + mu2, l3 + mu3] = c
                cg[l1 - mu1, l2 - mu2, l3 - mu3] = phase * c
    u1 = _real_basis_matrix(l1)
    u2 = _real_basis_matrix(l2)
    u3 = _real_basis_matrix(l3)
    table = np.einsum("cw,uvw,au,bv->abc", u3, cg.astype(complex),
                      u1.conj(), u2.conj(), optimize=True)
    table *= 1j ** (l1 + l2 - l3)
    resid = float(np.abs(table.imag).max())
    if resid > _IMAG_TOL:
        raise ConventionError(
            f"real coupling table ({l1},{l2},{l3}) has imaginary residue {resid:.3e}"
        )
    out = np.ascontiguousarray(table.real)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# independent 6j oracle (verification only; runtime path is the Racah formula)


def sixj_oracle(key) -> float:
    """Brute-force four-3j contraction for {j1..j6}; the independent oracle.

    Sums products of four 3j symbols over all magnetic indices with the
    phase (-1)^(sum_k (j_k - m_k)). Slow by design; used to cross-check
    wigner6j, never in hot paths.
    """
    j1, j2, j3, j4, j5, j6 = SixJKey(*key)
    for tri in ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3)):
        if not triangle_ok(*tri):
            return 0.0
    total = 0.0
    jsum = j1 + j2 + j3 + j4 + j5 + j6
    for m1 in range(-j1, j1 + 1):
        for m2 in range(-j2, j2 + 1):
            m3 = -m1 - m2
            if abs(m3) > j3:
                continue
            f1 = wigner3j((j1, j2, j3, -m1, -m2, -m3))
            if f1 == 0.0:
                continue
            for m5 in range(-j5, j5 + 1):
                m6 = m5 - m1
                m4 = m5 - m1 - m2
                if abs(m6) > j6 or abs(m4) > j4:
                    continue
                f2 = wigner3j((j1, j5, j6, m1, -m5, m6))
                if f2 == 0.0:
                    continue
                f3 = wigner3j((j4, j2, j6, m4, m2, -m6))
                if f3 == 0.0:
                    continue
                f4 = wigner3j((j4, j5, j3, -m4, m5, m3))
                msum = m1 + m2 + m3 + m4 + m5 + m6
                sign = -1.0 if (jsum - msum) % 2 else 1.0
                total += sign * f1 * f2 * f3 * f4
    return total
