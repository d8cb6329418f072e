"""Plain integer and rational arithmetic for the benchmark's output checks.

Nothing here imports k3lattices: every check recomputes its answer from the
raw integers, so a wrong library result cannot also corrupt its own check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt

# Two Mersenne primes: a determinant that vanishes modulo both is treated as 0.
PRIMES = (2**61 - 1, 2**31 - 1)


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def form(g, x, y):
    """x^T g y."""
    return sum(xi * gy for xi, gy in zip(x, mat_vec(g, y)))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det_mod(m, p):
    """Determinant of an integer matrix modulo the prime p."""
    a = [[x % p for x in row] for row in m]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                rr, rc = a[r], a[c]
                for k in range(c, n):
                    rr[k] = (rr[k] - f * rc[k]) % p
    return det % p


def det_is_unit(m):
    """det m = +-1, checked modulo each prime in PRIMES."""
    return all(det_mod(m, p) in (1, p - 1) for p in PRIMES)


def det_nonzero(m):
    return any(det_mod(m, p) != 0 for p in PRIMES)


def det(m):
    """Exact determinant by rational elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(out)


def inverse(m):
    """Exact rational inverse (Gauss-Jordan over Fractions)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def is_positive_definite(g):
    """All leading principal minors positive (Sylvester)."""
    return all(det([row[:k] for row in g[:k]]) > 0 for k in range(1, len(g) + 1))


def ellipsoid_bounds(m, radius):
    """Per-coordinate bounds of {x : x^T m x <= radius} for positive definite m:
    |x_i| <= sqrt(radius * (m^-1)_ii) by Cauchy-Schwarz."""
    inv = inverse(m)
    out = []
    for i in range(len(m)):
        r2 = radius * inv[i][i]
        b = isqrt(r2.numerator // r2.denominator)
        while Fraction((b + 1) ** 2) <= r2:
            b += 1
        out.append(b)
    return out


def box_vectors_of_norm(g, norm):
    """All x with x^T g x = norm in a positive definite g, by a plain box scan."""
    bounds = ellipsoid_bounds(g, norm)
    hits = []
    for x in product(*[range(-b, b + 1) for b in bounds]):
        if form(g, x, x) == norm:
            hits.append(x)
    return hits


def orthogonal_minus_two(g, h, first_only=False):
    """Vectors w with w^2 = -2 and w.h = 0 in a hyperbolic lattice, for h^2 > 0.

    The majorant M = 2 (g h)(g h)^T / h^2 - g is positive definite and equals
    -w^2 = 2 on such w, so they lie in the box of {M <= 2}.  One coordinate is
    solved from w.h = 0 instead of scanned.
    """
    n = len(g)
    hh = form(g, h, h)
    if hh <= 0:
        raise ValueError("majorant needs h^2 > 0")
    u = mat_vec(g, h)
    maj = [[Fraction(2 * u[i] * u[j], hh) - g[i][j] for j in range(n)] for i in range(n)]
    bounds = ellipsoid_bounds(maj, 2)
    k = max(range(n), key=lambda i: abs(u[i]))
    rest = [i for i in range(n) if i != k]
    hits = []
    for partial in product(*[range(-bounds[i], bounds[i] + 1) for i in rest]):
        s = sum(u[i] * x for i, x in zip(rest, partial))
        if s % u[k]:
            continue
        w = [0] * n
        for i, x in zip(rest, partial):
            w[i] = x
        w[k] = -s // u[k]
        if form(g, w, w) == -2:
            hits.append(tuple(w))
            if first_only:
                break
    return hits
