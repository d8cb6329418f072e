"""Exact integer matrix kernel: arbitrary-precision integers, no floating point.

Every elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): the
entries stay integer minors, so each division is exact.  One symmetric pass
serves LDL^T and Sylvester signatures; determinants and the Gauss-Jordan
inverse (integer numerators over one determinant, wrapped as a `RatMatrix`)
use the same update.  A determinant first splits the matrix into the blocks
of its nonzero pattern, so an orthogonal sum costs one Bareiss pass per
summand.  Both Smith forms are one routine, Cohen, GTM 138, Alg. 2.4.14
(Bezout steps), run in two domains: over Z with unimodular transforms, where
Smith data is the answer (saturated kernels); and modulo a known multiple
of the torsion where only the invariant factors are needed (discriminant
groups, primitivity), so no entry outgrows it.  Integral LLL builds on LDL^T.
Products skip the zeros of the left factor (each product row is a sum of rows
of the right factor) and build no transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "_entries", "_hash")

    def __init__(self, entries: Sequence[Sequence[int]], cols: int | None = None):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        width = len(data[0]) if data else (cols or 0)
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError(f"rows have {width} columns, not {cols}")
        self.rows = len(data)
        self.cols = width
        self._entries = data
        self._hash = None

    @classmethod
    def _trusted(cls, data: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """Wrap rows that are already equal-width tuples of ints, unchecked."""
        m = object.__new__(cls)
        m.rows, m.cols, m._entries, m._hash = len(data), cols, data, None
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._trusted(((0,) * cols,) * rows, cols)

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        if any(len(col) != nrows for col in columns):
            raise ValueError("column length mismatch")
        return cls._trusted(tuple(zip(*columns)), len(columns)) if columns else cls.zero(nrows, 0)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def tolists(self) -> list[list[int]]:
        return [list(row) for row in self._entries]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self._entries)) if self.rows else ((),) * self.cols, self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return IntMatrix._trusted(tuple(other.row_combination(row) for row in self._entries), other.cols)

    def row_combination(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        """coeffs^T M, summed over the rows k with coeffs[k] != 0 only."""
        acc = (0,) * self.cols
        for c, row in zip(coeffs, self._entries):
            if c:
                acc = [s + c * x for s, x in zip(acc, row)]
        return tuple(acc)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self._entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} + {other.rows}x{other.cols}")
        rows = zip(self._entries, other._entries)
        return IntMatrix._trusted(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in rows), self.cols)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(-a for a in row) for row in self._entries), self.cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self._entries == other._entries and self.cols == other.cols

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.cols, self._entries))
        return self._hash

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._entries]})"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self._entries[i][j] == self._entries[j][i] for i in range(self.rows) for j in range(i))

    def block_diag(self, other: "IntMatrix") -> "IntMatrix":
        left, right = (0,) * other.cols, (0,) * self.cols
        return IntMatrix._trusted(tuple(row + left for row in self._entries)
                                  + tuple(right + row for row in other._entries), self.cols + other.cols)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return IntMatrix._trusted(tuple(a + b for a, b in zip(self._entries, other._entries)),
                                  self.cols + other.cols)


class RatMatrix:
    """Exact rational matrix (reduced fractions); thin companion to IntMatrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Fraction | int]]):
        self.entries = [[Fraction(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def from_int(cls, m: IntMatrix) -> "RatMatrix":
        return cls(m.tolists())

    def apply(self, vec: Sequence[Fraction | int]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum((a * Fraction(b) for a, b in zip(row, vec)), Fraction(0)) for row in self.entries]

    def to_int(self) -> IntMatrix:
        for row in self.entries:
            for x in row:
                if x.denominator != 1:
                    raise ValueError(f"non-integral entry {x}")
        return IntMatrix([[int(x) for x in row] for row in self.entries])


@dataclass(frozen=True)
class SnfDecomposition:
    """u @ m @ v = d with u, v unimodular and d diagonal, d1 | d2 | ... ."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def invariant_factors(self) -> list[int]:
        """Nonzero diagonal entries of d, in chain order."""
        k = min(self.d.rows, self.d.cols)
        return [self.d[i, i] for i in range(k) if self.d[i, i] != 0]


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with recorded unimodular transforms.

    `_smith` over Z on the rows of [m | I], so each row step also builds u,
    with each column step repeated on the columns of v.
    """
    nrows, ncols = m.rows, m.cols
    a = [row + [int(i == k) for k in range(nrows)] for i, row in enumerate(m.tolists())]
    vt = IntMatrix.identity(ncols).tolists()  # the columns of v
    _smith(a, ncols, 0, vt)
    u = IntMatrix([row[ncols:] for row in a])
    d = IntMatrix([row[:ncols] for row in a], cols=ncols)
    return SnfDecomposition(u, d, IntMatrix.from_columns(vt, ncols))


def _smith_mod(m: IntMatrix, modulus: int, transform: bool = False) -> tuple[list[int], list[list[int]] | None]:
    """Smith invariants of m over Z/modulus: ([gcd(d_t, modulus)], V or None).

    d_1 | d_2 | ... are the invariant factors of m (0 past its rank), one for
    each t < min(rows, cols): `_smith` on m mod modulus, so no entry outgrows
    it.  Row steps are invertible mod modulus and are not kept; with
    `transform`, V is kept as its list of columns mod modulus, and
    U m V = diag(delta) mod modulus with gcd(delta_t, modulus) the returned
    values, for some U invertible mod modulus.
    """
    vt = IntMatrix.identity(m.cols).tolists() if transform else None
    return _smith([[x % modulus for x in row] for row in m._entries], m.cols, modulus, vt), vt


def _smith(a: list[list[int]], ncols: int, modulus: int, vt: list[list[int]] | None) -> list[int]:
    """Cohen, GTM 138, Alg. 2.4.14 on the rows a, in place; returns [gcd(d_t, modulus)].

    Over Z, modulus is 0: nothing is reduced, and gcd(x, 0) = |x| makes each
    test below read the same in both domains.  Otherwise entries live mod
    modulus.  Columns of a past ncols move with the row steps, and vt (the
    columns of V, or None) with the column steps.  The pivot is the first
    entry of least gcd(x, modulus) in the active block.  A unit pivot clears
    its column and row by subtraction alone.  Any other clears its column by
    2x2 Bezout row steps and its row by Bezout column steps, or by plain
    subtraction where it divides the entry; a Bezout column step can refill
    the column, so the pass repeats.  Then a trailing entry that
    g = gcd(pivot, modulus) does not divide is added into the pivot row.  It
    terminates: each Bezout step leaves a proper divisor of the pivot, and
    each repair lowers g, since the next pass must take one.  Over Z a
    negative pivot row is negated last.
    """
    nrows, k = len(a), min(len(a), ncols)
    diag: list[int] = []
    for t in range(k):
        best, where = 0, None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                if row[j]:
                    g = gcd(row[j], modulus)
                    if where is None or g < best:
                        best, where = g, (i, j)
                        if g == 1:  # nothing later is smaller
                            break
            if best == 1:
                break
        if where is None:  # the active block is zero
            diag += [modulus] * (k - t)
            break
        i, j = where
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
            if vt is not None:
                vt[t], vt[j] = vt[j], vt[t]
        p = a[t][t]
        if best == 1:
            inv = pow(p, -1, modulus) if modulus else p  # over Z, p = +-1
            for i in range(t + 1, nrows):
                if a[i][t]:
                    a[i] = _row_step(a[t], a[i], 1, 0, -a[i][t] * inv, 1, modulus)[1]
            if vt is not None:  # the column steps change only V and row t
                for j in range(t + 1, ncols):
                    if a[t][j]:
                        vt[j] = _row_step(vt[t], vt[j], 1, 0, -a[t][j] * inv, 1, modulus)[1]
            a[t][t + 1:ncols] = [0] * (ncols - t - 1)
        while best > 1:  # a Bezout pass, repeated until it leaves the pivot as it is
            for i in range(t + 1, nrows):
                if a[i][t]:
                    a[t], a[i] = _row_step(a[t], a[i], *_clearing_step(p, a[i][t]), modulus)
                    p = a[t][t]
            settled = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    s, c, e, f = _clearing_step(p, a[t][j])
                    for row in a[t:]:
                        y, z = row[t], row[j]
                        row[t], row[j] = s * y + c * z, e * y + f * z
                        if modulus:
                            row[t] %= modulus
                            row[j] %= modulus
                    if vt is not None:
                        vt[t], vt[j] = _row_step(vt[t], vt[j], s, c, e, f, modulus)
                    settled = settled and a[t][t] == p
                    p = a[t][t]
            if not settled:  # a Bezout column step refilled column t
                continue
            g = gcd(p, modulus)
            bad = None if g == 1 else next(
                (row for row in a[t + 1:] if any(x % g for x in row[t + 1:ncols])), None)
            if bad is None:
                break
            a[t] = _row_step(bad, a[t], 1, 0, 1, 1, modulus)[1]  # the pivot row plus the bad row
        if p < 0:
            a[t] = [-x for x in a[t]]
        diag.append(gcd(p, modulus))
    return diag


def _clearing_step(p: int, x: int) -> tuple[int, int, int, int]:
    """(s, c, e, f) with det [[s, c], [e, f]] = +-1 and s p + c x = gcd(p, x), e p + f x = 0.

    Plain subtraction when p divides x: `_xgcd(p, p)` is (p, 0, 1), a swap
    that would never settle.
    """
    if x % p == 0:
        return 1, 0, -(x // p), 1
    g, s, c = _xgcd(p, x)
    return s, c, x // g, -(p // g)


def _row_step(u: list[int], w: list[int], s: int, c: int, e: int, f: int,
              modulus: int) -> tuple[list[int], list[int]]:
    """(s u + c w, e u + f w), entrywise mod modulus unless it is 0 (over Z).

    A plain subtraction (c = 0, s = f = 1) returns u itself.
    """
    if modulus:
        first = [(s * y + c * z) % modulus for y, z in zip(u, w)] if c else u
        return first, [(e * y + f * z) % modulus for y, z in zip(u, w)]
    first = [s * y + c * z for y, z in zip(u, w)] if c else u
    return first, [e * y + f * z for y, z in zip(u, w)]


def det_exact(m: IntMatrix) -> int:
    """Exact determinant, by Bareiss fraction-free elimination on each block.

    Rows and columns that share a nonzero entry fall in one block.  Listing
    the rows and the columns block by block makes the matrix block diagonal,
    so det = sgn(row order) sgn(column order) prod det(block); a block with
    more rows than columns (a zero row, say) makes it 0.  A matrix that is
    one block runs Bareiss as it stands; 2 x 2 and 3 x 3 use cofactors.
    """
    if not m.is_square():
        raise ValueError("determinant of non-square matrix")
    rows = m._entries
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, k) = rows
        return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    blocks: list[list] = []  # [column mask, row indices]
    for i, row in enumerate(rows):
        mask = sum(1 << j for j, x in enumerate(row) if x)
        if not mask:
            return 0
        joined, rest = [mask, [i]], []
        for block in blocks:
            if block[0] & mask:
                joined = [joined[0] | block[0], block[1] + joined[1]]
            else:
                rest.append(block)
        if joined[0] == (1 << n) - 1:  # every later row joins this block: there is only one
            return _bareiss(m.tolists())
        blocks = rest + [joined]
    det, row_order, col_order = 1, [], []
    for mask, idx in sorted(blocks, key=lambda b: min(b[1])):
        cols = [j for j in range(n) if mask >> j & 1]
        if len(cols) != len(idx):
            return 0
        idx.sort()
        det *= _bareiss([[rows[i][j] for j in cols] for i in idx])
        row_order += idx
        col_order += cols
    return _perm_sign(row_order) * _perm_sign(col_order) * det


def _perm_sign(perm: list[int]) -> int:
    """Sign of the permutation i -> perm[i]: -1 for each element past the first of a cycle."""
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        j = perm[i]
        seen[i] = True
        while not seen[j]:
            seen[j] = True
            sign = -sign
            j = perm[j]
    return sign


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of the square matrix a (rows, overwritten) by Bareiss elimination."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _symmetric_bareiss(gram: IntMatrix) -> tuple[list[int], list[list[int]]]:
    """Symmetric Bareiss pass behind `ldlt` and `signature`: (minors, a).

    minors holds the leading minors D_0 = 1, ..., D_r of a congruent P^T G P,
    r the rank.  A zero pivot is traded for a later nonzero diagonal entry
    (symmetric swap) or, on a zero diagonal, made 2 a_ij by adding row and
    column j to i (hyperbolic repair).  Both touch only the remaining block,
    so entries stay minors of P^T G P and divisions exact; the lower triangle
    is mirrored for them.  For positive definite G, P = 1 and a[j][i] = M_ji.
    """
    n = gram.rows
    a = gram.tolists()
    minors = [1]
    for k in range(n):
        if a[k][k] == 0:
            p = next((i for i in range(k, n) if a[i][i]), None)
            if p is None:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
                if pair is None:
                    break  # the remaining block is zero
                p, j = pair
                a[p] = [x + y for x, y in zip(a[p], a[j])]
                for row in a:
                    row[p] += row[j]
            a[k], a[p] = a[p], a[k]
            for row in a:
                row[k], row[p] = row[p], row[k]
        pivot, prev = a[k][k], minors[k]
        minors.append(pivot)
        for i in range(k + 1, n):
            row, aik = a[i], a[i][k]
            for j in range(k + 1, i + 1):
                row[j] = a[j][i] = (pivot * row[j] - aik * a[j][k]) // prev
    return minors, a


def signature(gram: IntMatrix) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, zero) of a symmetric matrix.

    The signs of the pivot ratios D_{k+1} / D_k from `_symmetric_bareiss`
    count the positive and negative parts; the rank deficit is the zero part.
    """
    if not gram.is_symmetric():
        raise ValueError("signature requires a symmetric matrix")
    minors = _symmetric_bareiss(gram)[0]
    pos = sum((a > 0) == (b > 0) for a, b in zip(minors, minors[1:]))
    neg = len(minors) - 1 - pos
    return pos, neg, gram.rows - pos - neg


def rational_kernel(m: IntMatrix) -> list[tuple[int, ...]]:
    """Primitive integer basis of ker(m), saturated in Z^cols.

    With u m v = d, the kernel is spanned by the columns of v whose diagonal
    entry vanishes; v unimodular makes each such column primitive and the
    span saturated.
    """
    snf = smith_normal_form(m)
    k = min(snf.d.rows, snf.d.cols)
    out = []
    for j in range(m.cols):
        if j >= k or snf.d[j, j] == 0:
            out.append(snf.v.column(j))
    return out


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with det +-1: the integer case of `rational_inverse`."""
    return rational_inverse(m).to_int()


def rational_inverse(m: IntMatrix) -> RatMatrix:
    """Exact rational inverse of a nonsingular integer matrix.

    Fraction-free Gauss-Jordan on [m | I]: the Bareiss update, applied to the
    rows above the pivot as well, keeps every entry an integer and divides
    exactly, and it ends with D * I on the left, D = +-det m the last pivot.
    The right half then holds the integer numerators of m^{-1} over D.
    """
    if not m.is_square():
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.tolists())]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            raise ValueError("matrix is singular")
        a[k], a[p] = a[p], a[k]
        pivot_row, pivot = a[k], a[k][k]
        for i in range(n):
            if i != k:
                aik = a[i][k]
                a[i] = [(pivot * x - aik * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    return RatMatrix([[Fraction(x, prev) for x in row[n:]] for row in a])


def content(vec: Iterable[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def bezout_combination(vec: Sequence[int]) -> tuple[int, list[int]]:
    """(g, coeffs) with sum(coeffs[i] * vec[i]) = g = content(vec).

    The coefficients start as +-e_0 and take one extended-gcd step against
    each later nonzero entry; the zero vector gets zero coefficients.
    """
    coeffs = [0] * len(vec)
    g = abs(vec[0]) if vec else 0
    if g:
        coeffs[0] = 1 if vec[0] > 0 else -1
    for j in range(1, len(vec)):
        if vec[j]:
            g, s, t = _xgcd(g, vec[j])
            coeffs = [s * x for x in coeffs]
            coeffs[j] = t
    return g, coeffs


def ldlt(gram: IntMatrix) -> tuple[list[int], list[list[int]]]:
    """Fraction-free LDL^T of a positive definite symmetric matrix (symmetric Bareiss).

    Returns (minors, numer): minors[k] is the leading principal minor D_k
    (D_0 = 1) and numer[j][i], for i <= j, is the integer M_ji with
    L_ji = M_ji / D_{i+1} and d_i = D_{i+1} / D_i, so numer[i][i] = D_{i+1} and
    G_jl = sum_i M_ji M_li / (D_i D_{i+1}).  Every division is exact.  The
    pass is `_symmetric_bareiss`, and Sylvester's criterion on its minors is
    the definiteness test: it raises unless every D_k is positive.
    """
    minors, a = _symmetric_bareiss(gram)
    if len(minors) <= gram.rows or any(d <= 0 for d in minors):
        raise ValueError("matrix is not positive definite")
    return minors, [row[: i + 1] for i, row in enumerate(a)]


def lll_reduce_gram(gram: IntMatrix) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Integral LLL reduction (delta = 3/4) of a positive definite Gram matrix.

    Cohen, GTM 138, Alg. 2.6.7 in Gram form.  It keeps d_k, the Gram
    determinant of the first k basis vectors, and lambda_kl = d_l mu_kl, all
    integers; `ldlt` supplies both for the input basis (lambda_kl is its
    numerator M_kl) and raises if the matrix is not positive definite.  Every
    update divides exactly.  Returns (d, lam, basis), basis[k] the coordinates
    of reduced vector k: for the unimodular U with these columns,
    (d, lam) == ldlt(U^T gram U), |2 lambda_kl| <= d_l for l < k and
    4 d_k d_{k-2} >= 3 d_{k-1}^2 - 4 lambda_{k,k-1}^2.
    """
    n = gram.rows
    d, lam = ldlt(gram)  # d[k] is d_k; basis vector k (0-based) pairs with d[k + 1]
    basis = IntMatrix.identity(n).tolists()  # basis[k]: coordinates of b_k

    def reduce(k: int, l: int) -> None:
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)  # nearest integer to lambda_kl / d_l
        basis[k] = [x - q * y for x, y in zip(basis[k], basis[l])]
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int) -> None:
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]  # unchanged by the swap
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
        d[k] = lam[k - 1][k - 1] = b  # keeps lam[i][i] == d[i + 1], as in `ldlt`

    k = 1
    while k < n:
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return d, lam, basis
