"""Integral Clifford algebra of a lattice, with the trace pairing machinery.

Elements are finitely supported integer combinations of basis monomials
e_S = e_{i1}...e_{ik} (i1 < ... < ik), encoded by bitmask S.  Products follow
e_i e_j + e_j e_i = 2 b(e_i, e_j) and e_i^2 = b(e_i, e_i), so the algebra is
integral for every integer Gram matrix, and e_S e_j has a closed form, the
swap rule of `CliffordAlgebra.gen`: one private table per host, freed with it.
Traces on the 2^n-dimensional left-regular module are Tr(L_{e_S}) =
2^n Pf(B_S), B_S the Gram of the e_i, i in S (Wick's rule), so they need no
matrix; the trace form is gathered by whole rows, phi-Grams sum its nonzero
entries, and the projector to L reads e_j e_r in closed form.  The
polarization search certifies det phi_a != 0 from det G and a scalar a^2 and
builds no matrix, so it runs at any rank.  Only 2^n x 2^n matrices are capped,
at MATRIX_RANK_CAP: left-regular matrices, the trace form and phi-Grams.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
from math import gcd
from operator import add, itemgetter, mul, neg
from typing import Sequence

from .lattices import Lattice
from .linalg import IntMatrix, unimodular_inverse

MATRIX_RANK_CAP = 10


def _mask_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class CliffordAlgebra:
    """Product and trace tables of C(L) for one Gram matrix, keyed by int.
    It holds no reference to its host, so `_algebras` drops it with the host."""

    def __init__(self, gram: IntMatrix):
        self.n = gram.rows
        self.g = [gram.row(i) for i in range(self.n)]
        self._gen: dict[int, dict[int, int]] = {}  # mask * n + j -> e_mask e_j
        self._tau: dict[int, int] = {0: 1}         # mask -> Pf(B_mask)
        self._trace_form: list[list[int]] | None = None

    def table_sizes(self) -> dict[str, int]:
        return {"generator_products": len(self._gen), "pfaffians": len(self._tau),
                "trace_form_rows": len(self._trace_form or ())}

    def gen(self, mask: int, j: int) -> dict[int, int]:
        """e_mask * e_j by the swap rule: e_j moves left past each h > j of
        mask, top first, and each swap e_h e_j = 2 b(h, j) - e_j e_h leaves
        2 b(h, j) e_{mask-h} and flips the sign; the last term is e_{mask+j},
        or b(j, j) e_{mask-j} if j is in mask.  No coefficient is 0."""
        key = mask * self.n + j
        out = self._gen.get(key)
        if out is None:
            terms, sign, row = [], 1, self.g[j]
            for h in range(mask.bit_length() - 1, j, -1):
                if mask >> h & 1:
                    terms.append((mask ^ 1 << h, 2 * sign * row[h]))
                    sign = -sign
            terms.append((mask ^ 1 << j, sign * row[j] if mask >> j & 1 else sign))
            out = self._gen[key] = {m: c for m, c in terms if c}
        return out

    def times(self, x: dict[int, int], js: Sequence[int]) -> dict[int, int]:
        """x * e_{j1} * e_{j2} * ... for js = (j1, j2, ...)."""
        for j in js:
            out: dict[int, int] = {}
            for m, c in x.items():
                for m2, c2 in self.gen(m, j).items():
                    out[m2] = out.get(m2, 0) + c * c2
            x = out
        return x

    def mul(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for mb, cb in y.items():
            for m, c in self.times(x, _mask_indices(mb)).items():
                out[m] = out.get(m, 0) + cb * c
        return out

    def tau(self, mask: int) -> int:
        """Pf(B_mask), expanded along the lowest index: Tr(L_{e_mask}) / 2^n."""
        if mask not in self._tau:
            low, *rest = _mask_indices(mask)
            self._tau[mask] = 0 if len(rest) % 2 == 0 else sum(
                (-1) ** k * self.g[low][j] * self.tau(mask ^ 1 << low ^ 1 << j)
                for k, j in enumerate(rest) if self.g[low][j])
        return self._tau[mask]

    def trace_form(self) -> list[list[int]]:
        """B'[I][K] = Tr(reversal(e_I) e_K), built by rows: with i the top
        index of I, reversal(e_I) = e_i reversal(e_{I-i}), so cyclicity gives
        B'[I][K] = sum of c B'[I-i][m] over the terms c e_m of e_K e_i.  By
        `gen`, slot h >= i of those terms has m = K xor h, and c = 0 unless
        h = i or h is in K, so row I sums gathers c * row_{I-i}[m] over slots
        tabled once; it is 0 where deg I + deg K is odd with no test, as is
        row I-i at m (odd elements are traceless).  The reversal keeps traces,
        so B'[I][K] = B'[K][I]: row I gathers K >= I and copies K < I.
        Capped at MATRIX_RANK_CAP, and so is every phi-Gram, which reads it."""
        if self._trace_form is None:
            if self.n > MATRIX_RANK_CAP:
                raise ValueError(f"rank {self.n} exceeds the matrix cap {MATRIX_RANK_CAP}")
            n, dim, g = self.n, 1 << self.n, self.g
            flip = [itemgetter(*[k ^ 1 << h for k in range(dim)]) for h in range(n)]  # dim >= 2: tuples
            sign = [[-1 if bin(k >> h + 1).count("1") % 2 else 1 for k in range(dim)] for h in range(n)]
            slots = [[(flip[i], [s * g[i][i] if k >> i & 1 else s for k, s in enumerate(sign[i])])]
                     + [(flip[h], [2 * g[i][h] * s if k >> h & 1 else 0 for k, s in enumerate(sign[h])])
                        for h in range(i + 1, n) if g[i][h]]
                     for i in range(n)]
            self._trace_form = rows = [[dim * self.tau(k) for k in range(dim)]]
            for mask in range(1, dim):
                i = mask.bit_length() - 1
                prev = rows[mask ^ 1 << i]
                (get, coefs), *rest = slots[i]
                row = map(mul, coefs[mask:], get(prev)[mask:])
                for get, coefs in rest:
                    row = map(add, row, map(mul, coefs[mask:], get(prev)[mask:]))
                rows.append([row_k[mask] for row_k in rows] + list(row))  # one int object per pair
        return self._trace_form


_algebras: weakref.WeakKeyDictionary[Lattice, CliffordAlgebra] = weakref.WeakKeyDictionary()


def _algebra(host: Lattice) -> CliffordAlgebra:
    alg = _algebras.get(host)
    if alg is None:
        alg = _algebras[host] = CliffordAlgebra(host.gram)
    return alg


class CliffordElement:
    """Integer element of C(L), as a mask -> coefficient map."""

    __slots__ = ("host", "coeffs")

    def __init__(self, host: Lattice, coeffs: dict[int, int]):
        self.host = host
        self.coeffs = {m: int(c) for m, c in coeffs.items() if c != 0}
        top = 1 << host.rank
        if any(not 0 <= m < top for m in self.coeffs):
            raise ValueError("monomial mask out of range for the host rank")

    @classmethod
    def scalar(cls, host: Lattice, c: int) -> "CliffordElement":
        return cls(host, {0: c})

    @classmethod
    def generator(cls, host: Lattice, i: int) -> "CliffordElement":
        return cls(host, {1 << i: 1})

    @classmethod
    def from_vector(cls, host: Lattice, coords: Sequence[int]) -> "CliffordElement":
        if len(coords) != host.rank:
            raise ValueError("coordinate length mismatch")
        return cls(host, {1 << i: c for i, c in enumerate(coords)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree_one_coords(self) -> tuple[int, ...] | None:
        """Coordinates if supported on degree-1 monomials, else None."""
        out = [0] * self.host.rank
        for m, c in self.coeffs.items():
            if bin(m).count("1") != 1:
                return None
            out[m.bit_length() - 1] = c
        return tuple(out)

    def content(self) -> int:
        return gcd(*self.coeffs.values())

    def _check_host(self, other: "CliffordElement") -> None:
        if self.host is not other.host and self.host.gram != other.host.gram:
            raise ValueError("elements live over different host lattices")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check_host(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return CliffordElement(self.host, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.host, {m: -c for m, c in self.coeffs.items()})

    def scale(self, c: int) -> "CliffordElement":
        return CliffordElement(self.host, {m: c * v for m, v in self.coeffs.items()})

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        return clifford_mul(self, other)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CliffordElement)
                and (self.host is other.host or self.host.gram == other.host.gram)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.host.gram, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        return " + ".join(f"{c}*" + ("e" + "".join(map(str, _mask_indices(m))) if m else "1")
                          for m, c in sorted(self.coeffs.items())) or "0"


def clifford_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    x._check_host(y)
    return CliffordElement(x.host, _algebra(x.host).mul(x.coeffs, y.coeffs))


def reversal(x: CliffordElement) -> CliffordElement:
    """The canonical anti-involution e_{i1}...e_{ik} -> e_{ik}...e_{i1}, by
    remultiplying the reversed generator string, so non-orthogonal Grams pick
    up their cross terms; no popcount sign shortcut."""
    alg = _algebra(x.host)
    out: dict[int, int] = {}
    for mask, coeff in x.coeffs.items():
        for m, c in alg.times({0: coeff}, _mask_indices(mask)[::-1]).items():
            out[m] = out.get(m, 0) + c
    return CliffordElement(x.host, out)


def even_part(x: CliffordElement) -> CliffordElement:
    return CliffordElement(x.host, {m: c for m, c in x.coeffs.items() if bin(m).count("1") % 2 == 0})


def is_even(x: CliffordElement) -> bool:
    return all(bin(m).count("1") % 2 == 0 for m in x.coeffs)


# ---------------------------------------------------------------------------
# traces and matrices

def trace_of_left_mul(x: CliffordElement) -> int:
    """Tr(L_x) on the left-regular module: 2^n times the sum of c_S Pf(B_S)."""
    tau = _algebra(x.host).tau
    return (1 << x.host.rank) * sum(c * tau(m) for m, c in x.coeffs.items())


@dataclass(frozen=True)
class EndoMatrix:
    dim: int
    entries: IntMatrix

    def __post_init__(self):
        if self.entries.rows != self.dim or self.entries.cols != self.dim:
            raise ValueError("endomorphism matrix must be dim x dim")


def left_mul_matrix(x: CliffordElement) -> EndoMatrix:
    n = x.host.rank
    if n > MATRIX_RANK_CAP:
        raise ValueError(f"rank {n} exceeds the matrix cap {MATRIX_RANK_CAP}")
    dim = 1 << n
    alg, cols = _algebra(x.host), [x.coeffs]
    for m in range(1, dim):  # x e_m = (x e_{m - top}) e_top
        top = m.bit_length() - 1
        cols.append(alg.times(cols[m ^ 1 << top], [top]))
    dense = [[0] * dim for _ in range(dim)]  # dense[m]: the column x e_m
    for m, col in enumerate(cols):
        for r, c in col.items():
            dense[m][r] = c
    return EndoMatrix(dim, IntMatrix.from_columns(dense, dim))


def phi_a(x: CliffordElement, y: CliffordElement, a: CliffordElement) -> int:
    """The pairing Tr(reversal(x) * y * a) on the left-regular module, from
    one product z = y a.  Tr(reversal(e_I) z) is sum_K B'[I][K] z_K, read
    from the host's trace form B' when it is built; otherwise cyclicity makes
    it Tr(z e_{ik} ... e_{i1}), |I| generator steps and the Pfaffians of the
    result.  phi_a never builds B' itself, so it needs no cap."""
    x._check_host(y)
    x._check_host(a)
    alg = _algebra(x.host)
    z = alg.mul(y.coeffs, a.coeffs)
    if alg._trace_form is not None:
        return sum(c * sum(alg._trace_form[i][k] * v for k, v in z.items()) for i, c in x.coeffs.items())
    return (1 << x.host.rank) * sum(c * alg.tau(m) * v for i, c in x.coeffs.items()
                                    for m, v in alg.times(z, _mask_indices(i)[::-1]).items())


@dataclass(frozen=True)
class PolarizationElement:
    """a with phi_a alternating and nondegenerate, as certified by
    `find_polarization_element`; its phi-Gram is built on first read."""

    element: CliffordElement
    candidates_tried: int = 0

    @cached_property
    def gram(self) -> IntMatrix:
        """phi_gram(element), checked to be alternating: row i of -G against
        column i of G, one at a time, so no second matrix is held."""
        gram = phi_gram(self.element)
        rows = [gram.row(i) for i in range(gram.rows)]
        if not all(tuple(map(neg, row)) == column for row, column in zip(rows, zip(*rows))):
            raise AssertionError("phi_a Gram is not alternating")
        return gram


def phi_gram(a: CliffordElement) -> IntMatrix:
    """Gram matrix of phi_a on the monomial basis of C(L), as B' R_a:
    phi_a(e_I, e_J) = Tr(reversal(e_I) e_J a) = sum_K B'[I][K] R_a[K][J], with
    B' the host's `CliffordAlgebra.trace_form` and R_a the sparse matrix of
    right multiplication by a; row I sums the rows K of R_a that `compress`
    picks, those with B'[I][K] != 0, so never a K of the other parity."""
    alg, dim = _algebra(a.host), 1 << a.host.rank
    trace_form = alg.trace_form()  # first, so that the cap raises before R_a is built
    r_a: list[list[tuple[int, int]]] = [[] for _ in range(dim)]  # row K: the (J, c) with c e_K in e_J a
    for j in range(dim):
        for k, c in alg.mul({j: 1}, a.coeffs).items():
            r_a[k].append((j, c))
    out = []
    for b_row in trace_form:
        acc = [0] * dim
        for b, r_a_row in compress(zip(b_row, r_a), b_row):
            for j, c in r_a_row:
                acc[j] += b * c
        out.append(tuple(acc))
    return IntMatrix._trusted(tuple(out), dim)


def find_polarization_element(host: Lattice) -> PolarizationElement:
    """Search for a with phi_a alternating and nondegenerate.

    Candidates are the -1 eigenvectors w_S = (e_S - reversal(e_S)) / 2 of the
    reversal, for |S| = 2 and then 3, each by increasing mask S.  phi_a is
    antisymmetric for each, as the trace is cyclic and reversal-invariant and
    reversal(a) = -a, and phi_gram(a) = B' R_a (see `phi_gram`), so
    det phi_gram(a) = det B' det R_a in closed form:

    - det B' = 2^(n 2^n) det(G)^(2^(n-1)).  Over Q take an orthogonal basis
      f = P e, of norms q_i.  reversal(f_S) f_T is a scalar times f_{S xor T},
      of trace 0 unless S = T, so on the f-monomials B' is diagonal with
      entries 2^n prod_{i in S} q_i, each i in 2^(n-1) sets S.  f_S is the
      wedge of its f_i plus lower degree terms, so the change of monomial
      basis is block-triangular by degree with blocks Lambda^k P, of
      determinant det(P)^(2^(n-1)); and prod q_i = det(P)^2 det G.
    - If a^2 = c is a scalar, R_a^2 = c I, so det R_a = +-c^(2^(n-1)); then
      phi_a is nondegenerate exactly when det G != 0 and c != 0.
    - For |S| = 2, 3 reversal is -1 on the blade e_{i1} ^ ... ^ e_{ik} and
      fixes the lower terms of e_S, so w_S is that blade, of square -det G_S
      (G_S the principal minor on S).
    - If det G != 0 and n >= 2, some G_S with |S| = 2, 3 is nonsingular:
      else g_ij^2 = g_ii g_jj and g_ij g_jk g_ik = g_ii g_jj g_kk for all
      i, j, k, so G = 0 if its diagonal is 0, and otherwise every
      g_jk = g_ij g_ik / g_ii for some g_ii != 0: G has rank <= 1.

    So the search returns the first blade with c != 0, builds no matrix and
    runs at any rank; `candidates_tried` counts it after the multiples 1, -1,
    2 and -2 of each earlier blade.  If det G = 0 then det B' = 0, and if
    n < 2 no a != 0 has reversal(a) = -a: there no phi_a of this kind is
    nondegenerate, and the error names which reason holds.
    """
    n = host.rank
    if n < 2:
        raise ValueError(f"no polarization element: rank {n} < 2, so no a != 0 has reversal(a) = -a")
    if not host.is_nondegenerate():
        raise ValueError("no polarization element: det G = 0, so det phi_a = 0 for every a")
    alg, units = _algebra(host), [1 << i for i in range(n)]
    masks = (mask for k in (2, 3) for mask in sorted(map(sum, combinations(units, k))))
    for i, mask in enumerate(masks):
        e_s = CliffordElement(host, {mask: 1})
        w = CliffordElement(host, {m: c // 2 for m, c in (e_s - reversal(e_s)).coeffs.items()})
        if alg.mul(w.coeffs, w.coeffs).get(0, 0):
            return PolarizationElement(w, 4 * i + 1)
    raise AssertionError("det G != 0, yet every 2- and 3-minor of G is 0")


# ---------------------------------------------------------------------------
# GSpin elements

@dataclass(frozen=True)
class GspinPair:
    """g = v*w with exact inverse (w*v) / (b(v,v) b(w,w))."""

    g: CliffordElement
    inverse_numerator: CliffordElement
    denominator: int

    def conjugate_times_denominator(self, u: CliffordElement) -> CliffordElement:
        return self.g * u * self.inverse_numerator


def gspin_generator(v: Sequence[int], w: Sequence[int], host: Lattice) -> GspinPair:
    nv, nw = host.norm(v), host.norm(w)
    if nv == 0 or nw == 0:
        raise ValueError("gspin generators need anisotropic vectors")
    ev, ew = CliffordElement.from_vector(host, v), CliffordElement.from_vector(host, w)
    g, inv_num, den = ev * ew, ew * ev, nv * nw
    if g * inv_num != CliffordElement.scalar(host, den):
        raise AssertionError("inverse identity v*w*w*v = b(v,v)b(w,w) failed")
    return GspinPair(g, inv_num, den)


@dataclass(frozen=True)
class ConjugationReport:
    preserves: bool
    failing_index: int | None
    images: tuple[tuple[int, ...], ...] | None


def conjugation_preserves_lattice(pair: GspinPair, host: Lattice) -> ConjugationReport:
    """Whether u -> g u g^{-1} maps every basis vector into the lattice.

    Conjugates are computed with the denominator cleared; failure of exact
    divisibility (or escape from degree one) is reported, not asserted.
    """
    images = []
    for i in range(host.rank):
        z = pair.conjugate_times_denominator(CliffordElement.generator(host, i))
        coords = z.degree_one_coords()
        if coords is None or any(c % pair.denominator != 0 for c in coords):
            return ConjugationReport(False, i, None)
        images.append(tuple(c // pair.denominator for c in coords))
    return ConjugationReport(True, None, tuple(images))


def trace_pairing_identity(v: Sequence[int], w: Sequence[int], host: Lattice) -> tuple[int, int]:
    """(Tr(L_v L_w), 2^n b(v,w)); the two agree because vw + wv = 2b(v,w)
    and odd monomials are traceless on the left-regular module."""
    lhs = trace_of_left_mul(CliffordElement.from_vector(host, v) * CliffordElement.from_vector(host, w))
    rhs = (1 << host.rank) * host.pairing(v, w)
    if lhs != rhs:
        raise AssertionError(f"trace pairing identity violated: {lhs} != {rhs}")
    return lhs, rhs


def project_endo_to_l(f: EndoMatrix, host: Lattice) -> tuple[int, ...]:
    """Recover the vector part of an endomorphism of C(L), integrally.

    c_i = Tr(f . L_{e_i dual}) / 2^n; unimodularity makes the dual basis
    integral and every quotient exact, which is checked hard.  By linearity
    c = G^-1 t / 2^n, with t_j = Tr(f L_{e_j}).  By the swap rule (see
    `CliffordAlgebra.gen`), e_j e_r is the sum over the h < j in r of
    2 s b(j, h) e_{r xor h}, plus s b(j, j) e_{r xor j} if j is in r, else
    s e_{r xor j}, with s = -1 to the number of indices of r below h (or j).
    So t_j = 2 sum_{h<j} b(j, h) ins_h + b(j, j) ins_j + outs_j, with ins_h
    (outs_h) the sum of s f[r, r xor h] over the r with h (without h).
    """
    if not host.is_unimodular():
        raise ValueError("integral projection needs a unimodular host")
    n, dim = host.rank, 1 << host.rank
    if f.dim != dim:
        raise ValueError("endomorphism dimension does not match the host")
    ins, outs = [0] * n, [0] * n
    for r in range(dim):
        row, sign = f.entries.row(r), 1
        for h in range(n):
            if r >> h & 1:
                ins[h] += sign * row[r ^ 1 << h]
                sign = -sign
            else:
                outs[h] += sign * row[r ^ 1 << h]
    t = [2 * sum(map(mul, g_j[:j], ins)) + g_j[j] * ins[j] + outs[j]
         for j, g_j in enumerate(map(host.gram.row, range(n)))]
    traces = unimodular_inverse(host.gram).apply(t)  # G^-1 is symmetric
    for i, tr in enumerate(traces):
        if tr % dim != 0:
            raise AssertionError(f"trace quotient not divisible by 2^n for dual vector {i}: {tr}")
    return tuple(tr // dim for tr in traces)
