"""Integral Clifford algebra of a lattice, with the trace pairing machinery.

Elements are finitely supported integer combinations of basis monomials
e_S = e_{i1}...e_{ik} (i1 < ... < ik), encoded by bitmask S.  Products follow
e_i e_j + e_j e_i = 2 b(e_i, e_j) and e_i^2 = b(e_i, e_i), so the algebra is
integral for every integer Gram matrix.  Monomial products and traces are
memoized per Gram matrix; matrix realizations live on the 2^n-dimensional
left-regular module and are capped at rank 10 by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

from .lattices import Lattice
from .linalg import IntMatrix, det_exact, unimodular_inverse

MATRIX_RANK_CAP = 10
PHI_RANK_CAP = 8

_gen_product_cache: dict = {}
_mono_product_cache: dict = {}
_trace_cache: dict = {}


class CliffordElement:
    """Integer element of C(L), as a mask -> coefficient map."""

    __slots__ = ("host", "coeffs")

    def __init__(self, host: Lattice, coeffs: dict[int, int]):
        self.host = host
        self.coeffs = {m: int(c) for m, c in coeffs.items() if c != 0}
        top = 1 << host.rank
        if any(not 0 <= m < top for m in self.coeffs):
            raise ValueError("monomial mask out of range for the host rank")

    # -- constructors ------------------------------------------------------
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

    # -- structure ---------------------------------------------------------
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
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, c)
        return g

    # -- arithmetic --------------------------------------------------------
    def _check_host(self, other: "CliffordElement") -> None:
        if self.host.gram != other.host.gram:
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
        return (isinstance(other, CliffordElement) and self.host.gram == other.host.gram
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.host.gram, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for m in sorted(self.coeffs):
            name = "1" if m == 0 else "e" + "".join(str(i) for i in _mask_indices(m))
            bits.append(f"{self.coeffs[m]}*{name}")
        return " + ".join(bits)


def _mask_indices(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _mono_times_gen(host: Lattice, mask: int, j: int) -> dict[int, int]:
    """Expansion of e_mask * e_j in the monomial basis."""
    key = (host.gram, mask, j)
    hit = _gen_product_cache.get(key)
    if hit is not None:
        return hit
    gram = host.gram
    if mask == 0:
        out = {1 << j: 1}
    else:
        top = mask.bit_length() - 1
        rest = mask & ~(1 << top)
        if top < j:
            out = {mask | (1 << j): 1}
        elif top == j:
            out = {rest: gram[j, j]} if gram[j, j] != 0 else {}
        else:
            # e_top e_j = 2 b(top, j) - e_j e_top, and every monomial of
            # (e_rest e_j) has indices below top
            out = {}
            b2 = 2 * gram[top, j]
            if b2 != 0:
                out[rest] = b2
            for m, c in _mono_times_gen(host, rest, j).items():
                out[m | (1 << top)] = out.get(m | (1 << top), 0) - c
            out = {m: c for m, c in out.items() if c != 0}
    _gen_product_cache[key] = out
    return out


def _mono_times_mono(host: Lattice, ma: int, mb: int) -> dict[int, int]:
    key = (host.gram, ma, mb)
    hit = _mono_product_cache.get(key)
    if hit is not None:
        return hit
    acc = {ma: 1}
    for j in _mask_indices(mb):
        nxt: dict[int, int] = {}
        for m, c in acc.items():
            for m2, c2 in _mono_times_gen(host, m, j).items():
                nxt[m2] = nxt.get(m2, 0) + c * c2
        acc = {m: c for m, c in nxt.items() if c != 0}
    _mono_product_cache[key] = acc
    return acc


def clifford_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    x._check_host(y)
    out: dict[int, int] = {}
    for ma, ca in x.coeffs.items():
        for mb, cb in y.coeffs.items():
            for m, c in _mono_times_mono(x.host, ma, mb).items():
                out[m] = out.get(m, 0) + ca * cb * c
    return CliffordElement(x.host, out)


def reversal(x: CliffordElement) -> CliffordElement:
    """The canonical anti-involution e_{i1}...e_{ik} -> e_{ik}...e_{i1}.

    Computed by literally remultiplying the reversed generator string, so
    non-orthogonal Gram matrices pick up their cross terms; no popcount sign
    shortcut.
    """
    host = x.host
    out = CliffordElement.scalar(host, 0)
    for mask, coeff in x.coeffs.items():
        term = {0: coeff}
        for j in reversed(list(_mask_indices(mask))):
            nxt: dict[int, int] = {}
            for m, c in term.items():
                for m2, c2 in _mono_times_gen(host, m, j).items():
                    nxt[m2] = nxt.get(m2, 0) + c * c2
            term = nxt
        out = out + CliffordElement(host, term)
    return out


def even_part(x: CliffordElement) -> CliffordElement:
    return CliffordElement(x.host, {m: c for m, c in x.coeffs.items() if bin(m).count("1") % 2 == 0})


def is_even(x: CliffordElement) -> bool:
    return all(bin(m).count("1") % 2 == 0 for m in x.coeffs)


# ---------------------------------------------------------------------------
# traces and matrices

def _mono_trace(host: Lattice, mask: int) -> int:
    """Trace of left multiplication by e_mask on the 2^n module."""
    key = (host.gram, mask)
    hit = _trace_cache.get(key)
    if hit is not None:
        return hit
    total = 0
    for m in range(1 << host.rank):
        total += _mono_times_mono(host, mask, m).get(m, 0)
    _trace_cache[key] = total
    return total


def trace_of_left_mul(x: CliffordElement) -> int:
    return sum(c * _mono_trace(x.host, m) for m, c in x.coeffs.items())


@dataclass(frozen=True)
class EndoMatrix:
    dim: int
    entries: IntMatrix

    def __post_init__(self):
        if self.entries.rows != self.dim or self.entries.cols != self.dim:
            raise ValueError("endomorphism matrix must be dim x dim")


def left_mul_matrix(x: CliffordElement, cap: int = MATRIX_RANK_CAP) -> EndoMatrix:
    n = x.host.rank
    if n > cap:
        raise ValueError(f"rank {n} exceeds the matrix cap {cap}")
    dim = 1 << n
    cols = []
    for m in range(dim):
        col = [0] * dim
        for ma, ca in x.coeffs.items():
            for m2, c2 in _mono_times_mono(x.host, ma, m).items():
                col[m2] += ca * c2
        cols.append(tuple(col))
    return EndoMatrix(dim, IntMatrix.from_columns(cols, dim))


def phi_a(x: CliffordElement, y: CliffordElement, a: CliffordElement) -> int:
    """The pairing Tr(reversal(x) * y * a) on the left-regular module."""
    x._check_host(y)
    x._check_host(a)
    return trace_of_left_mul(reversal(x) * y * a)


@dataclass(frozen=True)
class PolarizationElement:
    element: CliffordElement
    gram: IntMatrix

    def is_alternating(self) -> bool:
        return _is_alternating(self.gram)


def _is_alternating(g: IntMatrix) -> bool:
    return all(g[i, j] == -g[j, i] for i in range(g.rows) for j in range(i + 1))


def phi_gram(a: CliffordElement) -> IntMatrix:
    """Gram matrix of phi_a on the monomial basis of C(L)."""
    host = a.host
    n = host.rank
    dim = 1 << n
    basis = [CliffordElement(host, {m: 1}) for m in range(dim)]
    rev = [reversal(b) for b in basis]
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            row.append(trace_of_left_mul(rev[i] * basis[j] * a))
        rows.append(row)
    return IntMatrix(rows)


def _anti_fixed_basis(host: Lattice) -> list[CliffordElement]:
    """Primitive spanning elements of the -1 eigenspace of the reversal."""
    out = []
    seen = set()
    masks = sorted(range(1, 1 << host.rank), key=lambda m: (bin(m).count("1"), m))
    for mask in masks:
        e_s = CliffordElement(host, {mask: 1})
        w = e_s - reversal(e_s)
        if w.is_zero():
            continue
        g = w.content()
        w = CliffordElement(host, {m: c // g for m, c in w.coeffs.items()})
        key = tuple(sorted(w.coeffs.items()))
        neg = tuple(sorted((m, -c) for m, c in w.coeffs.items()))
        if key in seen or neg in seen:
            continue
        seen.add(key)
        out.append(w)
    return out


def find_polarization_element(host: Lattice, cap: int = PHI_RANK_CAP,
                              max_support: int = 2) -> PolarizationElement:
    """Search for a with phi_a alternating and nondegenerate.

    Candidates are integer combinations of the reversal's -1 eigenvectors
    (e_S - reversal(e_S), normalized), by increasing support size and then
    coefficients in {1, -1, 2, -2}; phi_a for such a is antisymmetric by the
    trace identity, so the real work is the nondegeneracy determinant.
    """
    if host.rank > cap:
        raise ValueError(f"rank {host.rank} exceeds the phi-gram cap {cap}")
    basis = _anti_fixed_basis(host)
    coeff_choices = (1, -1, 2, -2)
    tried = 0

    def candidates():
        for w in basis:
            for c in coeff_choices:
                yield w.scale(c)
        if max_support >= 2:
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    for ci in coeff_choices:
                        for cj in coeff_choices:
                            yield basis[i].scale(ci) + basis[j].scale(cj)

    for a in candidates():
        tried += 1
        g = phi_gram(a)
        if _is_alternating(g) and det_exact(g) != 0:
            return PolarizationElement(a, g)
    raise ValueError(
        f"no polarization element found: searched {tried} candidates over "
        f"{len(basis)} anti-fixed basis elements with support <= {max_support}, "
        f"coefficients in {coeff_choices}")


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
    ev = CliffordElement.from_vector(host, v)
    ew = CliffordElement.from_vector(host, w)
    g = ev * ew
    inv_num = ew * ev
    den = nv * nw
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
        if coords is None:
            return ConjugationReport(False, i, None)
        if any(c % pair.denominator != 0 for c in coords):
            return ConjugationReport(False, i, None)
        images.append(tuple(c // pair.denominator for c in coords))
    return ConjugationReport(True, None, tuple(images))


def trace_pairing_identity(v: Sequence[int], w: Sequence[int], host: Lattice,
                           cap: int = MATRIX_RANK_CAP) -> tuple[int, int]:
    """(Tr(L_v L_w), 2^n b(v,w)); the two agree because vw + wv = 2b(v,w)
    and odd monomials are traceless on the left-regular module."""
    if host.rank > cap:
        raise ValueError(f"rank {host.rank} exceeds the matrix cap {cap}")
    ev = CliffordElement.from_vector(host, v)
    ew = CliffordElement.from_vector(host, w)
    lhs = trace_of_left_mul(ev * ew)
    rhs = (1 << host.rank) * host.pairing(v, w)
    if lhs != rhs:
        raise AssertionError(f"trace pairing identity violated: {lhs} != {rhs}")
    return lhs, rhs


def project_endo_to_l(f: EndoMatrix, host: Lattice, cap: int = MATRIX_RANK_CAP) -> tuple[int, ...]:
    """Recover the vector part of an endomorphism of C(L), integrally.

    c_i = Tr(f . L_{e_i dual}) / 2^n; unimodularity makes the dual basis
    integral and every quotient exact, which is checked hard.
    """
    if not host.is_unimodular():
        raise ValueError("integral projection needs a unimodular host")
    if host.rank > cap:
        raise ValueError(f"rank {host.rank} exceeds the matrix cap {cap}")
    n = host.rank
    dim = 1 << n
    if f.dim != dim:
        raise ValueError("endomorphism dimension does not match the host")
    ginv = unimodular_inverse(host.gram)
    coords = []
    for i in range(n):
        dual = CliffordElement.from_vector(host, ginv.column(i))
        lmat = left_mul_matrix(dual, cap).entries
        tr = sum(sum(f.entries[r, k] * lmat[k, r] for k in range(dim)) for r in range(dim))
        if tr % dim != 0:
            raise AssertionError(
                f"trace quotient not divisible by 2^n for dual vector {i}: {tr}")
        coords.append(tr // dim)
    return tuple(coords)
