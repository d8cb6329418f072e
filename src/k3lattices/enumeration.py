"""Bounded enumeration of reduced positive definite lattices.

Desk-scale finiteness: every positive definite class of rank <= 3 and
bounded discriminant has a reduced Gram representative inside an explicit
coefficient box, so the lists below are finite and exhaustive.  Rank 2 uses
the classical 0 <= 2b <= a <= c domain; rank 3 the Seeber-Eisenstein
conditions (boundary classes may appear through more than one reduced
matrix - each matrix appears once, but the lists are not taken up to isometry).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .lattices import Lattice, LatticeEmbedding, is_primitive, orthogonal_complement
from .linalg import IntMatrix, det_exact


@dataclass(frozen=True)
class ReducedFormList:
    rank: int
    max_disc: int
    forms: tuple[IntMatrix, ...]
    even_only: bool = False

    def count(self) -> int:
        return len(self.forms)

    def discs(self) -> list[int]:
        return [det_exact(f) for f in self.forms]


def _rank2_reduced(max_disc: int) -> list[tuple[int, int, int, int]]:
    """(det, a, b, c) of the reduced binary forms [[a, b], [b, c]],
    0 <= 2b <= a <= c, with det = ac - b^2 <= max_disc; det >= 3a^2/4 >= 1
    on this domain, so the kept c are a <= c <= (max_disc + b^2) // a."""
    out = []
    for a in range(1, isqrt(4 * max_disc // 3) + 1):
        for b in range(0, a // 2 + 1):
            out += [(a * c - b * b, a, b, c) for c in range(a, (max_disc + b * b) // a + 1)]
    return out


def _rank3_reduced(max_disc: int) -> list[tuple[int, int, int, int, int, int, int]]:
    """(det, a, t, s, b, r, c) of the Seeber-Eisenstein reduced ternary forms
    [[a, t, s], [t, b, r], [s, r, c]] with 1 <= det <= max_disc: a <= b <= c,
    the off-diagonal triple all positive or all nonpositive, 2|t|, 2|s| <= a,
    2|r| <= b, and a + b + 2(r + s + t) >= 0; a*b*c <= 2*max_disc bounds the
    search.  det = c*m + k with m = ab - t^2 and k = 2rst - ar^2 - bs^2, so the
    kept c of each (a, b, t, s, r) form one interval.  The minors m and ac - s^2
    are at least 3a^2/4 here, so a > 0, m > 0 and det >= 1 make every kept form
    positive definite (Sylvester) and no minor needs a test.
    """
    out = []
    a = 1
    while a * a * a <= 2 * max_disc:
        for b in range(a, isqrt(2 * max_disc // a) + 1):
            c_max = 2 * max_disc // (a * b)
            for t in range(-(a // 2), a // 2 + 1):
                m = a * b - t * t
                for s in range(-(a // 2), a // 2 + 1):
                    for r in range(-(b // 2), b // 2 + 1):
                        if not ((r > 0 and s > 0 and t > 0) or (r <= 0 and s <= 0 and t <= 0)):
                            continue
                        if a + b + 2 * (r + s + t) < 0:
                            continue
                        k = 2 * r * s * t - a * r * r - b * s * s
                        c_lo = max(b, -((k - 1) // m))  # c*m + k >= 1
                        c_hi = min(c_max, (max_disc - k) // m)
                        out += [(c * m + k, a, t, s, b, r, c) for c in range(c_lo, c_hi + 1)]
        a += 1
    return out


# rank: (generator of tuples (det, upper triangle in row order), Gram rows of such a tuple)
_REDUCED = {
    1: (lambda max_disc: [(a, a) for a in range(1, max_disc + 1)], lambda det, a: ((a,),)),
    2: (_rank2_reduced, lambda det, a, b, c: ((a, b), (b, c))),
    3: (_rank3_reduced, lambda det, a, t, s, b, r, c: ((a, t, s), (t, b, r), (s, r, c))),
}


def enumerate_lattices(rank: int, max_disc: int, even_only: bool = False) -> ReducedFormList:
    """All reduced positive definite Gram matrices of the given rank with
    determinant between 1 and max_disc, sorted by (determinant, entries)."""
    if rank not in (1, 2, 3):
        raise ValueError("rank must be 1, 2, or 3")
    if max_disc < 0:
        raise ValueError("max_disc must be nonnegative")
    generate, gram_rows = _REDUCED[rank]
    keys = generate(max_disc)
    keys.sort()  # each form appears once, and (det, upper triangle) orders as (det, rows)
    rows = [gram_rows(*key) for key in keys]
    if even_only:
        rows = [g for g in rows if all(g[i][i] % 2 == 0 for i in range(rank))]
    return ReducedFormList(rank, max_disc, tuple(IntMatrix._trusted(g, rank) for g in rows), even_only)


def transcendental_invariants(pic: LatticeEmbedding) -> tuple[Lattice, int, int]:
    """Complement of a saturated sublattice of a unimodular ambient, with the
    matching discriminants (the unimodular complement identity)."""
    if not pic.target.is_unimodular():
        raise ValueError("ambient lattice must be unimodular")
    if not is_primitive(pic):
        raise ValueError("sublattice must be saturated; saturate it first")
    comp = orthogonal_complement(pic)
    disc_t = comp.source.disc()
    disc_pic = pic.source.disc()
    if disc_t != disc_pic:
        raise AssertionError(
            f"complement discriminant {disc_t} does not match sublattice {disc_pic}")
    return comp.source, disc_t, disc_pic


def bounded_picard_candidates(max_rank: int, max_disc: int) -> list[IntMatrix]:
    """Even hyperbolic Gram matrices of signature (1, rank-1), |disc| <= bound.

    Rank 1: <2>, <4>, ...  Rank 2: [[2a, b], [b, -2c]] with a <= c, all of
    a, c >= 0 and b >= 0 (coefficient normal form only; no isometry-class
    deduplication), where |disc| = 4ac + b^2.
    """
    if max_rank not in (1, 2):
        raise ValueError("max_rank must be 1 or 2")
    if max_disc < 0:
        raise ValueError("max_disc must be nonnegative")
    out: list[IntMatrix] = []
    for k in range(1, max_disc // 2 + 1):
        out.append(IntMatrix([[2 * k]]))
    if max_rank == 1:
        return out
    for b in range(0, isqrt(max_disc) + 1):
        a = 0
        while 4 * a * a + b * b <= max_disc:  # a <= c forces 4a^2 <= disc
            if a == 0:
                # [[0,b],[b,-2c]] ~ c mod b under a unipotent column move,
                # so only c in [0, b) are distinct normal forms
                c_range = range(0, b)
            else:
                c_range = range(a, (max_disc - b * b) // (4 * a) + 1)
            for c in c_range:  # signature (1,1): 4ac + b^2 > 0, as b > c >= 0 if a = 0, else c >= a >= 1
                out.append(IntMatrix([[2 * a, b], [b, -2 * c]]))
            a += 1
    return out
