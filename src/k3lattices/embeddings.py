"""Explicit primitive embeddings between the named lattices.

The constructions all reduce to writing 2d = 1 + z^2 + w^2 + v^2 + u^2 by
Lagrange's four-square theorem: the generator of <2d> then maps to
(1, z, w, v, u) in <1>^5, primitively because of the leading 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .lattices import (
    Lattice,
    LatticeEmbedding,
    big_l,
    direct_sum,
    e8,
    hyperbolic_u,
    k3_lattice,
    l_d,
    orthogonal_complement,
    rank_one,
    sublattice_embedding,
)
from .linalg import IntMatrix


@dataclass(frozen=True)
class FourSquareWitness:
    m: int
    parts: tuple[int, int, int, int]

    def __post_init__(self):
        z, w, v, u = self.parts
        if not (z >= w >= v >= u >= 0):
            raise ValueError("parts must be sorted descending and nonnegative")
        if z * z + w * w + v * v + u * u != self.m:
            raise ValueError("parts do not sum to m")


def four_squares(m: int) -> FourSquareWitness:
    """Lexicographically largest descending (z, w, v, u) with sum of squares m.

    Descending search from isqrt(m); the first hit under the z >= w >= v >= u
    constraint is the canonical witness.  The mod-8 obstruction for sums of
    three squares prunes hopeless z early.  While 8 divides m > 0, the search
    runs on m/4 and doubles the witness: a square is 0, 1 or 4 mod 8, so with
    k odd squares the sum is k + 4j mod 8, which is 0 only for k = 0.  So
    every witness of m is twice a witness of m/4, in the same order.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    n, scale = m, 1
    while n % 8 == 0 and n > 0:
        n, scale = n // 4, 2 * scale
    for z in range(isqrt(n), -1, -1):
        r3 = n - z * z
        if r3 > 3 * z * z:
            break  # z too small to dominate the remaining three squares
        t = r3
        while t % 4 == 0 and t > 0:
            t //= 4
        if t % 8 == 7:
            continue  # not a sum of three squares
        for w in range(min(z, isqrt(r3)), -1, -1):
            r2 = r3 - w * w
            if r2 > 2 * w * w:
                break
            for v in range(min(w, isqrt(r2)), -1, -1):
                r1 = r2 - v * v
                if r1 > v * v:
                    break
                u = isqrt(r1)
                if u * u == r1 and u <= v:
                    return FourSquareWitness(m, (scale * z, scale * w, scale * v, scale * u))
    raise AssertionError(f"four-square search failed for {m}")  # unreachable


def embed_2d_in_i5(d: int) -> LatticeEmbedding:
    """<2d> -> <1>^5, generator to (1, z, w, v, u) with 2d-1 = z^2+w^2+v^2+u^2."""
    if d < 1:
        raise ValueError("d must be >= 1")
    witness = four_squares(2 * d - 1)
    i5 = direct_sum(*(rank_one(1) for _ in range(5)))
    column = (1,) + witness.parts
    mat = IntMatrix.from_columns([column], 5)
    return LatticeEmbedding(rank_one(2 * d), i5, mat)


def embed_ld_in_l(d: int) -> LatticeEmbedding:
    """The primitive embedding i_d : E8^2+U^2+<2d> -> E8^2+U^2+<1>^5.

    Identity on the common E8^2+U^2 block; the <2d> generator goes into
    <1>^5 through the four-square column.
    """
    source = l_d(d)  # raises on d < 1
    target = big_l()
    small = embed_2d_in_i5(d)
    mat = IntMatrix.identity(20).block_diag(small.matrix)
    return LatticeEmbedding(source, target, mat)


def complement_of_ld_in_l(d: int) -> Lattice:
    """Orthogonal complement of i_d inside the rank-25 unimodular lattice.

    Rank 4, positive definite (it sits inside the <1>^5 block), |disc| = 2d
    by the unimodular complement identity.
    """
    return orthogonal_complement(embed_ld_in_l(d)).source


@dataclass(frozen=True)
class PolarizedVectorData:
    """v_d = e - d*f in a U-summand of the K3 lattice, with its complement.

    `iso_matrix` carries the complement onto `target` (= E8^2+U^2+<2d> for the
    default sign): iso_matrix^T . target.gram . iso_matrix = complement gram.
    The complement basis is ordered so this matrix is the identity.
    """

    vector: tuple[int, ...]
    complement: LatticeEmbedding
    target: Lattice
    iso_matrix: IntMatrix


# K3 basis layout used throughout: E8 (0-7), E8 (8-15), U (16,17), U (18,19), U (20,21)
K3_U_INDICES = ((16, 17), (18, 19), (20, 21))


def v_d_in_k3(d: int, positive_norm: bool = False) -> PolarizedVectorData:
    """The degree vector e - d*f in the first U-summand of E8^2+U^3.

    Returns the vector, the embedding of its orthogonal complement, and the
    explicit Gram-preserving matrix identifying the complement with
    E8^2+U^2+<2d> (or <-2d> when positive_norm picks v = e + d*f, whose
    complement contains e - d*f of square -2d instead).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    lam = k3_lattice()
    e_idx, f_idx = K3_U_INDICES[0]
    sign = 1 if positive_norm else -1
    vector = tuple(1 if i == e_idx else (sign * d if i == f_idx else 0) for i in range(22))

    # complement basis in a fixed order: E8^2, the two remaining U's, e -+ d*f
    cols = [lam.basis_vector(i) for i in range(16)]
    cols += [lam.basis_vector(i) for i in (18, 19, 20, 21)]
    cols.append(tuple(1 if i == e_idx else (-sign * d if i == f_idx else 0) for i in range(22)))
    complement = sublattice_embedding(lam, cols, f"v_{d}-perp")

    target = direct_sum(e8(), e8(), hyperbolic_u(), hyperbolic_u(), rank_one(-sign * 2 * d))
    # the chosen basis realizes the isometry as the identity matrix
    iso_matrix = IntMatrix.identity(21)
    if complement.source.gram != target.gram:
        raise AssertionError("complement Gram does not match the expected block form")
    return PolarizedVectorData(vector, complement, target, iso_matrix)
