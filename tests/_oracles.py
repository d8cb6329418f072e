"""Independent brute-force oracles shared by the unit and acceptance suites."""

from fractions import Fraction
from itertools import product

from k3lattices.lattices import Lattice
from k3lattices.linalg import rational_inverse, smith_normal_form


def box_oracle(lat: Lattice, norm: int) -> set:
    """Naive complete enumeration: |x_i| <= sqrt(norm * (G^-1)_ii) by
    Cauchy-Schwarz against the dual basis vectors.  Vectorized with int64
    numpy (entries stay tiny, so the arithmetic is exact)."""
    import numpy as np

    inv = rational_inverse(lat.gram)
    bounds = []
    for i in range(lat.rank):
        b2 = norm * inv.entries[i][i]
        bound = 0
        while (bound + 1) ** 2 <= b2:
            bound += 1
        bounds.append(bound)
    gram = np.array(lat.gram.tolists(), dtype=np.int64)
    split = max(0, lat.rank - 5)
    tail_ranges = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds[split:]]
    tails = np.stack(np.meshgrid(*tail_ranges, indexing="ij"), axis=-1).reshape(-1, lat.rank - split)
    g_tt = gram[split:, split:]
    tail_norms = np.einsum("ij,jk,ik->i", tails, g_tt, tails)
    hits = set()
    if split == 0:
        for row in tails[tail_norms == norm]:
            hits.add(tuple(int(x) for x in row))
        return hits
    g_hh = gram[:split, :split]
    g_ht = gram[:split, split:]
    for head in product(*[range(-b, b + 1) for b in bounds[:split]]):
        h = np.array(head, dtype=np.int64)
        total = int(h @ g_hh @ h) + 2 * (tails @ (g_ht.T @ h)) + tail_norms
        for row in tails[total == norm]:
            hits.add(head + tuple(int(x) for x in row))
    return hits


def rank2_reduced_oracle(max_disc: int) -> set:
    """Dumb scan of the reduced binary domain over a generous box."""
    hits = set()
    for a in range(1, 2 * max_disc + 1):
        for b in range(0, max_disc + 1):
            for c in range(1, 2 * max_disc + 1):
                if 0 <= 2 * b <= a <= c and 1 <= a * c - b * b <= max_disc:
                    hits.add(((a, b), (b, c)))
    return hits


def discriminant_lifts_by_inverse(lat: Lattice) -> tuple:
    """Generator lifts of the discriminant group as G^-1 u^-1 e_i, one for
    each invariant factor d_i > 1 of u G v = d, with both inverses taken by
    `rational_inverse` (fraction-free Gauss-Jordan), not read off v."""
    snf = smith_normal_form(lat.gram)
    ginv = rational_inverse(lat.gram)
    uinv = rational_inverse(snf.u)
    return tuple(tuple(ginv.apply([row[i] for row in uinv.entries]))
                 for i in range(lat.rank) if snf.d[i, i] > 1)


def gram_schmidt_oracle(gram) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(mu, b_star_sq) of the basis with this positive definite Gram matrix:
    mu[k][l] = b_k . b*_l / |b*_l|^2 for l < k and b_star_sq[k] = |b*_k|^2,
    by textbook Gram-Schmidt over Q."""
    n = gram.rows
    mu = [[Fraction(0)] * n for _ in range(n)]
    b_star_sq: list[Fraction] = []
    for k in range(n):
        for l in range(k):
            dot = Fraction(gram[k, l]) - sum(mu[l][j] * mu[k][j] * b_star_sq[j] for j in range(l))
            mu[k][l] = dot / b_star_sq[l]
        b_star_sq.append(Fraction(gram[k, k]) - sum(mu[k][j] ** 2 * b_star_sq[j] for j in range(k)))
    return mu, b_star_sq
