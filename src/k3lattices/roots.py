"""Short-vector enumeration and the (-2)-wall test for polarization degrees.

`short_vectors` is integral LLL, then fraction-free Fincke-Pohst, provably
complete: an all-integer LDL^T of the reduced Gram plus depth-first
coordinate bounding with integer square roots, so the reported list is
exact.  On a hyperbolic lattice (signature (1, rank-1)) the vectors w with
w^2 = -2 orthogonal to a fixed v of positive square live in the negative
definite complement v-perp, which makes the wall test finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm
from typing import Sequence

from .lattices import Lattice, orthogonal_complement, sublattice_embedding
from .linalg import ldlt, lll_reduce_gram

Vector = tuple[int, ...]


@dataclass(frozen=True)
class ShortVectorReport:
    lattice: Lattice
    norm: int
    vectors: tuple[Vector, ...]
    complete: bool = True

    def count(self) -> int:
        return len(self.vectors)


def short_vectors(n: Lattice, target_norm: int) -> ShortVectorReport:
    """All v with v^T G v equal to target_norm in a positive definite lattice.

    Integral LLL, then fraction-free Fincke-Pohst, provably complete.  On the
    reduced Gram, with the integer data of `ldlt` and C_i = sum_{j>i} M_ji x_j,
    the norm is sum_i (D_{i+1} x_i + C_i)^2 / (D_i D_{i+1}).  Scaling by
    N = lcm(D_i D_{i+1}) with w_i = N / (D_i D_{i+1}) leaves an integer budget,
    and each coordinate, from the last one down, runs over exactly the x_i with
    w_i (D_{i+1} x_i + C_i)^2 within what is left.  Hits are mapped back
    through the unimodular transform.
    """
    if target_norm <= 0:
        raise ValueError("target norm must be positive")
    try:
        reduced, u = lll_reduce_gram(n.gram)
    except ValueError:
        raise ValueError("short-vector enumeration needs a positive definite lattice") from None
    rank = n.rank
    if rank == 0:
        return ShortVectorReport(n, target_norm, ())
    minors, numer = ldlt(reduced)
    denominators = [minors[i] * minors[i + 1] for i in range(rank)]
    scale = lcm(*denominators)
    weights = [scale // q for q in denominators]
    columns = u.columns()
    found: list[Vector] = []

    def descend(i: int, remaining: int, centers: list[int], image: list[int]) -> None:
        # centers[l] is C_l for l <= i; image is u applied to the coordinates chosen so far
        center, pivot, weight = centers[i], minors[i + 1], weights[i]
        root = isqrt(remaining // weight)
        if i == 0:
            # x_0, the last coordinate visited, must use up the budget: w_0 y^2 == remaining
            if weight * root * root != remaining:
                return
            for y in (root, -root) if root else (0,):
                x, r = divmod(y - center, pivot)
                if r == 0:  # built from a list, so the kept tuple has its exact size
                    found.append(tuple([a + x * b for a, b in zip(image, columns[0])]))
            return
        row, column = numer[i], columns[i]
        for x in range(-((root + center) // pivot), (root - center) // pivot + 1):
            y = pivot * x + center
            descend(i - 1, remaining - weight * y * y,
                    [c + x * m for c, m in zip(centers, row)],
                    [a + x * b for a, b in zip(image, column)])

    descend(rank - 1, scale * target_norm, [0] * rank, [0] * rank)
    found.sort()
    return ShortVectorReport(n, target_norm, tuple(found))


def minus_two_walls_through(n: Lattice, v: Sequence[int]) -> list[Vector]:
    """All w with w^2 = -2 and w.v = 0, for v of positive square.

    v-perp is negative definite under the Hodge-index signature, so negating
    its Gram turns the wall hunt into a finite norm-2 enumeration.
    """
    _require_hyperbolic(n)
    v = tuple(v)
    if n.norm(v) <= 0:
        raise ValueError("wall test needs v with positive square")
    return _walls(n, v)


def _walls(n: Lattice, v: Vector) -> list[Vector]:
    # the wall test for a hyperbolic n and v^2 > 0, both checked by the caller
    if n.rank == 1:
        return []
    perp = orthogonal_complement(sublattice_embedding(n, [v]))
    flipped = Lattice(perp.source.rank, -perp.source.gram)
    report = short_vectors(flipped, 2)
    walls = [perp.matrix.apply(x) for x in report.vectors]
    return sorted(walls)


def in_cn(n: Lattice, v: Sequence[int]) -> bool:
    """Membership in the wall-avoiding positive cone: v^2 > 0 and no
    (-2)-vector is orthogonal to v."""
    _require_hyperbolic(n)
    v = tuple(v)
    return n.norm(v) > 0 and not _walls(n, v)


def _require_hyperbolic(n: Lattice) -> None:
    if n.signature() != (1, n.rank - 1, 0):
        raise ValueError("lattice must have Hodge-index signature (1, rank-1)")


@dataclass(frozen=True)
class PolarizationSearchResult:
    lattice: Lattice
    upper_bound: int | None
    certificate: Vector | None
    searched_norm_limit: int
    searched_box: int
    exhaustive: bool


def _candidate_key(norm: int, vec: Vector):
    # deterministic order: by square, then componentwise with nonnegative
    # entries ranked before negative ones of the same magnitude
    return (norm, tuple((0, x) if x >= 0 else (1, -x) for x in vec))


def _box_candidates(n: Lattice, norm_limit: int, coeff_box: int) -> list[tuple[int, Vector]]:
    out = []

    def rec(i: int, acc: list[int]):
        if i == n.rank:
            vec = tuple(acc)
            q = n.norm(vec)
            if 0 < q <= norm_limit:
                out.append((q, vec))
            return
        for t in range(-coeff_box, coeff_box + 1):
            acc.append(t)
            rec(i + 1, acc)
            acc.pop()

    rec(0, [])
    out.sort(key=lambda item: _candidate_key(*item))
    return out


def min_polarization_degree(n: Lattice, norm_limit: int = 20, coeff_box: int = 10,
                            jobs: int = 1) -> PolarizationSearchResult:
    """Smallest v^2 over box candidates passing the wall test.

    Scans every v with |coordinates| <= coeff_box and 0 < v^2 <= norm_limit in
    increasing v^2 (deterministic tie-break) and returns the first member of
    the cone, a certified upper bound for the true minimal degree.  Exhaustive
    only in rank 1, where the generator settles the question.  The lattice
    is checked to be hyperbolic once; every candidate has v^2 > 0, so the
    scan runs the wall test directly.
    """
    _require_hyperbolic(n)
    if norm_limit <= 0 or coeff_box <= 0:
        raise ValueError("limits must be positive")
    candidates = _box_candidates(n, norm_limit, coeff_box)
    if jobs > 1 and n.rank > 1:
        hit = _parallel_scan(n, candidates, jobs)
    else:
        hit = _scan_chunk((n, candidates))
    degree, certificate = hit or (None, None)
    return PolarizationSearchResult(n, degree, certificate, norm_limit, coeff_box, n.rank == 1)


def _parallel_scan(n: Lattice, candidates, jobs: int):
    """Split the ordered candidate list across processes; the merged result is
    the globally first hit because chunks preserve the order."""
    from concurrent.futures import ProcessPoolExecutor

    chunks = [candidates[i::jobs] for i in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_scan_chunk, [(n, chunk) for chunk in chunks]))
    hits = [r for r in results if r is not None]
    if not hits:
        return None
    return min(hits, key=lambda item: _candidate_key(*item))


def _scan_chunk(args):
    n, chunk = args
    return next(((q, vec) for q, vec in chunk if not _walls(n, vec)), None)


def verify_certificate(n: Lattice, v: Sequence[int], claimed_degree: int) -> bool:
    """Exact independent recheck: v in n, v^2 = claimed degree, no wall hits."""
    v = tuple(v)
    if len(v) != n.rank:
        return False
    if n.norm(v) != claimed_degree:
        return False
    try:
        return in_cn(n, v)
    except ValueError:
        return False
