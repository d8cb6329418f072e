"""Short-vector enumeration and the (-2)-wall test for polarization degrees.

`short_vectors` is integral LLL, then fraction-free Fincke-Pohst, provably
complete: the all-integer LDL^T that LLL keeps (one Bareiss pass per search),
integer square roots, half the tree (one of each +-v), and the last two
coordinates closed from a table of plane solutions built once per search.
Each vector is packed into one int, so a child costs one multiply-add; the
half's hits are sorted as ints, merged with their negations and decoded once.
On a hyperbolic lattice (signature (1, rank-1)) the vectors w with w^2 = -2
orthogonal to a fixed v of positive square lie in the negative definite v-perp,
so the wall test is finite: one enumeration of a positive definite majorant,
filtered to w.v = 0, finds them with no basis of v-perp.
`min_polarization_degree` walks the coefficient box once, carrying partial
squares, into norm shells already in candidate order, and decides them in
increasing v^2: a candidate orthogonal to a wall that an earlier wall test
found is rejected by one dot product, and only the others run the wall test,
which `wall_searches` counts.  The walk skips a prefix whose completions all
miss (0, norm_limit] (Fincke-Pohst pruning for an indefinite form on a box):
each term of v^2 left to add is bounded over the box, so their sum is too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm, prod
from itertools import repeat
from operator import itemgetter, mul, neg, sub
from struct import iter_unpack
from typing import Sequence

from .lattices import Lattice
from .linalg import IntMatrix, lll_reduce_gram

Vector = tuple[int, ...]
_FLIP = bytes(b ^ 0x80 for b in range(256))


@dataclass(frozen=True)
class ShortVectorReport:
    lattice: Lattice
    norm: int
    vectors: tuple[Vector, ...]
    nodes: int = 0  # values tried for x_i, i >= 1, over the half tree (rank 1: its phantom x_1 = 0)

    def count(self) -> int:
        return len(self.vectors)


def short_vectors(n: Lattice, target_norm: int) -> ShortVectorReport:
    """All v with v^T G v equal to target_norm in a positive definite lattice.

    Integral LLL, then fraction-free Fincke-Pohst, provably complete, on one
    LDL^T: LLL's own d_k and lambda_kl are the integer data of `ldlt` for the
    reduced basis.  With C_i = sum_{j>i} M_ji x_j and y_i = D_{i+1} x_i + C_i,
    the norm is sum_i y_i^2 / (D_i D_{i+1}).  Scaling by N = lcm(D_i D_{i+1})
    with w_i = N / (D_i D_{i+1}) leaves an integer budget, and each coordinate,
    from the last one down, runs over exactly the x_i with w_i y_i^2 within
    what is left: |y_i| <= R = isqrt(left // w_i).  The tree is walked for one
    of each +-v, the one whose last nonzero reduced coordinate is positive:
    while every x_j, j > i, is 0, C_i = 0 and x_i >= 0.  `nodes` counts the x_i
    tried for i >= 1.

    Levels 1 and 0 are closed from a table, built once per search.  At level 2
    each x_2 leaves rem; write C_1 = D_2 k + r_1 with 0 <= r_1 < D_2 and
    z = x_1 + k, so y_1 = D_2 z + r_1.  Then the (x_1, x_0) below are the
    (z, y_0) with w_1 (D_2 z + r_1)^2 + w_0 y_0^2 == rem, a set fixed by
    (rem, r_1) alone, read as x_1 = z - k and x_0 = (y_0 - C_0 - x_1 M_10) / D_1
    (C_0 before x_1) where that divides.  Its numerator is u - c with
    u = y_0 - z M_10 and c = C_0 - k M_10: exact iff u = c mod D_1, and then
    x_0 = u // D_1 - c // D_1.  So the entry of (rem, r_1) keeps, by u mod D_1,
    the offsets z pack(b_1) + (u // D_1) pack(b_0), and a node adds its image
    (below) less k pack(b_1) + (c // D_1) pack(b_0) to each offset of residue
    c mod D_1.  The entry keeps the count of x_1 too: |D_2 z + r_1| <= R
    is -((R + r_1) // D_2) <= z <= (R - r_1) // D_2, which is
    (R - r_1) // D_2 + (R + r_1) // D_2 + 1 values of x_1 = z - k for every k.
    The node with every x_j, j >= 2, zero (the whole tree at rank <= 2) has
    C_1 = C_0 = 0, rem = budget and x_1 >= 0, so R // D_2 + 1 values; its own
    loop closes it, keeping y_0 > 0 when x_1 = 0.

    Each vector is one int, pack(v) = sum_k v_k 2^(s (r-1-k)), v_0 the most
    significant.  pack is Z-linear, so a child adds x pack(b_i) to its parent's
    image.  The field width s, a multiple of 8, makes |v_k| < 2^(s-2):
    v_k^2 <= n (G^-1)_kk (Cauchy-Schwarz) and (G^-1)_kk <= prod_{j != k} g_jj / det G
    (Hadamard, det G = D_r); past 8 bytes that bound on the reduced x_l, with
    b_l^2 = sum_i w_i M_li^2 / N, gives |v_k| <= sum_l |b_lk| |x_l|, and s is
    not rounded up to a power of two.  If v and w first differ at k, the rest
    of pack(v) - pack(w) is below 2^(s-1) sum_{t < r-1-k} 2^(st) < 2^(s (r-1-k)),
    so integer order is lexicographic order.  A hit is kept as
    h = pack(v) + bias, bias 2^(s-1) in each field: field k of h is
    v_k + 2^(s-1), in [0, 2^s) with no carry, and -v is 2 bias - h.  The half
    tree's hits are sorted; their negations, in the same order, descend
    strictly, so the list with them appended is two runs, which `list.sort`
    merges in linear time.  Flipping the top bit of each field leaves v_k in
    s-bit two's complement for `struct`; past 8 bytes each field of the sorted
    half is read by `int.from_bytes`, less 2^(s-1), and the half is negated as
    tuples, whose negations descend strictly too.
    """
    if target_norm <= 0:
        raise ValueError("target norm must be positive")
    try:
        minors, numer, basis = lll_reduce_gram(n.gram)
    except ValueError:
        raise ValueError("short-vector enumeration needs a positive definite lattice") from None
    rank = n.rank
    if rank == 0:
        return ShortVectorReport(n, target_norm, ())
    denominators = list(map(mul, minors, minors[1:]))
    scale = lcm(*denominators)
    weights = [scale // q for q in denominators]
    budget = scale * target_norm
    diagonal = [row[k] for k, row in enumerate(n.gram._entries)]
    bound = isqrt(target_norm * (prod(diagonal) // min(diagonal)) // minors[rank])  # >= every |v_k|
    if bound >> 62:  # a skewed basis: bound v = sum_l x_l basis[l] with the reduced Gram instead
        diagonal = [sum(map(mul, weights, map(mul, row, row))) // scale for row in numer]  # b_l^2
        xs = [isqrt(target_norm * (prod(diagonal) // g) // minors[rank]) for g in diagonal]
        bound = min(bound, max(sum(abs(b[k]) * x for b, x in zip(basis, xs)) for k in range(rank)))
    width = (bound.bit_length() + 9) // 8  # bytes per field: 1, 2, 4 or 8, else as many as it takes
    width = width if width > 8 else 1 << (width - 1).bit_length()
    powers = [1 << 8 * width * k for k in range(rank - 1, -1, -1)]  # pack(v) = sum_k v_k powers[k]
    bias = sum(powers) << 8 * width - 1  # each hit is stored as pack(v) + bias
    if rank == 1:  # a phantom level 1 whose weight exceeds the budget admits only x_1 = 0
        minors.append(1)
        weights.append(budget + 1)
        numer.append([0, 1])
        basis.append([0])
    packed = [sum(map(mul, b, powers)) for b in basis]
    weight0, pivot0, packed0, weight1, pivot1, packed1, m10 = (
        weights[0], minors[1], packed[0], weights[1], minors[2], packed[1], numer[1][0])
    # the node with every x_i, i >= 2, zero (the whole tree at rank <= 2): x_1 >= 0, and y_0 > 0 if x_1 = 0
    top = isqrt(budget // weight1) // pivot1
    nodes = top + 1
    found: list[int] = []  # one of each +-v
    for x in range(top + 1):
        y = pivot1 * x
        rest = budget - weight1 * y * y
        root0 = isqrt(rest // weight0)
        if weight0 * root0 * root0 == rest:
            for y0 in (root0, -root0) if root0 and x else (root0,):
                x0, r = divmod(y0 - x * m10, pivot0)
                if r == 0:
                    found.append(bias + x * packed1 + x0 * packed0)
    # (rem, r_1): (the count of x_1, the offsets by u mod D_1)
    plane: dict[tuple[int, int], tuple[int, dict[int, list[int]]]] = {}
    stack = [(rank - 1, budget, [0] * rank, bias, False)] if rank > 2 else []
    while stack:
        # a node at level i >= 2: centers[l] is C_l for l <= i (y_{i+1} may follow); image is
        # bias + pack(sum x_l basis[l]) over the x_l chosen so far; signed: some chosen x_l is
        # nonzero, so x_i may be negative (else C_i == 0 and x_i >= 0)
        i, remaining, centers, image, signed = stack.pop()
        center, pivot, weight, row, step = centers[i], minors[i + 1], weights[i], numer[i], packed[i]
        root = isqrt(remaining // weight)
        lo, hi = -((root + center) // pivot) if signed else 0, (root - center) // pivot
        nodes += hi - lo + 1
        if i > 2:
            for x in range(lo, hi + 1):
                y = pivot * x + center
                stack.append((i - 1, remaining - weight * y * y, [c + x * m for c, m in zip(centers, row)],
                              image + x * step, signed or x > 0))
            continue
        c0, c1, m0, m1 = centers[0], centers[1], row[0], row[1]
        for x in range(lo if signed else 1, hi + 1):  # unsigned, x_2 = 0 is the node closed above
            y = pivot * x + center
            rem = remaining - weight * y * y
            k, r1 = divmod(c1 + x * m1, pivot1)
            entry = plane.get((rem, r1))
            if entry is None:  # every (z, y_0) with w_1 (D_2 z + r_1)^2 + w_0 y_0^2 == rem
                root = isqrt(rem // weight1)
                groups: dict[int, list[int]] = {}
                for z in range(-((root + r1) // pivot1), (root - r1) // pivot1 + 1):
                    y1 = pivot1 * z + r1
                    rest = rem - weight1 * y1 * y1
                    root0 = isqrt(rest // weight0)
                    if weight0 * root0 * root0 == rest:
                        for y0 in (root0, -root0) if root0 else (0,):
                            q, r = divmod(y0 - z * m10, pivot0)
                            groups.setdefault(r, []).append(z * packed1 + q * packed0)
                entry = plane[rem, r1] = (root - r1) // pivot1 + (root + r1) // pivot1 + 1, groups
            nodes += entry[0]
            q, r = divmod(c0 + x * m0 - k * m10, pivot0)
            hits = entry[1].get(r)
            if hits:
                base = image + x * step - k * packed1 - q * packed0
                found += [base + h for h in hits]
    found.sort()
    size = rank * width
    if width > 8:  # field k of a hit's bytes is v_k + 2^(s-1), unsigned
        raw = b"".join([h.to_bytes(size, "big") for h in found])
        fields = map(int.from_bytes, map(itemgetter(0), iter_unpack(f">{width}s", raw)), repeat("big"))
        found = list(zip(*[map(sub, fields, repeat(1 << 8 * width - 1))] * rank))
        found += [tuple(map(neg, v)) for v in found]
        found.sort()
        return ShortVectorReport(n, target_norm, tuple(found), nodes)
    twice = 2 * bias
    found += [twice - h for h in found]
    found.sort()
    raw = bytearray(b"".join([h.to_bytes(size, "big") for h in found]))
    del found  # the ints go before the tuples are built
    raw[::width] = raw[::width].translate(_FLIP)  # the top byte of each field
    vectors = tuple(iter_unpack(">" + "bhiq"[width.bit_length() - 1] * rank, raw))
    return ShortVectorReport(n, target_norm, vectors, nodes)


def minus_two_walls_through(n: Lattice, v: Sequence[int]) -> list[Vector]:
    """All w with w^2 = -2 and w.v = 0, for v of positive square, sorted.

    v-perp is negative definite under the Hodge-index signature, which makes
    the wall hunt a finite enumeration (see `_walls`).
    """
    _require_hyperbolic(n)
    v = tuple(v)
    if n.norm(v) <= 0:
        raise ValueError("wall test needs v with positive square")
    return _walls(n, v)


def _walls(n: Lattice, v: Vector) -> list[Vector]:
    """The wall test for a hyperbolic n and v^2 > 0, both checked by the caller.

    With u = G v, the majorant 2 (w.u)^2 - v^2 w^2 (Gram 2 u u^T - v^2 G) is
    a^2 v^4 - v^2 p^2 > 0 for w = a v + p, p in v-perp, and -v^2 w^2 on w.u = 0:
    its norm-2v^2 vectors with w.u = 0 are the walls, already sorted.
    """
    u = n.gram.apply(v)
    vv = sum(a * b for a, b in zip(v, u))
    majorant = IntMatrix._trusted(tuple(tuple([2 * a * b - vv * g for b, g in zip(u, row)])
                                        for a, row in zip(u, n.gram.tolists())), n.rank)
    hits = short_vectors(Lattice(n.rank, majorant), 2 * vv).vectors
    return [w for w in hits if not sum(a * b for a, b in zip(w, u))]


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
    candidates: int = 0  # box vectors with 0 < v^2 <= searched_norm_limit
    walls_tested: int = 0  # candidates decided, the hit's own included
    wall_searches: int = 0  # `_walls` enumerations run; the rest met a known wall
    box_nodes: int = 0  # prefixes the box walk expanded; the rest were pruned


def _box_candidates(n: Lattice, norm_limit: int, coeff_box: int) -> tuple[list[tuple[int, Vector]], int]:
    """All (v^2, v) with |coordinates| <= coeff_box and 0 < v^2 <= norm_limit,
    in candidate order: by v^2, then componentwise with nonnegative entries
    ranked before negative ones of the same magnitude; and the count of
    prefixes the walk expanded.

    One depth-first walk over the box carries the square q of the prefix and
    s_j = (G prefix)_j for the coordinates j not yet fixed, so a child costs
    O(rank) and a leaf O(1): q + 2 s_last t + g_ll t^2, the last term from a
    table.  Each coordinate runs 0, 1, ..., B, -1, ..., -B, the componentwise
    order, so the walk meets vectors in that order and each norm shell,
    filled by appending, is already sorted.  Pruning: with coordinates 0..i
    fixed, v^2 - q = sum_{j>i} (2 s_j t_j + g_jj t_j^2) + 2 sum_{i<j<k} g_jk t_j t_k
    lies in [lo_i - R, hi_i + R], R = 2B sum_{j>i} |s_j|, because each term is
    bounded over |t| <= B: hi_i = sum_{j>i} (max(g_jj, 0) B^2 + 2B^2 sum_{k>j} |g_jk|),
    lo_i the same with min(g_jj, 0) and the cross terms subtracted.  A child
    with q + hi_i + R <= 0 or q + lo_i - R > norm_limit has no leaf in range
    and is skipped, so the leaves kept keep their order.
    """
    gram = n.gram.tolists()
    last, box = n.rank - 1, coeff_box
    order = list(range(box + 1)) + list(range(-1, -box - 1, -1))
    leaf = [(t, gram[last][last] * t * t) for t in order]
    if not last:  # rank 1: the root is the leaf level, and the stable sort keeps t before -t
        return sorted([(gt, (t,)) for t, gt in leaf if 0 < gt <= norm_limit], key=lambda c: c[0]), 1
    hi, lo = [0] * (last + 2), [0] * (last + 2)  # at j: the bounds over the coordinates >= j
    for j in range(last, -1, -1):
        cross = 2 * box * box * sum(map(abs, gram[j][j + 1:]))
        hi[j] = hi[j + 1] + max(gram[j][j], 0) * box * box + cross
        lo[j] = lo[j + 1] + min(gram[j][j], 0) * box * box - cross
    shells: dict[int, list[tuple[int, Vector]]] = {}  # keyed by v^2: norm_limit may be huge
    nodes = 1  # the root

    def above_leaves(prefix: Vector, q: int, s: list[int]) -> None:  # s = [s_i, s_last], i = last - 1
        nonlocal nodes
        (si, s_last), up, down = s, hi[last], lo[last]
        gii, g = gram[last - 1][last - 1], gram[last - 1][last]
        for t in order:
            qt, st = q + t * (2 * si + gii * t), s_last + t * g
            reach = 2 * box * abs(st)
            if qt + up + reach <= 0 or qt + down - reach > norm_limit:
                continue
            nodes += 1
            p, s2 = prefix + (t,), 2 * st
            for u, gu in leaf:
                norm = qt + s2 * u + gu
                if 0 < norm <= norm_limit:
                    shells.setdefault(norm, []).append((norm, p + (u,)))

    def walk(prefix: Vector, q: int, s: list[int]) -> None:  # s_j for j >= i = len(prefix)
        nonlocal nodes
        i = len(prefix)
        gii, si, column, up, down = gram[i][i], 2 * s[0], gram[i][i + 1:], hi[i + 1], lo[i + 1]
        rest, child = s[1:], above_leaves if i + 2 == last else walk
        for t in order:
            qt = q + t * (si + gii * t)
            st = [a + t * b for a, b in zip(rest, column)]
            reach = 2 * box * sum(map(abs, st))
            if qt + up + reach <= 0 or qt + down - reach > norm_limit:
                continue
            nodes += 1
            child(prefix + (t,), qt, st)

    (walk if last > 1 else above_leaves)((), 0, [0] * n.rank)
    walk = None  # it refers to itself: free the walk now, not at the next gc pass
    return [item for norm in sorted(shells) for item in shells[norm]], nodes


def min_polarization_degree(n: Lattice, norm_limit: int = 20,
                            coeff_box: int = 10) -> PolarizationSearchResult:
    """Smallest v^2 over box candidates passing the wall test.

    Scans every v with |coordinates| <= coeff_box and 0 < v^2 <= norm_limit
    shell by shell in increasing v^2, each shell in componentwise order
    (nonnegative entries before negative ones of the same magnitude), and
    returns the first member of the cone, a certified upper bound for the
    true minimal degree.  Exhaustive only in rank 1, where the generator
    settles the question.  The lattice is checked to be hyperbolic once;
    every candidate has v^2 > 0, so the scan runs the wall test directly,
    sequentially.  Each wall found on the way is kept as G w, one of each
    +-w pair, and a candidate orthogonal to a kept wall is rejected by that
    dot product alone; only the others run `_walls`, so the accepted
    candidate still passes the full enumeration.  `candidates` counts the
    box vectors in range, `walls_tested` the candidates decided, the hit's
    own included, `wall_searches` the `_walls` enumerations run and
    `box_nodes` the prefixes the pruned box walk expanded.
    """
    _require_hyperbolic(n)
    if norm_limit <= 0 or coeff_box <= 0:
        raise ValueError("limits must be positive")
    candidates, nodes = _box_candidates(n, norm_limit, coeff_box)
    degree = certificate = None
    tested = searches = 0
    known: list[Vector] = []  # G w for the walls w found so far
    for q, vec in candidates:
        tested += 1
        if any(not sum(map(mul, gw, vec)) for gw in known):
            continue
        searches += 1
        walls = _walls(n, vec)
        if not walls:
            degree, certificate = q, vec
            break
        # walls is sorted and closed under negation, so its upper half holds one
        # of each +-w pair; none is kept yet, or vec would have been rejected
        known.extend(n.gram.apply(w) for w in walls[len(walls) // 2:])
    return PolarizationSearchResult(n, degree, certificate, norm_limit, coeff_box, n.rank == 1,
                                    len(candidates), tested, searches, nodes)


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
