"""Independent brute-force oracles shared by the unit and acceptance suites."""

from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from operator import mul

from k3lattices.clifford import (
    CliffordAlgebra,
    CliffordElement,
    EndoMatrix,
    left_mul_matrix,
    reversal,
    trace_of_left_mul,
)
from k3lattices.lattices import Isometry, Lattice, discriminant_group, orthogonal_complement, sublattice_embedding
from k3lattices.linalg import (
    IntMatrix,
    RatMatrix,
    det_exact,
    lll_reduce_gram,
    smith_normal_form,
)
from k3lattices.roots import short_vectors


def fraction_inverse(m: IntMatrix) -> list[list[Fraction]]:
    """m^-1 by textbook Gauss-Jordan over Q on [m | I]: the first nonzero
    pivot at or below the diagonal, its row divided by it, and its column
    cleared in every other row."""
    n = m.rows
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m.tolists())]
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            raise ValueError("matrix is singular")
        a[k], a[p] = a[p], a[k]
        pivot = a[k][k]
        a[k] = [x / pivot for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                factor = a[i][k]
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def box_oracle(lat: Lattice, norm: int) -> set:
    """Naive complete enumeration: |x_i| <= sqrt(norm * (G^-1)_ii) by
    Cauchy-Schwarz against the dual basis vectors.  Vectorized with int64
    numpy (entries stay tiny, so the arithmetic is exact)."""
    import numpy as np

    inv = fraction_inverse(lat.gram)
    bounds = []
    for i in range(lat.rank):
        b2 = norm * inv[i][i]
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


def short_vectors_full_tree(n: Lattice, target_norm: int) -> tuple[tuple, int]:
    """(vectors, nodes) from the same integral LLL and fraction-free
    Fincke-Pohst as `short_vectors`, but walking the whole tree: both of each
    +-v, every coordinate in its full range, and a call with its own centres
    and image for every node down to x_0.  nodes counts the x_i tried for
    i >= 1, the same count as `ShortVectorReport.nodes`."""
    if target_norm <= 0:
        raise ValueError("target norm must be positive")
    minors, numer, basis = lll_reduce_gram(n.gram)
    rank = n.rank
    if rank == 0:
        return (), 0
    denominators = [minors[i] * minors[i + 1] for i in range(rank)]
    scale = lcm(*denominators)
    weights = [scale // q for q in denominators]
    found = []
    nodes = 0

    def descend(i: int, remaining: int, centers: list[int], image: list[int]) -> None:
        # centers[l] is C_l for l <= i; image is sum x_l basis[l] over the x_l chosen so far
        nonlocal nodes
        center, pivot, weight = centers[i], minors[i + 1], weights[i]
        root = isqrt(remaining // weight)
        if i == 0:
            # x_0, the last coordinate visited, must use up the budget: w_0 y^2 == remaining
            if weight * root * root != remaining:
                return
            for y in (root, -root) if root else (0,):
                x, r = divmod(y - center, pivot)
                if r == 0:  # built from a list, so the kept tuple has its exact size
                    found.append(tuple([a + x * b for a, b in zip(image, basis[0])]))
            return
        row, vector = numer[i], basis[i]
        nodes += (root - center) // pivot + (root + center) // pivot + 1
        for x in range(-((root + center) // pivot), (root - center) // pivot + 1):
            y = pivot * x + center
            descend(i - 1, remaining - weight * y * y,
                    [c + x * m for c, m in zip(centers, row)],
                    [a + x * b for a, b in zip(image, vector)])

    descend(rank - 1, scale * target_norm, [0] * rank, [0] * rank)
    found.sort()
    return tuple(found), nodes


def matmul_oracle(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Naive triple sum: entry (i, j) is the sum over k of a[i, k] * b[k, j]."""
    return IntMatrix([[sum(a[i, k] * b[k, j] for k in range(a.cols)) for j in range(b.cols)]
                      for i in range(a.rows)], cols=b.cols)


def candidate_key(norm: int, vec: tuple):
    """Candidate order of the mindeg scan: by square, then componentwise with
    nonnegative entries ranked before negative ones of the same magnitude."""
    return (norm, tuple((0, x) if x >= 0 else (1, -x) for x in vec))


def box_candidates_oracle(lat: Lattice, norm_limit: int, coeff_box: int) -> list:
    """Every (v^2, v) in the coefficient box with 0 < v^2 <= norm_limit, each
    square by `Lattice.norm`, the whole list sorted by `candidate_key`."""
    out = []
    for vec in product(range(-coeff_box, coeff_box + 1), repeat=lat.rank):
        q = lat.norm(vec)
        if 0 < q <= norm_limit:
            out.append((q, vec))
    out.sort(key=lambda item: candidate_key(*item))
    return out


def walls_by_complement_oracle(lat: Lattice, v: tuple) -> list:
    """Sorted (-2)-vectors orthogonal to v, through the Smith-form complement
    of the rank-1 sublattice spanned by v."""
    if lat.rank == 1:
        return []
    perp = orthogonal_complement(sublattice_embedding(lat, [v]))
    flipped = Lattice(perp.source.rank, -perp.source.gram)
    return sorted(perp.matrix.apply(x) for x in short_vectors(flipped, 2).vectors)


def rank2_reduced_oracle(max_disc: int) -> set:
    """Dumb scan of the reduced binary domain over a generous box."""
    hits = set()
    for a in range(1, 2 * max_disc + 1):
        for b in range(0, max_disc + 1):
            for c in range(1, 2 * max_disc + 1):
                if 0 <= 2 * b <= a <= c and 1 <= a * c - b * b <= max_disc:
                    hits.add(((a, b), (b, c)))
    return hits


def rank3_reduced_oracle(max_disc: int) -> set:
    """Brute force over the Seeber box: a <= b <= c with a*b*c <= 2*max_disc,
    every t, s in [-a/2, a/2] and r in [-b/2, b/2], each c tried on its own.
    A Gram [[a, t, s], [t, b, r], [s, r, c]] is kept when its off-diagonal
    triple is all positive or all nonpositive, a + b + 2(r + s + t) >= 0, and
    it is positive definite with 1 <= det <= max_disc: the leading minors
    a and ab - t^2 are positive, and det is the cofactor expansion along the
    first row."""
    hits = set()
    box = 2 * max_disc
    for a in range(1, box + 1):
        for b in range(a, box // a + 1):
            for c in range(b, box // (a * b) + 1):
                for t, s, r in product(range(-(a // 2), a // 2 + 1), range(-(a // 2), a // 2 + 1),
                                       range(-(b // 2), b // 2 + 1)):
                    offs = (r, s, t)
                    if not (all(x > 0 for x in offs) or all(x <= 0 for x in offs)):
                        continue
                    if a + b + 2 * (r + s + t) < 0:
                        continue
                    det = a * (b * c - r * r) - t * (t * c - r * s) + s * (t * r - b * s)
                    if a * b - t * t > 0 and 1 <= det <= max_disc:
                        hits.add(((a, t, s), (t, b, r), (s, r, c)))
    return hits


def discriminant_lifts_by_inverse(lat: Lattice) -> tuple:
    """Generator lifts of the discriminant group as G^-1 u^-1 e_i, one for
    each invariant factor d_i > 1 of u G v = d, with both inverses taken by
    `fraction_inverse`, not read off v."""
    snf = smith_normal_form(lat.gram)
    ginv = fraction_inverse(lat.gram)
    uinv = fraction_inverse(snf.u)
    return tuple(tuple(sum(map(mul, grow, [row[i] for row in uinv])) for grow in ginv)
                 for i in range(lat.rank) if snf.d[i, i] > 1)


def det_by_bareiss(m: IntMatrix) -> int:
    """Determinant by one Bareiss pass over the whole matrix, with no split
    into blocks: a zero pivot is swapped with the first nonzero entry below
    it, and each swap flips the sign."""
    n = m.rows
    if n == 0:
        return 1
    a = m.tolists()
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def disc_kernel_by_fractions(g: Isometry) -> bool:
    """Whether g fixes every discriminant class, with g gen - gen computed in
    Fractions for each rational generator lift and tested for integrality."""
    grat = RatMatrix.from_int(g.matrix)
    for gen in discriminant_group(g.lattice).generators:
        if any((x - y).denominator != 1 for x, y in zip(grat.apply(gen), gen)):
            return False
    return True


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


def mono_trace_by_module_loop(host: Lattice, mask: int) -> int:
    """Trace of left multiplication by e_mask on the 2^n left-regular module,
    summed over the basis: the e_m-coefficient of e_mask * e_m for every m."""
    e = CliffordElement(host, {mask: 1})
    return sum((e * CliffordElement(host, {m: 1})).coeffs.get(m, 0) for m in range(1 << host.rank))


def phi_gram_oracle(a: CliffordElement, traces: dict | None = None) -> IntMatrix:
    """phi_a(e_I, e_J) = Tr(reversal(e_I) e_J a) entry by entry, each trace
    by the module loop; `traces` memoizes the monomial traces of one host."""
    host = a.host
    traces = {} if traces is None else traces

    def trace(x):
        for m in x.coeffs:
            if m not in traces:
                traces[m] = mono_trace_by_module_loop(host, m)
        return sum(c * traces[m] for m, c in x.coeffs.items())

    basis = [CliffordElement(host, {m: 1}) for m in range(1 << host.rank)]
    rev = [reversal(b) for b in basis]
    return IntMatrix([[trace(r * b * a) for b in basis] for r in rev])


def phi_a_oracle(x: CliffordElement, y: CliffordElement, a: CliffordElement) -> int:
    """Tr(reversal(x) * y * a): x reversed by remultiplication, two full
    products, and the closed-form trace of the result."""
    return trace_of_left_mul(reversal(x) * y * a)


def gen_by_anticommutation(gram: IntMatrix, mask: int, j: int) -> dict[int, int]:
    """e_mask * e_j by recursion on the top index of mask, with no table:
    e_top e_j = 2 b(top, j) - e_j e_top, and every monomial of e_rest e_j has
    indices below top.  Zero coefficients are dropped at every level."""
    top = mask.bit_length() - 1
    if top < j:
        out = {mask | 1 << j: 1}
    elif top == j:
        out = {mask ^ 1 << j: gram[j, j]}
    else:
        rest = mask ^ 1 << top
        out = {rest: 2 * gram[j, top]}
        out.update((m | 1 << top, -c) for m, c in gen_by_anticommutation(gram, rest, j).items())
    return {m: c for m, c in out.items() if c}


def trace_form_by_full_recurrence(host: Lattice) -> list[list[int]]:
    """B'[I][K] = Tr(reversal(e_I) e_K) by the row recurrence, every entry
    summed over the terms of `gen_by_anticommutation`, the entries that
    parity forces to 0 included; only the Pfaffians of the first row come
    from a fresh `CliffordAlgebra`."""
    alg = CliffordAlgebra(host.gram)
    dim = 1 << host.rank
    rows = [[dim * alg.tau(k) for k in range(dim)]]
    for mask in range(1, dim):
        i = mask.bit_length() - 1
        prev = rows[mask ^ 1 << i]
        rows.append([sum(c * prev[m] for m, c in gen_by_anticommutation(host.gram, k, i).items())
                     for k in range(dim)])
    return rows


def project_endo_by_dense_loop(f: EndoMatrix, host: Lattice) -> tuple[int, ...]:
    """c_i = Tr(f . L_{e_i dual}) / 2^n, with L a dense `left_mul_matrix` of
    each dual vector and the trace summed over all 4^n products f[r,k] L[k,r];
    the same AssertionError when a quotient is not exact."""
    dim = 1 << host.rank
    ginv = fraction_inverse(host.gram)
    if any(x.denominator != 1 for row in ginv for x in row):
        raise ValueError("host lattice is not unimodular")
    coords = []
    for i in range(host.rank):
        dual = [int(row[i]) for row in ginv]
        l_cols = left_mul_matrix(CliffordElement.from_vector(host, dual)).entries.transpose()
        tr = sum(sum(map(mul, f.entries.row(r), l_cols.row(r))) for r in range(dim))
        if tr % dim != 0:
            raise AssertionError(f"trace quotient not divisible by 2^n for dual vector {i}: {tr}")
        coords.append(tr // dim)
    return tuple(coords)


POLARIZATION_COEFFS = (1, -1, 2, -2)


def anti_fixed_basis(host: Lattice) -> list:
    """Primitive spanning elements of the -1 eigenspace of the reversal:
    e_S - reversal(e_S) over its content for every mask S != 0, by |S| and
    then S, skipping 0 and one of each pair +-w."""
    out, seen = [], set()
    for mask in sorted(range(1, 1 << host.rank), key=lambda m: (bin(m).count("1"), m)):
        e_s = CliffordElement(host, {mask: 1})
        w = e_s - reversal(e_s)
        if not w.is_zero():
            g = w.content()
            key = tuple(sorted((m, c // g) for m, c in w.coeffs.items()))
            if key not in seen:
                seen.update((key, tuple((m, -c) for m, c in key)))
                out.append(CliffordElement(host, dict(key)))
    return out


def polarization_candidates(host: Lattice, max_support: int = 2):
    """(anti-fixed basis, candidates) in the order `find_polarization_element`
    counts them: each basis element times each coefficient, then the sums of
    two of them."""
    basis = anti_fixed_basis(host)
    candidates = [w.scale(c) for w in basis for c in POLARIZATION_COEFFS]
    if max_support >= 2:
        candidates += [basis[i].scale(ci) + basis[j].scale(cj)
                       for i in range(len(basis)) for j in range(i + 1, len(basis))
                       for ci in POLARIZATION_COEFFS for cj in POLARIZATION_COEFFS]
    return basis, candidates


def find_polarization_oracle(host: Lattice, max_support: int = 2):
    """(element, phi-Gram, candidates tried) of the first candidate whose
    full phi-Gram is alternating with det_exact != 0, over the candidate
    order of `find_polarization_element`; the same ValueError if none.
    phi_a is linear in a, so each Gram is summed from the `phi_gram_oracle`
    Grams of the monomials of a, each built once per host."""
    basis, candidates = polarization_candidates(host, max_support)
    traces: dict = {}
    mono: dict = {}
    dim = 1 << host.rank
    for tried, a in enumerate(candidates, 1):
        for m in a.coeffs:
            if m not in mono:
                mono[m] = phi_gram_oracle(CliffordElement(host, {m: 1}), traces)
        g = IntMatrix([[sum(c * mono[m][i, j] for m, c in a.coeffs.items()) for j in range(dim)]
                       for i in range(dim)])
        if all(g[i, j] == -g[j, i] for i in range(g.rows) for j in range(i + 1)) and det_exact(g) != 0:
            return a, g, tried
    raise ValueError(
        f"no polarization element found: searched {len(candidates)} candidates over "
        f"{len(basis)} anti-fixed basis elements with support <= {max_support}, "
        f"coefficients in {POLARIZATION_COEFFS}")


def encode_ints_oracle(obj, raw_ints: bool):
    """The payload rebuilt with every int above 2^53 in magnitude as its
    decimal string (unless raw_ints), tuples as lists, and everything else
    as it is: one Python call per value, before `json.dumps` runs."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        if not raw_ints and abs(obj) > 1 << 53:
            return str(obj)
        return obj
    if isinstance(obj, (list, tuple)):
        return [encode_ints_oracle(x, raw_ints) for x in obj]
    if isinstance(obj, dict):
        return {k: encode_ints_oracle(v, raw_ints) for k, v in obj.items()}
    return obj
