import gc
import random
from itertools import product
from math import isqrt, lcm
from struct import iter_unpack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import box_candidates_oracle, box_oracle, short_vectors_full_tree, walls_by_complement_oracle
from k3lattices import lattices, linalg, roots
from k3lattices.lattices import (
    Lattice,
    direct_sum,
    e8,
    hyperbolic_u,
    rank_one,
    reflection,
)
from k3lattices.linalg import IntMatrix, content
from k3lattices.roots import (
    _box_candidates,
    _walls,
    in_cn,
    min_polarization_degree,
    minus_two_walls_through,
    short_vectors,
    verify_certificate,
)


def random_posdef(rng, rank):
    b = IntMatrix([[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)])
    g = b @ b.transpose() + IntMatrix.diagonal([rng.randint(1, 3) for _ in range(rank)])
    return Lattice(rank, g)


def test_short_vectors_i2_norm1():
    lat = direct_sum(rank_one(1), rank_one(1))
    report = short_vectors(lat, 1)
    assert set(report.vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_short_vectors_e8_240_roots():
    report = short_vectors(e8(), 2)
    assert report.count() == 240
    assert set(report.vectors) == box_oracle(e8(), 2)


def test_short_vectors_parity_empty():
    assert short_vectors(rank_one(2), 3).count() == 0


def test_short_vectors_negation_closed():
    rng = random.Random(7)
    for _ in range(10):
        lat = random_posdef(rng, rng.randint(1, 3))
        for norm in (1, 2, 4):
            vs = set(short_vectors(lat, norm).vectors)
            assert {tuple(-x for x in v) for v in vs} == vs
            assert len(vs) % 2 == 0


def random_column_moves(rng, n, moves):
    """A unimodular U, as a list of rows, from elementary moves column j += c * column i."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for row in u:
            row[j] += c * row[i]
    return u


def test_short_vectors_vs_oracle_random():
    rng = random.Random(9)
    for _ in range(25):
        lat = random_posdef(rng, rng.randint(1, 4))
        norm = rng.randint(1, 12)
        assert set(short_vectors(lat, norm).vectors) == box_oracle(lat, norm)


def test_short_vectors_skewed_vs_oracle():
    rng = random.Random(19)
    for _ in range(25):
        lat = random_posdef(rng, rng.randint(1, 4))
        u = IntMatrix(random_column_moves(rng, lat.rank, 6))
        skewed = Lattice(lat.rank, u.transpose() @ lat.gram @ u)
        norm = rng.randint(1, 12)
        vectors = short_vectors(skewed, norm).vectors
        assert list(vectors) == sorted(set(vectors))
        assert set(vectors) == box_oracle(skewed, norm)


def test_short_vectors_skewed_e8_maps_to_dynkin_roots():
    dynkin = set(short_vectors(e8(), 2).vectors)
    for seed in (1, 2, 3, 4):
        u = IntMatrix(random_column_moves(random.Random(seed), 8, 60))
        skewed = Lattice(8, u.transpose() @ e8().gram @ u)
        assert max(abs(x) for row in skewed.gram.tolists() for x in row) > 100
        vectors = short_vectors(skewed, 2).vectors
        assert len(vectors) == 240
        assert {u.apply(x) for x in vectors} == dynkin


def test_short_vectors_matches_full_tree_oracle():
    # the half tree returns exactly the full tree's tuple: same order, each vector once
    rng = random.Random(31)
    cases = [(e8(), norm) for norm in (2, 3, 4, 5, 6)] + [(rank_one(2), 3), (rank_one(3), 27)]
    for _ in range(40):
        lat = random_posdef(rng, rng.randint(1, 6))
        if rng.random() < 0.5:
            u = IntMatrix(random_column_moves(rng, lat.rank, 8))
            lat = Lattice(lat.rank, u.transpose() @ lat.gram @ u)
        cases.append((lat, rng.randint(1, 10)))
    empty = 0
    for lat, norm in cases:
        vectors = short_vectors(lat, norm).vectors
        assert vectors == short_vectors_full_tree(lat, norm)[0]
        assert len(set(vectors)) == len(vectors)
        empty += not vectors
    assert 3 <= empty < len(cases)


def test_short_vectors_half_tree_nodes():
    # one of each +-v: the full tree's coordinate values are twice the half
    # tree's, less one for the x_i = 0 that the chain of all-zero nodes shares
    # at each level i >= 1; pinned so that losing the half tree fails here
    # rather than only in a timing run
    cases = ((e8(), 2, 253, 499), (e8(), 4, 1574, 3141), (e8(), 6, 4776, 9545),
             (direct_sum(e8(), e8()), 2, 1467, 2919))
    for lat, norm, nodes, full in cases:
        report = short_vectors(lat, norm)
        assert report.nodes == nodes
        assert short_vectors_full_tree(lat, norm) == (report.vectors, full)
        assert full == 2 * nodes - (lat.rank - 1)


def cartan_a(n, shift=0):
    """The Cartan matrix of A_n plus shift times the identity."""
    return Lattice(n, IntMatrix([[2 + shift if i == j else -(abs(i - j) == 1) for j in range(n)] for i in range(n)]))


def skewed(lat, seed, moves=10):
    u = IntMatrix(random_column_moves(random.Random(seed), lat.rank, moves))
    return Lattice(lat.rank, u.transpose() @ lat.gram @ u)


def level_two_keys(lat, norm):
    """(D_1, D_2) and the (rem, r_1, k) of every x_2 of the half tree that the
    level-2 table of `short_vectors` serves, from LLL's data and a plain walk
    of the full tree over the levels >= 2: rem is the budget that x_2 leaves
    and C_1 = D_2 k + r_1 the centre of x_1."""
    minors, numer, _ = linalg.lll_reduce_gram(lat.gram)
    denominators = [minors[i] * minors[i + 1] for i in range(lat.rank)]
    scale = lcm(*denominators)
    weights = [scale // q for q in denominators]
    keys = []

    def walk(i, remaining, centers, xs):
        root, pivot, center = isqrt(remaining // weights[i]), minors[i + 1], centers[i]
        for x in range(-((root + center) // pivot), (root - center) // pivot + 1):
            y = pivot * x + center
            below = [c + x * m for c, m in zip(centers, numer[i][:i])]
            if i > 2:
                walk(i - 1, remaining - weights[i] * y * y, below, xs + (x,))
            elif next((v for v in xs + (x,) if v), 0) > 0:  # the half tree: first nonzero from the top positive
                k, r1 = divmod(below[1], minors[2])
                keys.append((remaining - weights[i] * y * y, r1, k))

    walk(lat.rank - 1, scale * norm, [0] * lat.rank, ())
    return minors[1:3], keys


def test_short_vectors_level_two_table_every_residue():
    # skewed bases whose D_1 and D_2 exceed 1 and whose level-2 nodes meet every residue r_1 mod D_2
    for lat, norm in ((skewed(cartan_a(5), 0), 6), (skewed(cartan_a(6, 1), 1), 8), (skewed(e8(), 0, 20), 4)):
        (d1, d2), keys = level_two_keys(lat, norm)
        assert d1 > 1 and d2 > 2 and {r1 for _, r1, _ in keys} == set(range(d2))
        report = short_vectors(lat, norm)
        assert short_vectors_full_tree(lat, norm) == (report.vectors, 2 * report.nodes - (lat.rank - 1))


def test_short_vectors_level_two_table_reused_across_k():
    # in E8's Dynkin basis two level-2 nodes leave the same (rem, r_1) with different k,
    # so one table entry serves both, shifted by its own k
    _, keys = level_two_keys(e8(), 2)
    ks: dict = {}
    for rem, r1, k in keys:
        ks.setdefault((rem, r1), set()).add(k)
    assert len(keys) > len(ks) and any(len(k) > 1 for k in ks.values())
    report = short_vectors(e8(), 2)
    assert short_vectors_full_tree(e8(), 2) == (report.vectors, 2 * report.nodes - 7)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.sampled_from(["random", "cartan", "cartan+1"]), st.integers(0, 2 ** 32),
       st.booleans(), st.integers(1, 8))
def test_short_vectors_matches_full_tree_property(rank, family, seed, skew, norm):
    # ranks 3-7, where level 2 closes levels 1 and 0 from the table
    rng = random.Random(seed)
    lat = random_posdef(rng, rank) if family == "random" else cartan_a(rank, family == "cartan+1")
    if skew:
        lat = skewed(lat, seed)
    report = short_vectors(lat, norm)
    assert short_vectors_full_tree(lat, norm) == (report.vectors, 2 * report.nodes - (rank - 1))


def test_short_vectors_factors_once(monkeypatch):
    calls = []
    original_ldlt, original_matmul = linalg.ldlt, IntMatrix.__matmul__

    def counted_ldlt(gram):
        calls.append("ldlt")
        return original_ldlt(gram)

    def counted_matmul(self, other):
        calls.append("matmul")
        return original_matmul(self, other)

    u = IntMatrix(random_column_moves(random.Random(1), 8, 60))
    skewed = Lattice(8, u.transpose() @ e8().gram @ u)
    monkeypatch.setattr(linalg, "ldlt", counted_ldlt)
    monkeypatch.setattr(IntMatrix, "__matmul__", counted_matmul)
    assert short_vectors(skewed, 2).count() == 240
    assert calls == ["ldlt"]


def chain_skew(lat, c):
    """lat in the basis with column j += c * column j - 1, for j = 1, ..., rank - 1 in turn."""
    u = [[int(i == j) for j in range(lat.rank)] for i in range(lat.rank)]
    for j in range(1, lat.rank):
        for row in u:
            row[j] += c * row[j - 1]
    u = IntMatrix(u)
    return Lattice(lat.rank, u.transpose() @ lat.gram @ u)


def test_short_vectors_every_field_width(monkeypatch):
    # packed hits are decoded by struct at 1, 2, 4 and 8 bytes a field and by
    # int.from_bytes past that; coordinates of 2^62 and more need the wide fields
    formats = []

    def recorded(code, raw):
        formats.append(code[1])
        return iter_unpack(code, raw)

    monkeypatch.setattr(roots, "iter_unpack", recorded)
    rng = random.Random(41)
    cases = [(chain_skew(e8(), c), 2) for c in (0, 16, 2 ** 9, 2 ** 30, 2 ** 60, 2 ** 64, 2 ** 100)]
    cases += [(chain_skew(direct_sum(e8(), e8()), 2 ** 70), 2), (rank_one(3), 27)]
    cases += [(random_posdef(rng, rng.randint(1, 6)), rng.randint(1, 10)) for _ in range(10)]
    wide = 0
    for lat, norm in cases:
        vectors = short_vectors(lat, norm).vectors
        assert vectors == short_vectors_full_tree(lat, norm)[0]
        assert all(a < b for a, b in zip(vectors, vectors[1:]))
        assert set(vectors) == {tuple(-x for x in v) for v in vectors}
        assert all(type(v) is tuple and len(v) == lat.rank and all(type(x) is int for x in v) for v in vectors)
        wide += max((abs(x) for v in vectors for x in v), default=0) >> 62 > 0
    assert set(formats) >= set("bhiq9") and wide >= 3  # ">9s": 2^60 skews E8 to fields of exactly 9 bytes


def test_searches_leave_no_reference_cycles():
    # the recursive closures are dropped before return, so plain reference
    # counting frees every search's working lists
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        short_vectors(e8(), 6)
        assert gc.collect() == 0
        min_polarization_degree(direct_sum(hyperbolic_u(), rank_one(-2)), 20, 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_short_vectors_rejects_indefinite():
    not_definite = [
        hyperbolic_u(),
        Lattice(2, IntMatrix([[1, 0], [0, 0]])),  # <1> + <0>: the second leading minor is 0
        Lattice(8, -e8().gram),
        Lattice(2, IntMatrix([[1, 2], [2, 1]])),  # leading minors 1, -3
    ]
    for lat in not_definite:
        with pytest.raises(ValueError, match="needs a positive definite lattice"):
            short_vectors(lat, 2)


# ---------------------------------------------------------------------------
# walls


def test_walls_u_e_plus_f():
    u = hyperbolic_u()
    walls = minus_two_walls_through(u, (1, 1))
    assert set(walls) == {(1, -1), (-1, 1)}


def test_walls_rank_one_empty():
    assert minus_two_walls_through(rank_one(2), (1,)) == []


def test_walls_u_e_plus_2f_empty():
    assert minus_two_walls_through(hyperbolic_u(), (1, 2)) == []


def test_in_cn_u_examples():
    u = hyperbolic_u()
    assert in_cn(u, (1, 2))
    assert not in_cn(u, (1, 1))
    assert not in_cn(u, (1, -1))  # negative square
    assert in_cn(rank_one(2), (1,))


def test_in_cn_sign_and_isometry_invariance():
    lat = direct_sum(rank_one(2), rank_one(-2))
    s = reflection((0, 1), lat)
    rng = random.Random(13)
    for _ in range(40):
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        if v == (0, 0):
            continue
        flag = in_cn(lat, v)
        assert in_cn(lat, tuple(-x for x in v)) == flag
        assert in_cn(lat, s.apply(v)) == flag


def random_hyperbolic(rng, rank):
    """U(m) + T(-1) for a random positive definite T (or <2d> in rank 1), in a
    basis moved by random column operations."""
    if rank == 1:
        return rank_one(2 * rng.randint(1, 4))
    m = rng.choice((1, 1, 2))
    plane = Lattice(2, IntMatrix([[rng.choice((0, 0, 2, -2)), m], [m, 0]]))
    lat = direct_sum(plane, Lattice(rank - 2, -random_posdef(rng, rank - 2).gram)) if rank > 2 else plane
    u = IntMatrix(random_column_moves(rng, rank, rng.randint(0, 4)))
    return Lattice(rank, u.transpose() @ lat.gram @ u)


def test_walls_match_complement_oracle():
    rng = random.Random(43)
    tested = zeros = multiples = 0
    while tested < 150:
        lat = random_hyperbolic(rng, rng.randint(1, 5))
        v = tuple(rng.choice((0, rng.randint(-5, 5))) * rng.choice((1, 1, 2, 3)) for _ in range(lat.rank))
        if lat.norm(v) <= 0:
            continue
        assert _walls(lat, v) == walls_by_complement_oracle(lat, v)
        tested += 1
        zeros += 0 in v
        multiples += content(v) > 1
    assert zeros > 20 and multiples > 20
    # rank 10 and 18, and near-isotropic v with large entries
    u_e8 = direct_sum(hyperbolic_u(), Lattice(8, -e8().gram))
    cases = [(u_e8, (1, 1) + (0,) * 8), (u_e8, (1, 2) + (0,) * 8), (u_e8, (3, 2, 1, 0, 0, 0, 0, 0, 0, -1)),
             (u_e8, (5, 4, 1, 1, 0, 0, 0, 0, 2, 0)), (u_e8, (40, 1, 0, 0, 0, 0, 0, 0, 0, 1)),
             (direct_sum(u_e8, Lattice(8, -e8().gram)), (1, 1) + (0,) * 16),
             (hyperbolic_u(), (1, 1000)), (hyperbolic_u(), (2, 999)),
             (direct_sum(hyperbolic_u(), rank_one(-2)), (1, 500, 3)),
             (direct_sum(hyperbolic_u(), rank_one(-2)), (1, 2, 1))]
    counts = []
    for lat, v in cases:
        assert lat.norm(v) > 0
        walls = _walls(lat, v)
        assert walls == walls_by_complement_oracle(lat, v)
        counts.append(len(walls))
    assert counts[0] == 242 and counts[5] == 482 and counts[-1] > 0


def test_walls_build_no_complement(monkeypatch):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(IntMatrix, "__matmul__", counted("matmul", IntMatrix.__matmul__))
    monkeypatch.setattr(lattices, "sublattice_embedding", counted("embedding", lattices.sublattice_embedding))
    monkeypatch.setattr(lattices.LatticeEmbedding, "__post_init__",
                        counted("embedding", lattices.LatticeEmbedding.__post_init__))
    monkeypatch.setattr(roots, "short_vectors", counted("short_vectors", roots.short_vectors))
    u_e8 = direct_sum(hyperbolic_u(), Lattice(8, -e8().gram))
    assert len(_walls(u_e8, (1, 1) + (0,) * 8)) == 242
    assert calls == ["short_vectors"]


# ---------------------------------------------------------------------------
# minimal polarization degree


def test_box_candidates_match_oracle():
    rng = random.Random(47)
    lattices = [hyperbolic_u(), direct_sum(rank_one(2), rank_one(-2))]
    lattices += [random_hyperbolic(rng, rank) for rank in (1, 2, 3, 4, 5) for _ in range(5)]
    for lat in lattices:
        assert lat.signature() == (1, lat.rank - 1, 0)
        box = rng.randint(1, 4 if lat.rank < 5 else 3)
        norm_limit = rng.randint(1, 20)
        assert _box_candidates(lat, norm_limit, box)[0] == box_candidates_oracle(lat, norm_limit, box)
    for box in (1, 2, 3, 4):
        assert _box_candidates(hyperbolic_u(), 20, box)[0] == box_candidates_oracle(hyperbolic_u(), 20, box)


def random_symmetric(rng, rank, kind):
    """A symmetric Gram with entries in -3..3 and nonzero off-diagonals: any
    signature ("dense"), definite of either sign, or with one coordinate
    repeating another, so degenerate."""
    off = (-1, 1) if kind == "definite" else (-3, -2, -1, 1, 2, 3)
    while True:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            g[i][i] = rng.randint(-3, 3)
            for j in range(i):
                g[i][j] = g[j][i] = rng.choice(off)
        if kind == "definite":
            sign = rng.choice((1, -1))
            for i in range(rank):
                g[i][i] = 3 * sign
        elif kind == "degenerate" and rank > 1:
            j, k = rng.sample(range(rank), 2)
            for i in range(rank):
                g[k][i] = g[i][k] = g[j][i] if i != k else g[j][j]
        lat = Lattice(rank, IntMatrix(g))
        pos, neg, zero = lat.signature()
        if kind != "definite" or pos == rank or neg == rank:
            return lat


def test_box_candidates_pruned_walk_matches_oracle():
    rng = random.Random(61)
    kinds = {"indefinite": 0, "definite": 0, "degenerate": 0}
    pruned = 0
    for case in range(150):
        rank = rng.randint(1, 5)
        lat = random_symmetric(rng, rank, ("dense", "definite", "degenerate")[case % 3])
        pos, neg, zero = lat.signature()
        kinds["degenerate" if zero else "indefinite" if pos and neg else "definite"] += 1
        box = rng.randint(1, 3 if rank < 5 else 2)
        norm_limit = rng.choice((1, 2, 7, 20, 10**12))
        got, nodes = _box_candidates(lat, norm_limit, box)
        assert got == box_candidates_oracle(lat, norm_limit, box)
        full = sum((2 * box + 1) ** k for k in range(rank))  # the prefixes of the unpruned walk
        assert 1 <= nodes <= full
        pruned += nodes < full
    assert min(kinds.values()) >= 30 and pruned >= 50
    # small Grams of any signature: in 6 of these 300 draws the walk meets a subtree whose
    # bound qt + up + reach is 1 and is attained, by a candidate of v^2 = 1
    rng = random.Random(1)
    for _ in range(300):
        rank = rng.randint(2, 4)
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        lat, box, norm_limit = Lattice(rank, IntMatrix(g)), rng.randint(1, 3), rng.randint(1, 12)
        assert _box_candidates(lat, norm_limit, box)[0] == box_candidates_oracle(lat, norm_limit, box)


def test_mindeg_u_e8_box_two_prunes_the_walk():
    lat = direct_sum(hyperbolic_u(), Lattice(8, -e8().gram))
    res = min_polarization_degree(lat, norm_limit=20, coeff_box=2)
    assert (res.upper_bound, res.certificate) == (None, None)
    assert res.candidates == res.walls_tested == 7208
    assert res.wall_searches == 1
    assert res.box_nodes <= 150_000  # the unpruned walk expanded 2,441,406 prefixes


def brute_min_degree(lat, norm_limit, box):
    best = None
    for vec in product(range(-box, box + 1), repeat=lat.rank):
        q = lat.norm(vec)
        if 0 < q <= norm_limit and in_cn(lat, vec):
            if best is None or q < best:
                best = q
    return best


def test_mindeg_rank_one_exhaustive():
    for d in (1, 4, 20):
        lat = rank_one(2 * d)
        res = min_polarization_degree(lat, norm_limit=2 * d, coeff_box=3)
        assert res.upper_bound == 2 * d
        assert res.exhaustive
        assert res.certificate in ((1,), (-1,))
        assert verify_certificate(lat, res.certificate, 2 * d)


def test_mindeg_u():
    res = min_polarization_degree(hyperbolic_u(), norm_limit=20, coeff_box=10)
    assert res.upper_bound == 4
    assert res.certificate == (1, 2)
    assert not res.exhaustive
    assert verify_certificate(hyperbolic_u(), res.certificate, 4)
    assert res.upper_bound == brute_min_degree(hyperbolic_u(), 20, 10)
    huge = min_polarization_degree(hyperbolic_u(), norm_limit=10**12, coeff_box=3)
    assert (huge.upper_bound, huge.certificate) == (4, (1, 2))


def test_mindeg_2_minus_2():
    lat = direct_sum(rank_one(2), rank_one(-2))
    res = min_polarization_degree(lat, norm_limit=20, coeff_box=10)
    assert res.upper_bound == 6
    assert res.certificate == (2, 1)
    assert verify_certificate(lat, res.certificate, 6)
    assert res.upper_bound == brute_min_degree(lat, 20, 10)


def test_mindeg_monotone_in_limits():
    lat = direct_sum(rank_one(2), rank_one(-2))
    small = min_polarization_degree(lat, norm_limit=6, coeff_box=3)
    large = min_polarization_degree(lat, norm_limit=30, coeff_box=8)
    assert small.upper_bound is not None
    assert large.upper_bound <= small.upper_bound


def test_mindeg_counters_match_oracle():
    cases = [(hyperbolic_u(), 20, 10, 4), (direct_sum(rank_one(2), rank_one(-2)), 20, 10, 6),
             (hyperbolic_u(), 3, 4, None)]  # on U at norm <= 3 only (1,1) and (-1,-1) qualify
    for lat, norm_limit, box, degree in cases:
        res = min_polarization_degree(lat, norm_limit=norm_limit, coeff_box=box)
        oracle = box_candidates_oracle(lat, norm_limit, box)
        hits = [i for i, (_, v) in enumerate(oracle) if not walls_by_complement_oracle(lat, v)]
        assert res.upper_bound == degree
        assert res.candidates == len(oracle)
        if hits:
            assert (res.upper_bound, res.certificate) == oracle[hits[0]]
            assert res.walls_tested == hits[0] + 1
        else:
            assert res.certificate is None
            assert res.walls_tested == res.candidates == 2
        assert res.wall_searches <= res.walls_tested


def u_plus_negative_signed(rng, t):
    """U + T(-1) as the mindeg-scan benchmark builds it: a random signed
    permutation of the T(-1) coordinates and a random swap of the U pair."""
    n = len(t) + 2
    g = [[0] * n for _ in range(n)]
    g[0][1] = g[1][0] = 1
    for i, row in enumerate(t):
        for j, x in enumerate(row):
            g[2 + i][2 + j] = -x
    order = [0, 1] if rng.random() < 0.5 else [1, 0]
    tail = list(range(2, n))
    rng.shuffle(tail)
    order += tail
    signs = [1, 1] + [rng.choice((1, -1)) for _ in range(n - 2)]
    return Lattice(n, IntMatrix([[signs[i] * signs[j] * g[order[i]][order[j]] for j in range(n)]
                                 for i in range(n)]))


def mindeg_without_known_walls(lat, norm_limit, box):
    """The scan with one `_walls` enumeration per candidate and nothing kept."""
    candidates, _ = _box_candidates(lat, norm_limit, box)
    for tested, (q, vec) in enumerate(candidates, 1):
        if not _walls(lat, vec):
            return q, vec, len(candidates), tested
    return None, None, len(candidates), len(candidates)


def test_mindeg_matches_scan_without_known_walls():
    rng = random.Random(53)
    searches = skipped = misses = 0
    while searches < 40:
        r = rng.randint(0, 3)
        t = [[0] * r for _ in range(r)]
        for i in range(r):
            t[i][i] = rng.choice((1, 2, 2, 2, 4, 6))
            for j in range(i):
                t[i][j] = t[j][i] = rng.choice((0, 0, 1, -1))
        if r and Lattice(r, IntMatrix(t)).signature() != (r, 0, 0):
            continue
        lat = u_plus_negative_signed(rng, t)
        norm_limit, box = rng.randint(2, 20), rng.randint(2, 4 if lat.rank < 5 else 3)
        res = min_polarization_degree(lat, norm_limit=norm_limit, coeff_box=box)
        assert (res.upper_bound, res.certificate, res.candidates, res.walls_tested) == \
            mindeg_without_known_walls(lat, norm_limit, box)
        assert (res.searched_norm_limit, res.searched_box, res.exhaustive) == (norm_limit, box, False)
        searches += 1
        skipped += res.wall_searches < res.walls_tested
        misses += res.certificate is None
    assert skipped > 20 and 0 < misses < searches


def test_mindeg_runs_walls_only_for_undecided_candidates(monkeypatch):
    searched = []

    def counted(n, v):
        searched.append(v)
        return _walls(n, v)

    monkeypatch.setattr(roots, "_walls", counted)
    lat = direct_sum(hyperbolic_u(), Lattice(3, IntMatrix([[-1, 0, 0], [0, -3, 1], [0, 1, -3]])))
    res = min_polarization_degree(lat, norm_limit=20, coeff_box=3)
    assert (res.upper_bound, res.certificate) == (3, (1, 2, 1, 0, 0))
    assert len(searched) == res.wall_searches < res.walls_tested
    decided = [v for _, v in _box_candidates(lat, 20, 3)[0][:res.walls_tested]]
    assert searched[-1] == res.certificate == decided[-1]
    skipped = [v for v in decided if v not in searched]
    assert len(skipped) == res.walls_tested - res.wall_searches
    assert all(walls_by_complement_oracle(lat, v) for v in skipped)


def test_mindeg_checks_signature_once(monkeypatch):
    calls = []
    original = Lattice.signature

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Lattice, "signature", counted)
    lat = direct_sum(hyperbolic_u(), Lattice(2, IntMatrix([[-2, 1], [1, -4]])))
    res = min_polarization_degree(lat, norm_limit=20, coeff_box=3)
    assert res.upper_bound is not None
    assert len(calls) == 1
    calls.clear()
    assert verify_certificate(lat, res.certificate, res.upper_bound)
    assert len(calls) == 1


def test_wall_tests_require_hyperbolic_lattice():
    definite = direct_sum(rank_one(2), rank_one(2))
    message = "Hodge-index signature"
    for call in (lambda: in_cn(definite, (1, 0)), lambda: minus_two_walls_through(definite, (1, 0)),
                 lambda: min_polarization_degree(definite)):
        with pytest.raises(ValueError, match=message):
            call()
    assert not verify_certificate(definite, (1, 0), 2)


def test_verify_certificate_rejections():
    u = hyperbolic_u()
    assert not verify_certificate(u, (1, 1), 2)  # wall exists
    assert not verify_certificate(u, (1, 2), 2)  # wrong degree
    assert not verify_certificate(u, (1, 2, 0), 4)  # wrong length
