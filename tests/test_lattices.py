import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import disc_kernel_by_fractions, discriminant_lifts_by_inverse
from k3lattices import lattices as lattices_module
from k3lattices.lattices import (
    HyperbolicPairs,
    Isometry,
    Lattice,
    LatticeEmbedding,
    big_l,
    check_disc_complement,
    direct_sum,
    discriminant_group,
    e8,
    eichler_transvection,
    hyperbolic_u,
    in_discriminant_kernel,
    is_primitive,
    k3_lattice,
    l_d,
    move_primitive_vector,
    negate,
    orthogonal_complement,
    rank_one,
    reflection,
    saturate,
    sublattice_embedding,
)
from k3lattices.linalg import (
    IntMatrix,
    RatMatrix,
    content,
    det_exact,
    rational_kernel,
    smith_normal_form,
    unimodular_inverse,
)


# ---------------------------------------------------------------------------
# constructions


def test_k3_lattice_shape():
    lam = k3_lattice()
    assert lam.rank == 22
    assert lam.det() in (1, -1)
    assert lam.signature() == (19, 3, 0)


def test_pairing_rejects_either_vector_of_wrong_length():
    u = hyperbolic_u()
    for x, y in (((1,), (0, 1)), ((1, 0, 7), (0, 1)), ((0, 1), (1,)), ((0, 1), (1, 0, 7))):
        with pytest.raises(ValueError, match="vector length mismatch"):
            u.pairing(x, y)
    assert u.pairing((1, 0), (0, 1)) == 1


def test_negate_u():
    m = negate(hyperbolic_u())
    assert m.gram == IntMatrix([[0, -1], [-1, 0]])


def test_rank_one():
    assert rank_one(6).gram == IntMatrix([[6]])


def test_l_d_invariants():
    lat = l_d(5)
    assert lat.rank == 21
    assert lat.disc() == 10
    assert lat.signature() == (19, 2, 0)
    with pytest.raises(ValueError):
        l_d(0)


def test_big_l_unimodular():
    lat = big_l()
    assert lat.rank == 25
    assert lat.disc() == 1
    # direct sum of E8^2 (16,0), U^2 (2,2), <1>^5 (5,0)
    assert lat.signature() == (23, 2, 0)


def test_e8_even_unimodular():
    lat = e8()
    assert lat.disc() == 1
    assert lat.is_even()
    assert lat.signature() == (8, 0, 0)


# ---------------------------------------------------------------------------
# discriminant groups


def test_disc_group_trivial_cases():
    assert discriminant_group(e8()).is_trivial()
    assert discriminant_group(hyperbolic_u()).is_trivial()


def test_disc_group_l_d_cyclic():
    for d in range(1, 21):
        disc = discriminant_group(l_d(d))
        assert disc.invariant_factors == (2 * d,)
        assert disc.is_cyclic()
        assert disc.order() == 2 * d


def test_disc_group_order_matches_det():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        b = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        g = b @ b.transpose() + IntMatrix.diagonal([1] * n)
        lat = Lattice(n, g)
        assert discriminant_group(lat).order() == lat.disc()


def test_disc_group_rank_one():
    disc = discriminant_group(rank_one(4))
    assert disc.invariant_factors == (4,)
    # generator has norm 1/4 mod 2
    assert disc.quadratic[0].denominator == 4


def _random_definite_grams(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 3)
        b = IntMatrix([[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)])
        yield b @ b.transpose() + IntMatrix.diagonal([rng.randint(1, 4) for _ in range(k)])


def test_disc_group_form_structure():
    for g in _random_definite_grams(91, 15):
        lat = Lattice(g.rows, g)
        disc = discriminant_group(lat)
        m = disc.bilinear
        for i in range(len(m)):
            for j in range(len(m)):
                assert m[i][j] == m[j][i]  # symmetric mod 1 (values stored reduced)
                assert 0 <= m[i][j] < 1
        # each generator really has the advertised order: d_i * lift is integral
        for order, gen in zip(disc.invariant_factors, disc.generators):
            assert all((order * x).denominator == 1 for x in gen)
            assert any(x.denominator > 1 for x in gen)


def _classes_spanned(gens, orders, rank):
    """Classes mod Z^rank of the sums of k_t gen_t with 0 <= k_t < order_t."""
    classes = {(Fraction(0),) * rank}
    for gen, order in zip(gens, orders):
        classes = {tuple((x + k * y) % 1 for x, y in zip(c, gen)) for c in classes for k in range(order)}
    return classes


def test_disc_group_lifts_generate_the_group():
    """The lifts lie in N^vee with exact orders d_t and span |det G| classes,
    among them the class of every Smith-transform lift G^-1 u^-1 e_i; the
    form is their pairings, recomputed in Fractions."""
    lattices = [l_d(d) for d in range(1, 31)]
    lattices += [Lattice(g.rows, g) for g in _random_definite_grams(92, 40)]
    for lat in lattices:
        disc = discriminant_group(lat)
        gram = RatMatrix.from_int(lat.gram)
        images = [gram.apply(gen) for gen in disc.generators]
        for order, gen, image in zip(disc.invariant_factors, disc.generators, images):
            assert all(x.denominator == 1 for x in image)
            assert lcm(*(x.denominator for x in gen)) == order
        classes = _classes_spanned(disc.generators, disc.invariant_factors, lat.rank)
        assert len(classes) == lat.disc()
        for lift in discriminant_lifts_by_inverse(lat):
            assert tuple(x % 1 for x in lift) in classes
        pairs = [[sum(map(mul, x, image)) for image in images] for x in disc.generators]
        assert disc.bilinear == tuple(tuple(p % 1 for p in row) for row in pairs)
        norm_mod = 2 if lat.is_even() else 1
        assert disc.quadratic == tuple(pairs[i][i] % norm_mod for i in range(len(pairs)))


def _random_nonsingular_grams(seed, count):
    """Symmetric, rank 1-7, entries -9..9, det != 0."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(1, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-9, 9)
        if det_exact(IntMatrix(rows)):
            count -= 1
            yield IntMatrix(rows)


def test_disc_group_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_decomp

    for g in _random_nonsingular_grams(2024, 150):
        d, s, t = smith_normal_decomp(sympy.Matrix(g.tolists()), domain=sympy.ZZ)
        assert s * sympy.Matrix(g.tolists()) * t == d
        diagonal = [abs(int(d[i, i])) for i in range(g.rows)]
        assert discriminant_group(Lattice(g.rows, g)).invariant_factors == tuple(x for x in diagonal if x > 1)
        assert smith_normal_form(g).invariant_factors() == diagonal


def _norm_mod(lat, x):
    value = sum((xi * gi for xi, gi in zip(x, RatMatrix.from_int(lat.gram).apply(x))), Fraction(0))
    return value % (2 if lat.is_even() else 1)


def test_disc_group_quadratic_independent_of_lift():
    # <3> is odd: the lifts 1/3 and 4/3 of one class have norms 1/3 and 16/3,
    # equal mod 1 but not mod 2
    disc = discriminant_group(rank_one(3))
    assert disc.quadratic == (Fraction(1, 3),)
    odd = next(Lattice(3, g) for g in _random_definite_grams(7, 100)
               if g.rows == 3 and not Lattice(3, g).is_even() and det_exact(g) > 1)
    for lat in (rank_one(3), odd, l_d(3), rank_one(4)):
        disc = discriminant_group(lat)
        assert disc.quadratic
        for gen, q in zip(disc.generators, disc.quadratic):
            assert _norm_mod(lat, gen) == q
            for k in range(lat.rank):
                shifted = tuple(x + (1 if i == k else 0) for i, x in enumerate(gen))
                assert _norm_mod(lat, shifted) == q


# ---------------------------------------------------------------------------
# saturation / primitivity / complements


def test_saturate_scaled_generator():
    u = hyperbolic_u()
    sub = sublattice_embedding(u, [(2, 0)])
    sat = saturate(sub)
    assert sat.source.gram == IntMatrix([[0]])
    assert is_primitive(sat)
    assert [abs(x) for x in sat.matrix.column(0)] == [1, 0]


def test_saturate_index_two():
    u = hyperbolic_u()
    sub = sublattice_embedding(u, [(1, 1), (1, -1)])
    sat = saturate(sub)
    assert sat.source.rank == 2
    assert abs(sat.source.det()) == 1  # all of U
    assert is_primitive(sat)


def test_saturate_full_rank_square():
    amb = direct_sum(rank_one(1), rank_one(1))
    sub = sublattice_embedding(amb, [(2, 0), (0, 2)])
    sat = saturate(sub)
    assert sat.source.gram == amb.gram


def test_saturate_idempotent():
    rng = random.Random(5)
    amb = k3_lattice()
    for _ in range(10):
        cols = [[rng.randint(-2, 2) for _ in range(22)] for _ in range(2)]
        mat = IntMatrix.from_columns([tuple(c) for c in cols], 22)
        if rational_kernel(mat):
            continue  # linearly dependent draw
        sub = sublattice_embedding(amb, cols)
        sat = saturate(sub)
        assert is_primitive(sat)
        again = saturate(sat)
        assert again.matrix == sat.matrix


def test_saturate_matches_inverse_of_smith_transform():
    # saturate reads u^{-1} e_j off B v as column j over d_j; invert u directly instead
    rng = random.Random(43)
    amb = direct_sum(e8(), hyperbolic_u())
    checked = 0
    for _ in range(60):
        cols = [[rng.randint(-2, 2) * rng.choice((1, 1, 2, 3)) for _ in range(10)]
                for _ in range(rng.randint(1, 4))]
        mat = IntMatrix.from_columns([tuple(c) for c in cols], 10)
        if rational_kernel(mat):
            continue  # linearly dependent draw
        snf = smith_normal_form(mat)
        uinv = unimodular_inverse(snf.u)
        expected = [uinv.column(j) for j in range(len(cols))]
        assert saturate(sublattice_embedding(amb, cols)).matrix.columns() == expected
        checked += 1
    assert checked >= 40


def test_embedding_rejects_dependent_columns():
    u = hyperbolic_u()
    for cols in ([(1, 0), (2, 0)], [(1, 1), (0, 0)], [(1, 0), (0, 1), (1, 1)]):
        with pytest.raises(ValueError, match="linearly dependent"):
            sublattice_embedding(u, cols)


def test_embedding_tests_column_independence_only_on_a_degenerate_source(monkeypatch):
    # B^T G B = source Gram, so det(source) != 0 already proves the columns independent
    calls = []
    monkeypatch.setattr(lattices_module, "det_exact", lambda m: calls.append(m.rows) or det_exact(m))
    u = hyperbolic_u()
    sublattice_embedding(direct_sum(u, u), [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 0), (0, 0, 1, 0)])
    assert calls == [4]  # the source's own determinant, cached on it
    calls.clear()
    isotropic = sublattice_embedding(direct_sum(u, u), [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert isotropic.source.gram == IntMatrix.zero(2, 2)
    assert calls == [2, 2]  # det(source) = 0, then det(B^T B) = 1
    with pytest.raises(ValueError, match="linearly dependent"):
        sublattice_embedding(direct_sum(u, u), [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, -1, 0)])


def test_embedding_rejects_columns_of_wrong_length():
    u = hyperbolic_u()
    for cols in ([(1, 0, 5), (0, 1)], [(0, 1), (1,)], [(1, 0, 0), (0, 1, 0)], [(1,), (0,)], [(1, 0, 0)]):
        with pytest.raises(ValueError, match="^column length mismatch$"):
            sublattice_embedding(u, cols)
    assert sublattice_embedding(u, [(1, 0), (0, 1)]).matrix == IntMatrix.identity(2)


def test_embedding_rejects_wrong_gram_when_built_directly():
    u = hyperbolic_u()
    mat = IntMatrix([[1], [1]])  # e + f, of norm 2
    assert LatticeEmbedding(rank_one(2), u, mat).source.gram == IntMatrix([[2]])
    for wrong in (rank_one(4), rank_one(-2), rank_one(0)):
        with pytest.raises(ValueError, match="does not preserve the pairing"):
            LatticeEmbedding(wrong, u, mat)
    with pytest.raises(ValueError, match="shape mismatch"):
        LatticeEmbedding(rank_one(2), u, IntMatrix([[1], [1], [0]]))


def test_is_primitive_examples():
    u = hyperbolic_u()
    assert is_primitive(sublattice_embedding(u, [(1, 0)]))
    assert not is_primitive(sublattice_embedding(u, [(2, 0)]))


def test_is_primitive_matches_smith_form():
    """Seeded embeddings in U + U + E8, some with a degenerate source (an
    isotropic first column orthogonal to the others), some with a column
    scaled by 2 or 3, against the invariant factors of `smith_normal_form`."""
    rng = random.Random(61)
    amb = direct_sum(hyperbolic_u(), hyperbolic_u(), e8())
    seen = Counter()
    for _ in range(300):
        k = rng.randint(1, 4)
        cols = [[rng.randint(-2, 2) for _ in range(12)] for _ in range(k)]
        if rng.random() < 0.3:
            # a e + b e' for the isotropic e, e' of the two U; its pairings read coordinates 1 and 3
            cols[0] = [rng.randint(-3, 3), 0, rng.randint(-3, 3), 0] + [0] * 8
            for col in cols[1:]:
                col[1] = col[3] = 0
        if rng.random() < 0.4:
            j, factor = rng.randrange(k), rng.choice((2, 3))
            cols[j] = [factor * x for x in cols[j]]
        mat = IntMatrix.from_columns([tuple(c) for c in cols], 12)
        if rational_kernel(mat):
            continue  # linearly dependent draw
        sub = sublattice_embedding(amb, cols)
        expected = all(f == 1 for f in smith_normal_form(mat).invariant_factors())
        assert is_primitive(sub) == expected
        seen[sub.source.is_nondegenerate(), expected] += 1
    assert all(seen[key] >= 10 for key in product((True, False), repeat=2)), seen


def test_orthogonal_complement_in_u():
    u = hyperbolic_u()
    sub = sublattice_embedding(u, [(1, -1)])  # e - f
    comp = orthogonal_complement(sub)
    assert comp.source.gram == IntMatrix([[2]])
    assert comp.matrix.column(0) in ((1, 1), (-1, -1))


def test_orthogonal_complement_block():
    amb = direct_sum(e8(), hyperbolic_u())
    cols = [tuple(1 if i == j else 0 for i in range(10)) for j in range(8)]
    comp = orthogonal_complement(sublattice_embedding(amb, cols))
    assert comp.source.rank == 2
    assert comp.source.gram == hyperbolic_u().gram


def test_complement_is_orthogonal_and_saturated():
    rng = random.Random(11)
    amb = direct_sum(e8(), hyperbolic_u())
    for _ in range(10):
        col = [rng.randint(-2, 2) for _ in range(10)]
        if all(x == 0 for x in col) or amb.norm(col) == 0:
            continue
        g = content(col)
        col = [x // g for x in col]
        sub = sublattice_embedding(amb, [col])
        comp = orthogonal_complement(sub)
        assert is_primitive(comp)
        cross = sub.matrix.transpose() @ amb.gram @ comp.matrix
        assert all(cross[i, j] == 0 for i in range(cross.rows) for j in range(cross.cols))


def test_orthogonal_complement_dense_generators_in_k3():
    # dense generators give kernel bases with entries of up to 26 bits, on
    # which the complement's column-independence check must stay exact and fast
    k3 = k3_lattice()
    for seed in range(60):
        rng = random.Random(seed)
        gens = [[rng.randint(-2, 2) for _ in range(22)] for _ in range(3)]
        sub = sublattice_embedding(k3, gens)
        comp = orthogonal_complement(sub)
        basis = comp.matrix
        assert comp.source.rank == basis.cols == 19
        assert sub.matrix.transpose() @ k3.gram @ basis == IntMatrix.zero(3, 19)
        assert comp.source.gram == basis.transpose() @ k3.gram @ basis


# ---------------------------------------------------------------------------
# reflections and transvections


def test_reflection_swaps_u_basis():
    u = hyperbolic_u()
    s = reflection((1, -1), u)
    assert s.apply((1, 0)) == (0, 1)
    assert s.apply((0, 1)) == (1, 0)


def test_reflection_rank_one():
    lat = rank_one(2)
    s = reflection((1,), lat)
    assert s.matrix == IntMatrix([[-1]])


def test_reflection_involution_on_e8():
    rng = random.Random(13)
    lat = e8()
    count = 0
    while count < 10:
        w = tuple(rng.randint(-2, 2) for _ in range(8))
        if lat.norm(w) != 2:
            continue
        count += 1
        s = reflection(w, lat)
        assert s.matrix @ s.matrix == IntMatrix.identity(8)
        assert s.apply(w) == tuple(-x for x in w)


def test_reflection_integrality_error():
    # w = (1,1) in <2> + <4> has w^2 = 6; 2(e1.w) = 4 is not divisible by 6
    amb = direct_sum(rank_one(2), rank_one(4))
    with pytest.raises(ValueError) as err:
        reflection((1, 1), amb)
    assert str(err.value) == "reflection in (1, 1) is not integral: basis vector 0 has 2(x.w) = 4, w^2 = 6"
    with pytest.raises(ValueError) as err:
        reflection((1, 0, 0), direct_sum(hyperbolic_u(), rank_one(2)))  # isotropic w
    assert str(err.value) == "cannot reflect in an isotropic vector"


def test_eichler_identity_for_zero():
    u3 = direct_sum(hyperbolic_u(), rank_one(2))
    t = eichler_transvection((1, 0, 0), (0, 0, 0), u3)
    assert t.matrix == IntMatrix.identity(3)


def test_eichler_fixes_f():
    amb = direct_sum(hyperbolic_u(), rank_one(2))
    f = (1, 0, 0)
    a = (0, 0, 1)
    t = eichler_transvection(f, a, amb)
    assert t.apply(f) == f


def test_eichler_example_u_plus_2():
    # in U + <2> with f = e, a = generator of <2>: f' -> f' + a - e
    amb = direct_sum(hyperbolic_u(), rank_one(2))
    t = eichler_transvection((1, 0, 0), (0, 0, 1), amb)
    assert t.apply((0, 1, 0)) == (-1, 1, 1)
    # isometry property is enforced by the constructor; double-check anyway
    assert t.matrix.transpose() @ amb.gram @ t.matrix == amb.gram


def test_eichler_preconditions():
    amb = direct_sum(hyperbolic_u(), rank_one(2))
    with pytest.raises(ValueError):
        eichler_transvection((0, 0, 1), (1, 0, 0), amb)  # f not isotropic
    with pytest.raises(ValueError):
        eichler_transvection((1, 0, 0), (0, 1, 0), amb)  # a.f != 0


def _dense_transvection(lat, f, a):
    """E(f, a) with column j equal to x + (x.f)a - (x.a + (a^2/2)(x.f))f for
    x = e_j, every pairing summed over all Gram entries, zeros included."""
    g, r = lat.gram.tolists(), lat.rank

    def dot(x, y):
        return sum(x[i] * g[i][j] * y[j] for i in range(r) for j in range(r))

    aa = dot(a, a)
    columns = []
    for x in IntMatrix.identity(r).tolists():
        xf, xa = dot(x, f), dot(x, a)
        columns.append([p + xf * q - (xa + aa * xf // 2) * s for p, q, s in zip(x, a, f)])
    return IntMatrix.from_columns(columns, r)


def test_plane_transvections_compose_like_the_formula():
    rng = random.Random(113)
    lam = k3_lattice()
    partner = {16: 17, 17: 16, 18: 19, 19: 18}
    composed = Isometry(lam, IntMatrix.identity(lam.rank))
    product = IntMatrix.identity(lam.rank)
    for _ in range(50):
        i = rng.choice(sorted(partner))
        f = lam.basis_vector(i)
        a = [rng.randint(-3, 3) for _ in range(lam.rank)]
        a[partner[i]] = 0  # a.f = a_partner
        composed = eichler_transvection(f, a, lam).compose(composed)
        product = _dense_transvection(lam, f, a) @ product
    assert composed.matrix == product


U2E8_NEG = direct_sum(hyperbolic_u(), hyperbolic_u(), negate(e8()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2, 3]), st.integers(-3, 3).filter(bool),
       st.lists(st.integers(-3, 3), min_size=12, max_size=12),
       st.lists(st.integers(-3, 3), min_size=12, max_size=12))
def test_eichler_transvection_matches_dense_formula(i, k, c, a):
    lat = U2E8_NEG
    # f = k (e + c - (c^2/2) e') for the plane pair (e, e') at (i, i ^ 1) and c
    # orthogonal to that plane is isotropic; a - ((a.f)/(f.e')) e' is orthogonal to f.
    j = i ^ 1
    c = [0 if r in (i, j) else x for r, x in enumerate(c)]
    f = [k * x for x in c]
    f[i], f[j] = k, -k * (lat.norm(c) // 2)
    z = lat.basis_vector(j)
    fz, af = lat.pairing(f, z), lat.pairing(a, f)
    a = [fz * x - af * y for x, y in zip(a, z)]
    assert lat.norm(f) == 0 and lat.pairing(a, f) == 0
    assert eichler_transvection(f, a, lat).matrix == _dense_transvection(lat, f, a)


# ---------------------------------------------------------------------------
# discriminant kernel


def test_disc_kernel_unimodular_always():
    lat = e8()
    w = lat.basis_vector(0)
    assert in_discriminant_kernel(reflection(w, lat))
    assert in_discriminant_kernel(Isometry(lat, -IntMatrix.identity(8)))


def test_disc_kernel_mod2_passes():
    # -1 on the <2>-summand of <2> + U, identity elsewhere: -1 = 1 in Z/2
    amb = direct_sum(rank_one(2), hyperbolic_u())
    mat = IntMatrix.diagonal([-1, 1, 1])
    g = Isometry(amb, mat)
    assert in_discriminant_kernel(g)


def test_disc_kernel_mod4_fails():
    amb = direct_sum(rank_one(4), hyperbolic_u())
    g = Isometry(amb, IntMatrix.diagonal([-1, 1, 1]))
    assert not in_discriminant_kernel(g)


def test_disc_kernel_closed_under_composition():
    amb = direct_sum(rank_one(2), hyperbolic_u())
    g = Isometry(amb, IntMatrix.diagonal([-1, 1, 1]))
    h = Isometry(amb, IntMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    assert in_discriminant_kernel(g) and in_discriminant_kernel(h)
    assert in_discriminant_kernel(g.compose(h))


def test_disc_kernel_matches_fraction_oracle():
    """Random words in sign flips, swaps of equal summands and Eichler
    transvections on U + <a1> + <a2> + <a3>, seen in a moved basis."""
    rng = random.Random(53)
    verdicts = []
    for _ in range(60):
        diag = [rng.choice((2, -2, 4, -4, 6, 3, -3, 12)) for _ in range(3)]
        lat = direct_sum(hyperbolic_u(), *[rank_one(a) for a in diag])
        g = Isometry(lat, IntMatrix.identity(5))
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                move = IntMatrix.diagonal([1, 1] + [rng.choice((1, -1)) for _ in range(3)])
            elif kind == 1 and diag[0] == diag[1]:
                move = IntMatrix([[int(i == {2: 3, 3: 2}.get(j, j)) for j in range(5)] for i in range(5)])
            else:
                a = (0, 0) + tuple(rng.randint(-2, 2) for _ in range(3))
                if lat.norm(a) % 2:
                    a = tuple(2 * x for x in a)
                move = eichler_transvection(rng.choice(((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))), a, lat).matrix
            g = Isometry(lat, move).compose(g)
        u = IntMatrix.identity(5)
        for _ in range(rng.randint(0, 6)):  # column j += c * column i
            i, j = rng.sample(range(5), 2)
            u = u @ IntMatrix([[int(r == c) + (rng.choice((1, -1)) if (r, c) == (i, j) else 0)
                                for c in range(5)] for r in range(5)])
        moved = Lattice(5, u.transpose() @ lat.gram @ u)
        h = Isometry(moved, unimodular_inverse(u) @ g.matrix @ u)
        verdicts.append(in_discriminant_kernel(h))
        assert verdicts[-1] == disc_kernel_by_fractions(h)
    assert 10 < sum(verdicts) < 50


# ---------------------------------------------------------------------------
# moving primitive vectors


U2E8 = direct_sum(hyperbolic_u(), hyperbolic_u(), e8())
U2E8_PAIRS = HyperbolicPairs((0, 1), (2, 3))


def test_move_canonical_is_identity_orbit():
    for d in (1, 3, 7):
        v = tuple([1, -d] + [0] * 10)
        res = move_primitive_vector(v, U2E8, U2E8_PAIRS)
        assert res.canonical
        assert res.image == v


def test_move_rejects_zero_norm():
    v = tuple([1, 0, 1, 0] + [0] * 8)  # e1 + e2, norm 0
    with pytest.raises(ValueError):
        move_primitive_vector(v, U2E8, U2E8_PAIRS)


def test_move_rejects_imprimitive():
    v = tuple([2, -2] + [0] * 10)
    with pytest.raises(ValueError):
        move_primitive_vector(v, U2E8, U2E8_PAIRS)


def test_move_random_to_canonical():
    rng = random.Random(101)
    for _ in range(60):
        while True:
            v = [rng.randint(-6, 6) for _ in range(12)]
            if content(v) == 1 and U2E8.norm(v) != 0:
                break
        res = move_primitive_vector(v, U2E8, U2E8_PAIRS)
        m = U2E8.norm(v) // 2
        assert res.canonical
        assert res.image == tuple([1, m] + [0] * 10)
        assert res.isometry.apply(v) == res.image
        gm = res.isometry.matrix
        assert gm.transpose() @ U2E8.gram @ gm == U2E8.gram


def test_move_prescribed_negative_norms():
    rng = random.Random(103)
    lam = k3_lattice()
    pairs = HyperbolicPairs((16, 17), (18, 19))
    for d in range(1, 11):
        # build a random primitive vector of norm -2d by moving the canonical
        # one with a few explicit transvections, then recover the canonical form
        v = [0] * 22
        v[16], v[17] = 1, -d
        t1 = eichler_transvection(lam.basis_vector(16), _perp_vector(rng, lam, 16, 17), lam)
        t2 = eichler_transvection(lam.basis_vector(17), _perp_vector(rng, lam, 16, 17), lam)
        moved = t2.apply(t1.apply(tuple(v)))
        assert lam.norm(moved) == -2 * d
        res = move_primitive_vector(moved, lam, pairs)
        assert res.canonical
        assert res.image == tuple(v)


def test_move_seeded_vectors_in_k3_and_l_d():
    rng = random.Random(107)
    pairs = HyperbolicPairs((16, 17), (18, 19))
    for lat in (k3_lattice(), l_d(1), l_d(2), l_d(5)):
        for _ in range(20):
            while True:
                v = [rng.randint(-9, 9) for _ in range(lat.rank)]
                # divisor 1, so that the canonical representative is in the orbit
                if content(lat.gram.apply(v)) == 1 and lat.norm(v) != 0:
                    break
            res = move_primitive_vector(v, lat, pairs)
            gm = res.isometry.matrix
            assert gm.transpose() @ lat.gram @ gm == lat.gram
            assert det_exact(gm) in (1, -1)
            expected = [0] * lat.rank
            expected[16], expected[17] = 1, lat.norm(v) // 2
            assert res.canonical and res.divisor == 1
            assert res.image == tuple(expected) == gm.apply(v)
            assert res.transvections > 0


# move_primitive_vector on the vectors below, computed before products
# skipped zeros: label, transvections, divisor, canonical, image[16:18], and
# the first 16 hex digits of the SHA-256 of the isometry's rows.
PINNED_MOVES = [
    ("K3", 22, 1, True, (1, 568837), "7056a210c6b9b011"),
    ("K3", 18, 1, True, (1, 372864), "c9ef0e9201c6a38a"),
    ("L_1", 15, 1, True, (1, 653732), "e86ec5031742dfa5"),
    ("L_2", 23, 1, True, (1, 441488), "49f9452dcfba440d"),
    ("L_3", 14, 1, True, (1, 432255), "0ae4ef457e265591"),
    ("L_7", 14, 1, True, (1, 486319), "3e6088000b828b6e"),
    ("L_2", 17, 2, False, (2, -1230), "5905b22363cc0726"),
]


def test_move_outputs_pinned():
    rng = random.Random(2017)
    pairs = HyperbolicPairs((16, 17), (18, 19))
    cases = []
    for lat in (k3_lattice(), k3_lattice(), l_d(1), l_d(2), l_d(3), l_d(7)):
        while True:
            v = tuple(rng.randint(-300, 300) for _ in range(lat.rank))
            if content(v) == 1 and lat.norm(v) != 0:
                break
        cases.append((lat, v))
    # divisor 2: every coordinate but the <4> one is even
    cases.append((l_d(2), tuple(2 * rng.randint(-50, 50) for _ in range(20)) + (1,)))
    got = []
    for lat, v in cases:
        res = move_primitive_vector(v, lat, pairs)
        digest = hashlib.sha256(repr(res.isometry.matrix.tolists()).encode()).hexdigest()[:16]
        got.append((lat.label, res.transvections, res.divisor, res.canonical, res.image[16:18], digest))
    assert got == PINNED_MOVES


def test_move_validates_once_with_two_products(monkeypatch):
    calls = []
    original_check, original_matmul = Isometry.__post_init__, IntMatrix.__matmul__

    def counted_check(self):
        calls.append("isometry")
        return original_check(self)

    def counted_matmul(self, other):
        calls.append("matmul")
        return original_matmul(self, other)

    lam = k3_lattice()
    v = tuple(range(-10, 12))
    monkeypatch.setattr(Isometry, "__post_init__", counted_check)
    monkeypatch.setattr(IntMatrix, "__matmul__", counted_matmul)
    res = move_primitive_vector(v, lam, HyperbolicPairs((16, 17), (18, 19)))
    assert res.canonical and res.transvections > 0
    assert calls.count("isometry") == 1
    assert calls.count("matmul") <= 2


def _counting_gcd(monkeypatch):
    calls = []
    original = lattices_module.gcd

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lattices_module, "gcd", counted)
    return calls


def test_move_stops_at_a_divisor_obstruction_without_a_search(monkeypatch):
    # zero on plane 1 and divisor 2: after stage 1, v.e1 = 65,951,772 and
    # gcd(v.f1, v.e1, t) = 2, so no lambda can make the plane pairings coprime
    v = (558, 504, -312, 66, 554, 168, 278, 284, -138, 410, -4, 382, 176, 186, -276, -68, 0, 0, -86, 250, 1)
    lat = l_d(2)
    calls = _counting_gcd(monkeypatch)
    res = move_primitive_vector(v, lat, HyperbolicPairs((16, 17), (18, 19)))
    assert len(calls) < 20
    assert (res.transvections, res.divisor, res.canonical) == (4, 2, False)
    assert res.isometry.apply(v) == res.image


def test_move_divisor_is_content_of_gram_image():
    # the four plane pairings end with gcd 4 here, but div(v) = content(G v) = 2
    v = (4, -2, -10, -8, -18, 2, 14, 10, -14, 2, 16, -16, 6, -8, 10, 8, -8, -8, -4, -16, 1)
    lat = l_d(5)
    res = move_primitive_vector(v, lat, HyperbolicPairs((16, 17), (18, 19)))
    assert content(lat.gram.apply(v)) == res.divisor == 2
    assert gcd(*(res.image[i] for i in (16, 17, 18, 19))) == 4
    assert not res.canonical


def test_move_seeded_divisor_two_vectors_of_l_d(monkeypatch):
    rng = random.Random(211)
    pairs = HyperbolicPairs((16, 17), (18, 19))
    calls = _counting_gcd(monkeypatch)
    for case in range(200):
        lat = l_d(rng.randint(1, 12))
        bound = 10 ** rng.randint(1, 6)
        # every coordinate but the <2d> one even, so 2 divides div(v)
        v = [2 * rng.randint(-bound, bound) for _ in range(20)] + [2 * rng.randint(-bound, bound) + 1]
        if case % 3 == 0:
            v[16] = v[17] = 0
        if lat.norm(v) == 0:
            continue
        calls.clear()
        res = move_primitive_vector(v, lat, pairs)
        assert len(calls) < 20
        assert res.isometry.apply(v) == res.image
        assert res.divisor == content(lat.gram.apply(v)) and res.divisor % 2 == 0
        assert not res.canonical


def test_move_rejects_marked_planes_that_pair_with_each_other():
    rows = U2E8.gram.tolists()
    rows[0][2] = rows[2][0] = 2
    with pytest.raises(ValueError, match="not orthogonal to the rest"):
        move_primitive_vector((1, -1) + (0,) * 10, Lattice(12, IntMatrix(rows)), U2E8_PAIRS)


@pytest.mark.parametrize("pairs, index", [(((16, 17), (18, 40)), 40), (((-6, -5), (18, 19)), -6)])
def test_move_rejects_marked_indices_outside_the_basis(pairs, index):
    # -6 and -5 would alias 16 and 17 as Python indices
    with pytest.raises(ValueError, match=f"marked index {index} is outside 0..21"):
        move_primitive_vector(tuple(range(-10, 12)), k3_lattice(), HyperbolicPairs(*pairs))


@pytest.mark.parametrize("lat, pairs", [(k3_lattice(), HyperbolicPairs((16, 17), (18, 19))),
                                        (l_d(5), HyperbolicPairs((16, 17), (18, 19))),
                                        (U2E8, U2E8_PAIRS)])
def test_plane_step_transvection_changes_two_rows(lat, pairs):
    # Stage 3 of the move runs the step E(e_f, s q e_i), f and i on different
    # marked planes, as row i += s q (row f') and row f -= s q (row i'), where
    # ' is the partner in the plane; every other row stays.
    rng = random.Random(223)
    (e1, f1), (e2, f2) = pairs.first, pairs.second
    partner = {e1: f1, f1: e1, e2: f2, f2: e2}
    steps = [(e1, f2, 1), (f1, e2, -1), (e1, e2, -1), (f1, f2, 1)]
    rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(9)] for _ in range(lat.rank)]
    for f, i, s in steps:
        for q in (1, -1, 7, -7, 2 ** 300, -2 ** 300):
            a = [s * q if k == i else 0 for k in range(lat.rank)]
            moved = (eichler_transvection(lat.basis_vector(f), a, lat).matrix @ IntMatrix(rows)).tolists()
            expected = [list(row) for row in rows]
            expected[i] = [x + s * q * y for x, y in zip(rows[i], rows[partner[f]])]
            expected[f] = [x - s * q * y for x, y in zip(rows[f], rows[partner[i]])]
            assert moved == expected


def test_move_canonicalizes_vectors_of_thousands_of_bits():
    # 2,600 and 3,000 bits: the old fixed cap of 2000 stage-3 passes raised here
    rng = random.Random(9)
    lam = k3_lattice()
    for bits in (2600, 3000):
        while True:
            v = tuple(rng.getrandbits(bits) * rng.choice((1, -1)) for _ in range(22))
            if content(v) == 1 and lam.norm(v) != 0:
                break
        res = move_primitive_vector(v, lam, HyperbolicPairs((16, 17), (18, 19)))
        expected = [0] * 22
        expected[16], expected[17] = 1, lam.norm(v) // 2
        assert res.canonical and res.image == tuple(expected)
        assert res.isometry.apply(v) == res.image


def test_isometry_rejects_perturbed_and_non_unimodular_matrices():
    lam = k3_lattice()
    g = move_primitive_vector(tuple(range(-10, 12)), lam, HyperbolicPairs((16, 17), (18, 19))).isometry
    for i, j in ((0, 0), (5, 17), (16, 16), (17, 3), (21, 21)):
        rows = g.matrix.tolists()
        rows[i][j] += 1
        with pytest.raises(ValueError, match="does not preserve the pairing"):
            Isometry(lam, IntMatrix(rows))
    # on a degenerate Gram a det +-2 matrix can preserve the form
    degenerate = Lattice(2, IntMatrix([[2, 0], [0, 0]]))
    for doubled in (IntMatrix([[1, 0], [0, 2]]), IntMatrix([[-1, 0], [0, 2]])):
        assert doubled.transpose() @ degenerate.gram @ doubled == degenerate.gram
        with pytest.raises(ValueError, match="isometry must be unimodular"):
            Isometry(degenerate, doubled)


def _perp_vector(rng, lat, i, j):
    vec = [0] * lat.rank
    for k in range(lat.rank):
        if k not in (i, j):
            vec[k] = rng.randint(-2, 2)
    return tuple(vec)


# ---------------------------------------------------------------------------
# disc/complement identity


def test_check_disc_complement_block():
    amb = direct_sum(e8(), hyperbolic_u())
    left = sublattice_embedding(amb, [tuple(1 if i == j else 0 for i in range(10)) for j in range(8)])
    right = sublattice_embedding(amb, [tuple(1 if i == j else 0 for i in range(10)) for j in (8, 9)])
    report = check_disc_complement(left, right)
    assert report.triple() == (1, 1, 1)


def test_check_disc_complement_u_split():
    u = hyperbolic_u()
    left = sublattice_embedding(u, [(1, -1)])
    right = sublattice_embedding(u, [(1, 1)])
    assert check_disc_complement(left, right).triple() == (2, 2, 2)


def test_check_disc_complement_rejects_nonorthogonal():
    u = hyperbolic_u()
    left = sublattice_embedding(u, [(1, 0)])
    right = sublattice_embedding(u, [(0, 1)])
    with pytest.raises(ValueError):
        check_disc_complement(left, right)
