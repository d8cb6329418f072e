import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import det_by_bareiss, gram_schmidt_oracle, matmul_oracle
from k3lattices.lattices import big_l, k3_lattice, l_d
from k3lattices.linalg import (
    IntMatrix,
    RatMatrix,
    _smith_mod,
    bezout_combination,
    content,
    det_exact,
    ldlt,
    lll_reduce_gram,
    rational_inverse,
    rational_kernel,
    signature,
    smith_normal_form,
    unimodular_inverse,
)


# ---------------------------------------------------------------------------
# independent oracles


def det_oracle(m: IntMatrix) -> int:
    """Cofactor expansion; exponential but independent of Bareiss."""
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    rest = [list(m.row(i)) for i in range(1, n)]
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = IntMatrix([row[:j] + row[j + 1:] for row in rest])
        total += (-1) ** j * m[0, j] * det_oracle(minor)
    return total


def char_poly(m: IntMatrix) -> list[int]:
    """Coefficients of det(xI - m), ascending, via Faddeev-LeVerrier."""
    n = m.rows
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    prev = IntMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m @ prev
        trace = sum(mk[i, i] for i in range(n))
        c = -trace // k
        coeffs[n - k] = c
        prev = mk + IntMatrix([[c if i == j else 0 for j in range(n)] for i in range(n)])
    return coeffs


def signature_oracle(gram: IntMatrix) -> tuple[int, int, int]:
    """Descartes count on the exact characteristic polynomial.

    A symmetric matrix has all-real eigenvalues, so sign variations of p(x)
    count positive roots exactly and variations of p(-x) count negatives.
    """
    coeffs = char_poly(gram)
    zero = 0
    while coeffs[zero] == 0:
        zero += 1
    trimmed = coeffs[zero:]

    def variations(cs):
        signs = [c for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    pos = variations(trimmed)
    neg = variations([c * (-1) ** i for i, c in enumerate(trimmed)])
    return pos, neg, zero


def random_matrix(rng, rows, cols, bound=5):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def random_unimodular(rng, n, steps=12):
    m = IntMatrix.identity(n).tolists()
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += q * m[j][k]
    return IntMatrix(m)


GRAM_U = IntMatrix([[0, 1], [1, 0]])

GRAM_E8 = IntMatrix(
    [
        [2, 0, -1, 0, 0, 0, 0, 0],
        [0, 2, 0, -1, 0, 0, 0, 0],
        [-1, 0, 2, -1, 0, 0, 0, 0],
        [0, -1, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, 0, -1, 2],
    ]
)


# ---------------------------------------------------------------------------
# smith normal form


def assert_snf_valid(m: IntMatrix):
    snf = smith_normal_form(m)
    assert snf.u @ m @ snf.v == snf.d
    assert det_exact(snf.u) in (1, -1)
    assert det_exact(snf.v) in (1, -1)
    diag = [snf.d[i, i] for i in range(min(m.rows, m.cols))]
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert snf.d[i, j] == 0
    nonzero = [x for x in diag if x != 0]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros come after the nonzero chain
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    return snf


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(3))
    assert snf.d == IntMatrix.identity(3)


def test_snf_already_diagonal():
    snf = assert_snf_valid(IntMatrix([[2, 0], [0, 4]]))
    assert snf.d == IntMatrix.diagonal([2, 4])


def test_snf_offdiagonal():
    snf = assert_snf_valid(IntMatrix([[0, 1], [1, 0]]))
    assert snf.d == IntMatrix.identity(2)


def test_snf_rectangular_and_random():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        assert_snf_valid(random_matrix(rng, rows, cols))


def test_snf_dense_six_by_six_gram():
    # a dense nondegenerate Gram on which unreduced division steps grow without bound
    gram = IntMatrix([[-9, -3, -4, 9, 5, -4], [-3, -2, -4, -8, 6, -2], [-4, -4, -4, -8, -5, -6],
                      [9, -8, -8, 1, -4, 6], [5, 6, -5, -4, -3, 8], [-4, -2, -6, 6, 8, -8]])
    assert assert_snf_valid(gram).invariant_factors() == [1, 1, 1, 1, 3, 566304]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3), min_size=1, max_size=4))
def test_snf_property(entries):
    assert_snf_valid(IntMatrix(entries))


@st.composite
def smith_inputs(draw):
    """(m, M): m of size 0..6 x 0..7, often of lower rank than its shape allows."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entries = st.integers(-12, 12)
    if draw(st.booleans()):  # a product through k <= min(rows, cols) has rank <= k
        k = draw(st.integers(0, min(rows, cols)))
        a = [[draw(entries) for _ in range(k)] for _ in range(rows)]
        b = [[draw(entries) for _ in range(cols)] for _ in range(k)]
        grid = [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(cols)] for i in range(rows)]
    else:
        grid = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    modulus = draw(st.sampled_from([1, 2, 4, 6, 9, 12, 97, 360, 1698912]))
    return IntMatrix(grid, cols=cols), modulus


@settings(max_examples=300, deadline=None)
@given(smith_inputs())
def test_smith_mod_agrees_with_smith_over_z(case):
    m, modulus = case
    d = smith_normal_form(m).d
    assert _smith_mod(m, modulus)[0] == [gcd(d[t, t], modulus) for t in range(min(m.rows, m.cols))]
    diag, vt = _smith_mod(m, modulus, transform=True)
    assert len(vt) == m.cols
    v = IntMatrix.from_columns(vt, m.cols)
    assert gcd(det_exact(v), modulus) == 1
    for dt, col in zip(diag, (m @ v).columns()):
        assert all(x % dt == 0 for x in col)


# ---------------------------------------------------------------------------
# determinants


def test_det_identity():
    assert det_exact(IntMatrix.identity(4)) == 1


def test_det_u():
    assert det_exact(GRAM_U) == det_oracle(GRAM_U) == -1


def test_det_e8():
    assert det_exact(GRAM_E8) == det_oracle(GRAM_E8) == 1


def test_det_random_vs_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert det_exact(m) == det_oracle(m)


def test_det_congruence_invariant():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 5)
        g = random_matrix(rng, n, n)
        g = IntMatrix([[g[i, j] + g[j, i] for j in range(n)] for i in range(n)])
        w = random_unimodular(rng, n)
        assert det_exact(w @ g @ w.transpose()) == det_exact(g)


def test_det_up_to_one_by_one():
    # no branch of its own: the block scan gives 1 on 0 x 0, 0 on a zero row, and x on [[x]]
    assert det_exact(IntMatrix([], cols=0)) == 1
    assert [det_exact(IntMatrix([[x]])) for x in (0, -7, 5)] == [0, -7, 5]


def test_det_non_square_rejected():
    with pytest.raises(ValueError):
        det_exact(IntMatrix([[1, 2]]))


def _odd(perm):
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2 == 1


def test_det_by_blocks_matches_one_bareiss_pass():
    """Block sums seen under random row and column orders, against a single
    Bareiss pass: square blocks, blocks with more rows than columns or the
    reverse, zero rows and zero columns, and odd orders for the sign."""
    rng = random.Random(17)
    seen = Counter()
    for _ in range(600):
        shapes = []
        for _ in range(rng.randint(1, 4)):
            r = rng.randint(1, 4)
            shapes.append((r, r) if rng.random() < 0.75 else (r, rng.randint(1, 4)))
        extra = sum(c for _, c in shapes) - sum(r for r, _ in shapes)
        if extra:  # zero rows or zero columns square the matrix up
            shapes.append((max(extra, 0), max(-extra, 0)))
        elif rng.random() < 0.2:  # one zero row and one zero column
            shapes += [(1, 0), (0, 1)]
        n = sum(r for r, _ in shapes)
        rows = [[0] * n for _ in range(n)]
        r0 = c0 = 0
        for r, c in shapes:
            for i in range(r):
                for j in range(c):
                    rows[r0 + i][c0 + j] = rng.choice((-3, -2, -1, 1, 1, 2, 3, 0))
            r0, c0 = r0 + r, c0 + c
        rp, cp = list(range(n)), list(range(n))
        rng.shuffle(rp)
        rng.shuffle(cp)
        m = IntMatrix([[rows[i][j] for j in cp] for i in rp])
        det = det_exact(m)
        assert det == det_by_bareiss(m), m
        seen["nonzero" if det else "zero"] += 1
        seen["non-square block"] += any(r != c for r, c in shapes)
        seen["zero line"] += any(not r or not c for r, c in shapes)
        seen["odd order"] += bool(det) and _odd(rp) != _odd(cp)
        seen["several blocks"] += bool(det) and len(shapes) > 1 and n > 3
    assert all(seen[key] >= 40 for key in ("nonzero", "zero", "non-square block", "zero line",
                                           "odd order", "several blocks")), seen


# ---------------------------------------------------------------------------
# signature


def test_signature_u():
    assert signature(GRAM_U) == (1, 1, 0)


def test_signature_zero_block():
    assert signature(IntMatrix.zero(2, 2)) == (0, 0, 2)


def test_signature_e8():
    assert signature(GRAM_E8) == (8, 0, 0)


def test_signature_requires_symmetric():
    with pytest.raises(ValueError):
        signature(IntMatrix([[0, 1], [2, 0]]))


def test_signature_vs_charpoly_oracle():
    rng = random.Random(17)
    grams = []
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, bound=4)
        grams.append(IntMatrix([[m[i, j] + m[j, i] for j in range(n)] for i in range(n)]))
    for _ in range(40):  # zero diagonal: the first pivot comes from the hyperbolic repair
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, bound=2)
        grams.append(IntMatrix([[m[i, j] + m[j, i] if i != j else 0 for j in range(n)] for i in range(n)]))
    for _ in range(60):  # B^T D B, of rank at most k < n
        n = rng.randint(1, 7)
        k = rng.randint(0, n - 1)
        b = random_matrix(rng, k, n, bound=3)
        d = IntMatrix.diagonal([rng.choice((-2, -1, 1, 2)) for _ in range(k)])
        grams.append(b.transpose() @ d @ b if k else IntMatrix.zero(n, n))
    grams += [k3_lattice().gram, l_d(3).gram, big_l().gram]
    for g in grams:
        assert signature(g) == signature_oracle(g)


def test_signature_congruence_invariant():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, bound=4)
        g = IntMatrix([[m[i, j] + m[j, i] for j in range(n)] for i in range(n)])
        w = random_unimodular(rng, n)
        p, q, z = signature(g)
        assert p + q + z == n
        assert signature(w @ g @ w.transpose()) == (p, q, z)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_identity_empty():
    assert rational_kernel(IntMatrix.identity(3)) == []


def test_kernel_row():
    basis = rational_kernel(IntMatrix([[1, 1]]))
    assert len(basis) == 1
    assert basis[0] in ((1, -1), (-1, 1))


def test_kernel_saturated():
    basis = rational_kernel(IntMatrix([[2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    assert 2 * v[0] + 4 * v[1] == 0
    assert content(v) == 1
    snf = smith_normal_form(IntMatrix([[v[0]], [v[1]]]))
    assert snf.invariant_factors() == [1]


def test_kernel_random_annihilation_and_primitivity():
    rng = random.Random(23)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        basis = rational_kernel(m)
        snf = smith_normal_form(m)
        rank = len(snf.invariant_factors())
        assert len(basis) == cols - rank
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
            assert content(v) == 1


# ---------------------------------------------------------------------------
# helpers


def test_unimodular_inverse_roundtrip():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 5)
        w = random_unimodular(rng, n)
        assert w @ unimodular_inverse(w) == IntMatrix.identity(n)


def test_rational_inverse_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(47)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, bound=6)
        if det_exact(m) == 0:
            continue
        expected = sympy.Matrix(m.tolists()).inv()
        assert rational_inverse(m).entries == [
            [Fraction(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(n)]
        checked += 1
    assert checked >= 40


def test_rational_inverse_rejects_singular():
    for m in (IntMatrix([[1, 2], [2, 4]]), IntMatrix.zero(3, 3), IntMatrix([[0, 1, 0], [0, 2, 0], [1, 0, 1]])):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            rational_inverse(m)


def test_bezout_combination():
    rng = random.Random(31)
    for _ in range(50):
        vec = [rng.randint(-40, 40) for _ in range(rng.randint(1, 5))]
        g, coeffs = bezout_combination(vec)
        assert g == content(vec)
        assert sum(c * x for c, x in zip(coeffs, vec)) == g
    rng = random.Random(41)
    rows = [(0, 0, 5), (7,), (-3,), (0, 4, 0, 0), (6, -10, 15), (2, 4, -6, 8), (0, -9, 0, 12, 0),
            (-1, 0, 0), (12, 18), (0, 0, -2, 0, 0, 0)]
    for _ in range(120):
        scale = rng.choice((1, 1, 2, 6))  # content > 1 for some rows
        rows.append(tuple(scale * rng.choice((0, rng.randint(-30, 30), rng.randint(-30, 30)))
                          for _ in range(rng.randint(1, 6))))
    for row in rows:
        g, coeffs = bezout_combination(row)
        assert g == content(row)
        assert sum(a * b for a, b in zip(row, coeffs)) == g
        assert len(coeffs) == len(row)
    # move_primitive_vector's isometries depend on these exact coefficients
    pinned = {(0, 0, 5): (5, [0, 0, 1]), (0, -9, 0, 12, 0): (3, [0, 1, 0, 1, 0]),
              (6, -10, 15): (1, [-14, -7, 1]), (-4, 6, -9): (1, [-4, -4, -1]),
              (-21, 14, -6, 35): (1, [-1, -1, 1, 0]), (12, 18): (6, [-1, 1]),
              (-1, 0, 0): (1, [-1, 0, 0]), (0, 0, 0): (0, [0, 0, 0]), (): (0, [])}
    for row, expected in pinned.items():
        assert bezout_combination(row) == expected


def test_ldlt_reconstructs():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 4)
        b = random_matrix(rng, n, n, bound=3)
        g = b @ b.transpose() + IntMatrix.diagonal([1] * n)  # positive definite
        minors, numer = ldlt(g)
        assert minors[0] == 1
        for i in range(n):
            for j in range(n):
                val = sum(Fraction(numer[i][k] * numer[j][k], minors[k] * minors[k + 1])
                          for k in range(min(i, j) + 1))
                assert val == g[i, j]


def test_ldlt_minors_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 6)
        b = random_matrix(rng, n, n, bound=4)
        g = b @ b.transpose() + IntMatrix.diagonal([1] * n)
        m = sympy.Matrix(g.tolists())
        assert ldlt(g)[0] == [1] + [int(m[:k, :k].det()) for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# LLL


@st.composite
def skewed_definite_grams(draw):
    """B B^T + I, seen in a basis changed by random elementary column moves."""
    n = draw(st.integers(1, 8))
    b = IntMatrix(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                min_size=n, max_size=n)))
    w = IntMatrix.identity(n).tolists()
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for i, j, c in draw(st.lists(moves, max_size=16)):
        if i != j:
            for row in w:
                row[j] += c * row[i]
    w = IntMatrix(w)
    return w.transpose() @ (b @ b.transpose() + IntMatrix.identity(n)) @ w


@settings(max_examples=150, deadline=None)
@given(skewed_definite_grams())
def test_lll_reduce_gram_is_reduced(g):
    d_out, lam_out, basis = lll_reduce_gram(g)
    u = IntMatrix.from_columns(basis, g.rows)
    assert det_exact(u) in (1, -1)
    reduced = u.transpose() @ g @ u
    assert (d_out, lam_out) == ldlt(reduced)
    # d[k] is the Gram determinant of the first k vectors, lam[k][l] = d_{l+1} mu_kl
    mu, b_star_sq = gram_schmidt_oracle(reduced)
    d = [Fraction(1)]
    for b in b_star_sq:
        d.append(d[-1] * b)
    assert all(x.denominator == 1 for x in d)
    n = g.rows
    lam = [[d[l + 1] * mu[k][l] for l in range(k)] for k in range(n)]
    for k in range(n):
        for l in range(k):
            assert lam[k][l].denominator == 1
            assert abs(2 * lam[k][l]) <= d[l + 1]
    for k in range(1, n):
        assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2


# ---------------------------------------------------------------------------
# products and builders

zero_heavy_entries = st.sampled_from([0, 0, 0, 0, 1, -1]) | st.integers(-10**12, 10**12)


@st.composite
def product_operands(draw):
    """(A, B) with shapes n x k and k' x m, every size 0..5, mostly zeros;
    k' differs from k about one time in eight."""
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    k2 = k + 1 if draw(st.integers(0, 7)) == 0 else k

    def mat(rows, cols):
        return IntMatrix([[draw(zero_heavy_entries) for _ in range(cols)] for _ in range(rows)], cols=cols)

    return mat(n, k), mat(k2, m)


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_matmul_matches_triple_sum(operands):
    a, b = operands
    if a.cols != b.rows:
        with pytest.raises(ValueError, match="shape mismatch"):
            a @ b
        return
    got = a @ b
    assert got == matmul_oracle(a, b)
    assert (got.rows, got.cols) == (a.rows, b.cols)


@settings(max_examples=100, deadline=None)
@given(product_operands())
def test_builders_match_public_constructor(operands):
    a, b = operands
    rows = a.tolists()
    built = [
        (a.transpose(), [[rows[i][j] for i in range(a.rows)] for j in range(a.cols)], a.rows),
        (-a, [[-x for x in row] for row in rows], a.cols),
        (a + a, [[2 * x for x in row] for row in rows], a.cols),
        (a.hstack(a), [row + row for row in rows], 2 * a.cols),
        (a.block_diag(b), [row + [0] * b.cols for row in rows]
         + [[0] * a.cols + row for row in b.tolists()], a.cols + b.cols),
        (IntMatrix.from_columns(a.columns(), a.rows), rows, a.cols),
        (IntMatrix.identity(a.rows), [[int(i == j) for j in range(a.rows)] for i in range(a.rows)], a.rows),
    ]
    for got, entries, cols in built:
        expected = IntMatrix(entries, cols=cols)
        assert got == expected and hash(got) == hash(expected)
        assert (got.rows, got.cols) == (expected.rows, expected.cols)


def test_hash_is_cached_and_matches_equality():
    m = k3_lattice().gram.transpose()  # a fresh matrix from the unchecked constructor
    assert m._hash is None
    h = hash(m)
    assert m._hash == h == hash(m) == hash(IntMatrix(m.tolists()))


def test_sum_of_different_shapes_is_rejected():
    with pytest.raises(ValueError, match="shape mismatch 1x2 \\+ 1x1"):
        IntMatrix([[1, 2]]) + IntMatrix([[1]])
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMatrix([[1], [2]]) + IntMatrix([[1]])
    assert IntMatrix.zero(0, 3) + IntMatrix.zero(0, 3) == IntMatrix.zero(0, 3)


def test_from_columns_rejects_ragged_or_wrong_length_columns():
    with pytest.raises(ValueError, match="column length mismatch"):
        IntMatrix.from_columns([(1, 2), (3,)], 2)
    with pytest.raises(ValueError, match="column length mismatch"):
        IntMatrix.from_columns([(1, 2, 3)], 2)
    assert IntMatrix.from_columns([(), ()], 0) == IntMatrix.zero(0, 2)
    assert IntMatrix.from_columns([], 3) == IntMatrix.zero(3, 0)


def test_constructors_reject_ragged_rows_and_wrong_column_counts():
    with pytest.raises(ValueError, match="ragged rows"):
        RatMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="rows have 2 columns, not 5"):
        IntMatrix([[1, 2]], cols=5)
    assert IntMatrix([[1, 2]], cols=2).cols == 2
    assert IntMatrix([], cols=5).cols == 5
    assert RatMatrix([[1, 2], [3, 4]]).cols == 2


def test_rational_apply_rejects_wrong_vector_length():
    m = RatMatrix([[1, 2]])
    with pytest.raises(ValueError, match="vector length mismatch"):
        m.apply([1])
    assert m.apply([1, Fraction(1, 2)]) == [Fraction(2)]
