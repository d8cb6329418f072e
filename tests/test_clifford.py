import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    find_polarization_oracle,
    gen_by_anticommutation,
    mono_trace_by_module_loop,
    phi_a_oracle,
    phi_gram_oracle,
    polarization_candidates,
    project_endo_by_dense_loop,
    trace_form_by_full_recurrence,
)
from k3lattices import clifford
from k3lattices.clifford import (
    CliffordElement,
    EndoMatrix,
    PolarizationElement,
    conjugation_preserves_lattice,
    even_part,
    find_polarization_element,
    gspin_generator,
    is_even,
    left_mul_matrix,
    phi_a,
    phi_gram,
    project_endo_to_l,
    reversal,
    trace_of_left_mul,
    trace_pairing_identity,
)
from k3lattices.lattices import Lattice, big_l, direct_sum, e8, hyperbolic_u, k3_lattice, l_d, rank_one
from k3lattices.linalg import IntMatrix, det_exact

I1 = rank_one(1)
I2 = direct_sum(rank_one(1), rank_one(1))
I5 = direct_sum(*(rank_one(1) for _ in range(5)))
U = hyperbolic_u()


def e8_sublattice_rank4():
    g = IntMatrix([[e8().gram[i, j] for j in range(4)] for i in range(4)])
    return Lattice(4, g)


def random_element(rng, host, terms=3, bound=3):
    coeffs = {}
    for _ in range(terms):
        coeffs[rng.randrange(1 << host.rank)] = rng.randint(-bound, bound)
    return CliffordElement(host, coeffs)


# ---------------------------------------------------------------------------
# multiplication


def test_generator_squares_to_norm():
    x = CliffordElement.generator(I1, 0)
    assert x * x == CliffordElement.scalar(I1, 1)


def test_u_anticommutator():
    e = CliffordElement.generator(U, 0)
    f = CliffordElement.generator(U, 1)
    assert e * f + f * e == CliffordElement.scalar(U, 2)
    assert e * e == CliffordElement.scalar(U, 0)


def test_unital():
    rng = random.Random(3)
    host = e8_sublattice_rank4()
    one = CliffordElement.scalar(host, 1)
    for _ in range(10):
        x = random_element(rng, host)
        assert one * x == x
        assert x * one == x


def test_associativity_random():
    rng = random.Random(5)
    host = e8_sublattice_rank4()
    for _ in range(200):
        x = random_element(rng, host, terms=2)
        y = random_element(rng, host, terms=2)
        z = random_element(rng, host, terms=2)
        assert (x * y) * z == x * (y * z)


def test_bilinearity():
    rng = random.Random(7)
    host = e8_sublattice_rank4()
    for _ in range(20):
        x, y, z = (random_element(rng, host, terms=2) for _ in range(3))
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


# ---------------------------------------------------------------------------
# reversal


def test_reversal_fixes_low_degree():
    rng = random.Random(9)
    host = e8_sublattice_rank4()
    one = CliffordElement.scalar(host, 5)
    assert reversal(one) == one
    for i in range(4):
        g = CliffordElement.generator(host, i)
        assert reversal(g) == g


def test_reversal_orthogonal_degree_two_sign():
    x = CliffordElement(I2, {0b11: 1})
    assert reversal(x) == CliffordElement(I2, {0b11: -1})


def test_reversal_u_cross_term():
    # reversal(e f) = f e = 2 - e f in C(U)
    x = CliffordElement(U, {0b11: 1})
    assert reversal(x) == CliffordElement(U, {0: 2, 0b11: -1})


def test_reversal_antiautomorphism():
    rng = random.Random(11)
    host = e8_sublattice_rank4()
    for _ in range(60):
        x = random_element(rng, host, terms=2)
        y = random_element(rng, host, terms=2)
        assert reversal(x * y) == reversal(y) * reversal(x)
        assert reversal(reversal(x)) == x


# ---------------------------------------------------------------------------
# grading


def test_even_part_examples():
    x = CliffordElement(I2, {0: 1, 0b01: 1})
    assert even_part(x) == CliffordElement.scalar(I2, 1)
    y = CliffordElement(I2, {0b11: 1})
    assert even_part(y) == y and is_even(y)
    assert even_part(even_part(x)) == even_part(x)


def test_even_subalgebra_closed():
    rng = random.Random(13)
    host = e8_sublattice_rank4()
    for _ in range(40):
        x = even_part(random_element(rng, host))
        y = even_part(random_element(rng, host))
        assert is_even(x * y)


# ---------------------------------------------------------------------------
# matrices and traces


def test_left_mul_identity():
    one = CliffordElement.scalar(I2, 1)
    assert left_mul_matrix(one).entries == IntMatrix.identity(4)


def test_left_mul_rank_one():
    x = CliffordElement.generator(I1, 0)
    assert left_mul_matrix(x).entries == IntMatrix([[0, 1], [1, 0]])


def test_left_mul_homomorphism():
    rng = random.Random(17)
    for _ in range(20):
        x = random_element(rng, U, terms=2)
        y = random_element(rng, U, terms=2)
        assert left_mul_matrix(x * y).entries == left_mul_matrix(x).entries @ left_mul_matrix(y).entries


def test_trace_of_left_mul_matches_matrix():
    rng = random.Random(19)
    host = e8_sublattice_rank4()
    for _ in range(15):
        x = random_element(rng, host)
        mat = left_mul_matrix(x).entries
        assert trace_of_left_mul(x) == sum(mat[i, i] for i in range(mat.rows))


def test_rank_cap_enforced():
    big = direct_sum(*(rank_one(1) for _ in range(11)))
    with pytest.raises(ValueError):
        left_mul_matrix(CliffordElement.scalar(big, 1))


# ---------------------------------------------------------------------------
# the pairing phi_a


def test_phi_identity_element():
    one = CliffordElement.scalar(I2, 1)
    assert phi_a(one, one, one) == 4  # 2^2


def test_phi_bilinear():
    rng = random.Random(23)
    for _ in range(25):
        x, y, z, a = (random_element(rng, U, terms=2) for _ in range(4))
        assert phi_a(x + y, z, a) == phi_a(x, z, a) + phi_a(y, z, a)
        assert phi_a(x, y + z, a) == phi_a(x, y, a) + phi_a(x, z, a)


def test_find_polarization_i2():
    pol = find_polarization_element(I2)
    assert reversal(pol.element) == -pol.element
    assert pol.gram == -pol.gram.transpose()
    assert det_exact(pol.gram) != 0
    rng = random.Random(29)
    for _ in range(200):
        x = random_element(rng, I2)
        assert phi_a(x, x, pol.element) == 0


def test_is_alternating_needs_antisymmetry_and_a_zero_diagonal(monkeypatch):
    # pol.gram checks what phi_gram returns, so a patched phi_gram feeds it
    # each matrix; only the alternating ones come back
    pol = find_polarization_element(U)
    for rows, alternating in (([[0, 1], [-1, 0]], True), ([[0, 1], [1, 0]], False),
                              ([[1, 0], [0, -1]], False), ([[0, 2, -3], [-2, 0, 5], [3, -5, 0]], True),
                              ([[0, 2, -3], [-2, 0, 5], [3, -4, 0]], False)):
        monkeypatch.setattr(clifford, "phi_gram", lambda a, rows=rows: IntMatrix(rows))
        fresh = PolarizationElement(pol.element)
        if alternating:
            assert fresh.gram == IntMatrix(rows)
        else:
            with pytest.raises(AssertionError, match="not alternating"):
                fresh.gram


def test_find_polarization_u():
    pol = find_polarization_element(U)
    assert reversal(pol.element) == -pol.element
    assert pol.gram == -pol.gram.transpose()
    assert det_exact(pol.gram) != 0
    assert phi_gram(pol.element) == pol.gram


def test_no_polarization_in_rank_one():
    for host in (I1, rank_one(0), Lattice(0, IntMatrix([], cols=0))):
        with pytest.raises(ValueError, match=f"^no polarization element: rank {host.rank} < 2"):
            find_polarization_element(host)


@st.composite
def clifford_hosts(draw):
    """Symmetric Grams of rank <= 5, some with zero diagonal, some degenerate
    (the last basis vector pairs exactly like the first)."""
    n = draw(st.integers(1, 5))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        for i in range(n):
            g[i][i] = 0
    if n > 1 and draw(st.booleans()):
        for i in range(n):
            g[i][n - 1] = g[n - 1][i] = g[i][0]
        g[n - 1][n - 1] = g[0][0]
    return Lattice(n, IntMatrix(g))


@settings(max_examples=80, deadline=None)
@given(clifford_hosts())
def test_trace_closed_form_matches_module_loop(host):
    for mask in range(1 << host.rank):
        assert trace_of_left_mul(CliffordElement(host, {mask: 1})) == mono_trace_by_module_loop(host, mask)


def test_phi_gram_matches_oracle():
    rng = random.Random(47)
    hosts = [I2, U, direct_sum(U, rank_one(-1)), e8_sublattice_rank4(),
             Lattice(3, IntMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])),
             Lattice(3, IntMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]]))]
    for host in hosts:
        traces = {}
        for _ in range(4):
            a = random_element(rng, host, terms=3)
            assert phi_gram(a) == phi_gram_oracle(a, traces)


@settings(max_examples=80, deadline=None)
@given(clifford_hosts())
def test_generator_products_match_anticommutation(host):
    alg = clifford.CliffordAlgebra(host.gram)
    for mask in range(1 << host.rank):
        for j in range(host.rank):
            product = alg.gen(mask, j)
            assert product == gen_by_anticommutation(host.gram, mask, j)
            assert 0 not in product.values()


def test_trace_form_at_ranks_zero_to_two():
    # rank 0 has no slot to gather, and from rank 1 on every gather has
    # 2^n >= 2 indices, so itemgetter returns tuples, never a single entry
    hosts = [Lattice(0, IntMatrix([], cols=0)), rank_one(3), rank_one(0), I2, U,
             Lattice(2, IntMatrix([[1, 1], [1, 1]])), Lattice(2, IntMatrix([[0, 2], [2, 0]])),
             Lattice(2, IntMatrix([[-2, 1], [1, 3]]))]
    for host in hosts:
        assert clifford.CliffordAlgebra(host.gram).trace_form() == trace_form_by_full_recurrence(host)
    assert clifford.CliffordAlgebra(hosts[0].gram).trace_form() == [[1]]


def test_trace_form_matches_full_recurrence():
    # the parity skip stores 0 exactly where the full recurrence sums to 0
    rng = random.Random(67)
    for n in range(2, 7):
        for kind in ("general", "degenerate-plane", "singular"):
            if kind == "degenerate-plane" and n < 3:
                continue
            host = _seeded_host(rng, n, kind)
            assert clifford._algebra(host).trace_form() == trace_form_by_full_recurrence(host)


def test_phi_gram_matches_dense_product_rank_seven():
    # a host drawn like clifford-pairing's general rank-7 hosts: +-1..3 on the
    # diagonal, +-1 on the cycle (i, i+1 mod 7)
    rng = random.Random(71)
    n = 7
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.choice((1, -1)) * rng.randint(1, 3)
            g[i][(i + 1) % n] = g[(i + 1) % n][i] = rng.choice((1, -1))
        if det_exact(IntMatrix(g)) != 0:
            break
    host = Lattice(n, IntMatrix(g))
    b = trace_form_by_full_recurrence(host)
    for a in (find_polarization_element(host).element, random_element(rng, host, terms=3)):
        cols = [list((CliffordElement(host, {j: 1}) * a).coeffs.items()) for j in range(1 << n)]
        assert phi_gram(a) == IntMatrix([[sum(c * row[k] for k, c in col) for col in cols] for row in b])


def _blade_masks(n):
    """The masks S with |S| = 2, then 3, in increasing order."""
    return [m for k in (2, 3) for m in range(1 << n) if bin(m).count("1") == k]


def _minor(host, mask):
    idx = [i for i in range(host.rank) if mask >> i & 1]
    return det_exact(IntMatrix([[host.gram[i, j] for j in idx] for i in idx]))


def test_closed_form_determinants_match_det_exact():
    # det B' = 2^(n 2^n) det(G)^(2^(n-1)), and det phi_gram(a) = det B' det R_a
    # with det R_a = +-c^(2^(n-1)) when a^2 = c, for every |S| = 2, 3
    # candidate a: the whole certificate of `find_polarization_element`
    rng = random.Random(89)
    seen = set()
    for n in range(1, 6):
        for kind in ("general", "singular", "degenerate-plane")[:n]:
            host = _seeded_host(rng, n, kind)
            dim, half = 1 << n, 1 << n - 1
            det_b = det_exact(IntMatrix(clifford._algebra(host).trace_form()))
            assert det_b == 2 ** (n * dim) * det_exact(host.gram) ** half
            basis, candidates = polarization_candidates(host, max_support=1)
            for a in candidates[:4 * len(_blade_masks(n))]:
                square = (a * a).coeffs
                assert set(square) <= {0}
                c = square.get(0, 0)
                assert abs(det_exact(phi_gram(a))) == abs(det_b) * abs(c) ** half
                seen.add((det_b != 0, c != 0))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_search_accepts_the_first_blade_with_a_nonzero_square(monkeypatch):
    # for |S| = 2, 3 the basis element w_S is the blade on S, of square
    # -det G_S; the search takes the first S whose minor is nonzero, at
    # coefficient 1, after the four multiples of each earlier blade, and
    # builds no phi-Gram; pol.gram builds that one, once
    built = []

    def counted(a):
        built.append(a)
        return phi_gram(a)

    monkeypatch.setattr(clifford, "phi_gram", counted)
    rng = random.Random(79)
    for n, kind in ((2, "general"), (3, "general"), (4, "degenerate-plane"), (5, "degenerate-plane"),
                    (6, "general"), (6, "degenerate-plane")):
        host = _seeded_host(rng, n, kind)
        masks = _blade_masks(n)
        basis, _ = polarization_candidates(host, max_support=1)
        minors = [_minor(host, m) for m in masks]
        for w, minor in zip(basis, minors):
            assert w * w == CliffordElement.scalar(host, -minor)
        first = next(i for i, minor in enumerate(minors) if minor)
        built.clear()
        pol = find_polarization_element(host)
        assert (pol.element, pol.candidates_tried) == (basis[first], 4 * first + 1)
        assert built == []
        assert pol.gram is pol.gram
        assert built == [pol.element]
        if kind == "degenerate-plane":
            assert first >= 1


def _seeded_host(rng, n, kind):
    """general: +-1..3 diagonal, entries in -1..1 off it, det != 0;
    degenerate-plane: e0 isotropic and orthogonal to e1, pairing with e2;
    singular: the last basis vector pairs exactly like the first."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.choice((1, -1)) * rng.randint(1, 3)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-1, 1)
        if kind == "degenerate-plane":
            g[0][0] = g[0][1] = g[1][0] = 0
            g[0][2] = g[2][0] = rng.choice((1, -1))
        if kind == "singular":
            for i in range(n):
                g[i][n - 1] = g[n - 1][i] = g[i][0]
            g[n - 1][n - 1] = g[0][0]
            return Lattice(n, IntMatrix(g))
        if det_exact(IntMatrix(g)) != 0:
            return Lattice(n, IntMatrix(g))


def test_find_polarization_matches_oracle():
    rng = random.Random(53)
    cases = [(2, "general"), (3, "general"), (4, "general"), (5, "general"), (6, "general"),
             (6, "degenerate-plane"), (2, "singular"), (3, "singular"),
             # an early accept, and a search over the whole candidate space
             # that finds nothing
             (5, "degenerate-plane"), (4, "singular")]
    for n, kind in cases:
        host = _seeded_host(rng, n, kind)
        try:
            expected = find_polarization_oracle(host)
        except ValueError:
            assert kind == "singular"
            with pytest.raises(ValueError, match="^no polarization element: det G = 0"):
                find_polarization_element(host)
            continue
        pol = find_polarization_element(host)
        assert (pol.element, pol.gram, pol.candidates_tried) == expected
        if kind == "degenerate-plane":
            assert pol.candidates_tried == 5


def _rank_test_host(n):
    """Diagonal in {-2, 2, 4}, off-diagonal in {0, 1, -1}, drawn by Random(3)."""
    rng = random.Random(3)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = rng.choice((-2, 2, 4))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.choice((0, 1, -1))
    return Lattice(n, IntMatrix(g))


def test_find_polarization_rank_eight():
    # the 256 x 256 phi-Gram is built once, and nothing eliminates it: it is
    # nondegenerate because det G != 0 and a^2 = 9 is a nonzero scalar (see
    # test_closed_form_determinants_match_det_exact)
    host = _rank_test_host(8)
    pol = find_polarization_element(host)
    assert pol.element == CliffordElement(host, {0: 1, 3: 1})
    assert pol.candidates_tried == 1 and pol.gram.rows == 256
    assert pol.gram == -pol.gram.transpose() and pol.gram == phi_gram(pol.element)
    assert host.is_nondegenerate() and pol.element * pol.element == CliffordElement.scalar(host, 9)


def test_find_polarization_rank_nine_and_the_cap():
    # rank 9 is inside MATRIX_RANK_CAP = 10; rank 11 is not, and there the
    # search answers while every builder of a 4^n table raises
    host = _rank_test_host(9)
    pol = find_polarization_element(host)
    assert pol.element == CliffordElement(host, {0: 1, 3: 1})
    assert pol.candidates_tried == 1 and pol.gram.rows == 512 and pol.gram == -pol.gram.transpose()
    assert host.is_nondegenerate() and pol.element * pol.element == CliffordElement.scalar(host, -3)
    big = direct_sum(*(rank_one(1) for _ in range(11)))
    pol = find_polarization_element(big)
    assert pol.element == CliffordElement(big, {3: 1}) and pol.candidates_tried == 1
    for build in (lambda: phi_gram(pol.element), clifford._algebra(big).trace_form, lambda: pol.gram):
        with pytest.raises(ValueError, match="^rank 11 exceeds the matrix cap 10$"):
            build()
    assert clifford._algebra(big).table_sizes()["trace_form_rows"] == 0


def test_find_polarization_at_the_paper_rank():
    # the blade e_0 ^ e_1 = e_0 e_1 - b(0, 1) of Lambda, L_5 and L has square
    # -det G_{01} != 0, so it is the first candidate, found with no trace form;
    # a singular host of the same rank is refused from det G alone
    for host in (k3_lattice(), l_d(5), big_l()):
        pol = find_polarization_element(host)
        assert pol.element == CliffordElement(host, {0: -host.gram[0, 1], 0b11: 1})
        assert pol.candidates_tried == 1
        square = pol.element * pol.element
        assert set(square.coeffs) == {0} and square.coeffs[0] != 0
        assert clifford._algebra(host).table_sizes()["trace_form_rows"] == 0
    with pytest.raises(ValueError, match="^no polarization element: det G = 0"):
        find_polarization_element(direct_sum(*(rank_one(1) for _ in range(20)), rank_one(0)))


def test_square_certificate_matches_det_r_a():
    # if a^2 is a scalar c, then R_a^2 = c I, and det R_a != 0 exactly when
    # c != 0; checked on the first 40 of `polarization_candidates`, which
    # reach the sums of two basis elements on rank 3.  det R_{ka} = k^dim
    # det R_a, so det_exact runs once per candidate up to scaling.
    rng = random.Random(73)
    seen = set()
    for n in range(2, 7):
        for kind in ("general", "degenerate-plane") if n >= 3 else ("general",):
            host = _seeded_host(rng, n, kind)
            basis, candidates = polarization_candidates(host)
            units = {}
            for tried, a in enumerate(candidates[:40], 1):
                square = (a * a).coeffs
                if set(square) <= {0}:
                    k = a.content() * (1 if max(a.coeffs.items())[1] > 0 else -1)
                    key = tuple(sorted((m, c // k) for m, c in a.coeffs.items()))
                    if key not in units:
                        r_a_t = [[(CliffordElement(host, {j: 1}) * a).coeffs.get(m, 0) for m in range(1 << n)]
                                 for j in range(1 << n)]
                        units[key] = det_exact(IntMatrix(r_a_t)) != 0
                    assert (square.get(0, 0) != 0) == units[key]
                    seen.add((tried > 4 * len(basis), units[key]))
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


def test_polarization_counters_and_table_sizes():
    host = direct_sum(U, rank_one(1))
    pol = find_polarization_element(host)
    assert pol.candidates_tried == 1
    # the search reverses e_0 e_1, reading 1 * e_1 and e_1 e_0, and squares
    # a = e_0 e_1 - 1: a e_0 reads e_0 e_1 e_0 and 1 * e_0, and a e_0 = e_0
    # then reads e_0 e_1.  Those five products are all it tables; it builds
    # no trace form and reads no Pfaffian
    assert clifford._algebra(host).table_sizes() == {
        "generator_products": 5, "pfaffians": 1, "trace_form_rows": 0}
    pol.gram
    sizes = clifford._algebra(host).table_sizes()
    assert sizes["trace_form_rows"] == 8
    # pol.gram reads 14 of the 8 * 3 products e_mask e_j, all in the
    # products e_J a of phi_gram, a = e_0 e_1 - 1: e_J e_0 for the 8 masks J,
    # then e_m e_1 for the 6 monomials m of those.  b(0, 0) = 0 and b(0, 1) is
    # the only nonzero b(0, h), so every term of e_J e_0 holds e_0 or lacks
    # e_1: e_1 e_1 and e_1 e_2 e_1 are never read.  The five products of the
    # search are among these; nothing steps by e_2, and the trace form
    # gathers its rows from the Gram and reads no product
    assert sizes["generator_products"] == 14
    assert sizes["pfaffians"] == 8
    # the default keeps the dataclass constructible from the element alone
    assert clifford.PolarizationElement(pol.element).candidates_tried == 0


def test_algebra_tables_freed_with_hosts():
    assert not [name for name, value in vars(clifford).items()
                if isinstance(value, dict) and not name.startswith("__")]
    gc.collect()
    before = len(clifford._algebras)
    rng = random.Random(59)
    hosts = {}
    while len(hosts) < 20:
        host = _seeded_host(rng, 2 + len(hosts) % 4, "general")
        if host not in clifford._algebras:  # an equal live host would share its algebra
            hosts[host.gram] = host
    refs = []
    for host in hosts.values():
        pol = find_polarization_element(host)
        phi_a(pol.element, pol.element, pol.element)
        refs.append(weakref.ref(clifford._algebra(host)))
    assert len(clifford._algebras) == before + 20
    del hosts, host, pol
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(clifford._algebras) == before


def test_phi_a_matches_oracle_on_both_routes():
    # warm: read from the trace form that pol.gram built;
    # fresh: generator steps and Pfaffians, with no trace form built
    rng = random.Random(97)
    for n in range(1, 8):
        warm, fresh = _seeded_host(rng, n, "general"), _seeded_host(rng, n, "general")
        if n > 1:
            pol = find_polarization_element(warm)
            pol.gram
            warm_a = pol.element
        else:
            warm_a = random_element(rng, warm)
            clifford._algebra(warm).trace_form()
        for host, a in ((warm, warm_a), (fresh, random_element(rng, fresh))):
            for _ in range(10):
                x, y = random_element(rng, host), random_element(rng, host)
                assert phi_a(x, y, a) == phi_a_oracle(x, y, a)
        assert clifford._algebra(warm).table_sizes()["trace_form_rows"] == 1 << n
        assert clifford._algebra(fresh).table_sizes()["trace_form_rows"] == 0


def test_phi_a_on_the_k3_lattice_builds_no_trace_form():
    host = k3_lattice()
    a = CliffordElement(host, {0: -host.gram[0, 1], 0b11: 1})  # the blade e_0 ^ e_1
    x = CliffordElement(host, {0: 2, 1 << 3: -1, 1 << 5 | 1 << 21: 3})
    y = CliffordElement(host, {1 << 21: 1, 0b110: 2, 1 << 7 | 1 << 8 | 1 << 20: -1})
    assert phi_a(x, y, a) == phi_a_oracle(x, y, a) == -phi_a(y, x, a)
    assert clifford._algebra(host).table_sizes()["trace_form_rows"] == 0


def test_phi_gspin_scaling_law():
    # phi_a(gx, gy) = b(v,v) b(w,w) phi_a(x, y) for g = v*w, any a
    rng = random.Random(31)
    pol = find_polarization_element(I2)
    pair = gspin_generator((1, 0), (1, 1), I2)
    for _ in range(30):
        x = random_element(rng, I2, terms=2)
        y = random_element(rng, I2, terms=2)
        lhs = phi_a(pair.g * x, pair.g * y, pol.element)
        assert lhs == pair.denominator * phi_a(x, y, pol.element)


# ---------------------------------------------------------------------------
# gspin conjugation


def test_gspin_same_vector_is_scalar():
    pair = gspin_generator((1, 0), (1, 0), I2)
    assert pair.g == CliffordElement.scalar(I2, 1)
    report = conjugation_preserves_lattice(pair, I2)
    assert report.preserves
    assert report.images == ((1, 0), (0, 1))


def test_gspin_rotation_by_pi():
    pair = gspin_generator((1, 0), (0, 1), I2)
    report = conjugation_preserves_lattice(pair, I2)
    assert report.preserves
    assert report.images == ((-1, 0), (0, -1))


def test_gspin_rejects_isotropic():
    with pytest.raises(ValueError):
        gspin_generator((1, 0), (0, 1), U)


def test_gspin_preserves_norms():
    rng = random.Random(37)
    pair = gspin_generator((1, 0, 0, 0, 0), (0, 1, 1, 0, 0), I5)
    report = conjugation_preserves_lattice(pair, I5)
    assert report.preserves
    for _ in range(20):
        u = tuple(rng.randint(-3, 3) for _ in range(5))
        img = tuple(sum(report.images[j][i] * u[j] for j in range(5)) for i in range(5))
        assert I5.norm(img) == I5.norm(u)


def test_gspin_e8_norm2_report():
    lat = e8()
    v = (1, 0, 0, 0, 0, 0, 0, 0)
    w = (0, 1, 0, 0, 0, 0, 0, 0)
    assert lat.norm(v) == lat.norm(w) == 2
    pair = gspin_generator(v, w, lat)
    report = conjugation_preserves_lattice(pair, lat)
    # v _|_ w here, so conjugation is the composite of two integral
    # reflections: the report must come back clean
    assert report.preserves


def test_gspin_nonintegral_conjugation_reported():
    # conjugation by v*w equals s_v s_w on vectors; v = (1,1) in <2>+<4> has
    # norm 6 and a non-integral reflection, and the report says so
    amb = direct_sum(rank_one(2), rank_one(4))
    pair = gspin_generator((1, 1), (1, 0), amb)
    report = conjugation_preserves_lattice(pair, amb)
    assert not report.preserves
    assert report.failing_index is not None


# ---------------------------------------------------------------------------
# trace pairing and the projector


def test_trace_pairing_orthogonal():
    assert trace_pairing_identity((1, 0), (0, 1), I2) == (0, 0)


def test_trace_pairing_rank_one():
    assert trace_pairing_identity((1,), (1,), I1) == (2, 2)


def test_trace_pairing_random_even_lattice():
    rng = random.Random(41)
    host = e8_sublattice_rank4()
    for _ in range(200):
        v = tuple(rng.randint(-3, 3) for _ in range(4))
        w = tuple(rng.randint(-3, 3) for _ in range(4))
        lhs, rhs = trace_pairing_identity(v, w, host)
        assert lhs == rhs == 16 * host.pairing(v, w)


def test_trace_pairing_k3_lattice_needs_no_cap():
    host = k3_lattice()
    rng = random.Random(22)
    for _ in range(5):
        v = tuple(rng.randint(-3, 3) for _ in range(22))
        w = tuple(rng.randint(-3, 3) for _ in range(22))
        b = host.pairing(v, w)
        assert trace_pairing_identity(v, w, host) == (2 ** 22 * b, 2 ** 22 * b)
    e0 = (1,) + (0,) * 21
    assert trace_pairing_identity(e0, e0, host) == (2 ** 23, 2 ** 23)  # e0^2 = 2


def test_project_round_trip_i2():
    v = (3, -2)
    f = left_mul_matrix(CliffordElement.from_vector(I2, v))
    assert project_endo_to_l(f, I2) == v


def test_project_identity_endo_is_zero():
    f = EndoMatrix(4, IntMatrix.identity(4))
    assert project_endo_to_l(f, I2) == (0, 0)


def test_project_random_round_trips():
    rng = random.Random(43)
    hosts = [I5, direct_sum(U, rank_one(1)), direct_sum(U, U)]
    for host in hosts:
        for _ in range(30):
            v = tuple(rng.randint(-4, 4) for _ in range(host.rank))
            f = left_mul_matrix(CliffordElement.from_vector(host, v))
            assert project_endo_to_l(f, host) == v


@pytest.mark.parametrize("n", [3, 11])
def test_project_above_the_matrix_cap(n):
    # f = 2^n E_{0, e_0} gives t = 2^n e_0, so c = G^-1 e_0 = e_1 on U + <1>^(n-2);
    # the projector builds no 2^n x 2^n matrix, so rank 11 answers like rank 3
    host = direct_sum(U, *(rank_one(1) for _ in range(n - 2)))
    dim = 1 << n
    rows = (tuple(dim if k == 1 else 0 for k in range(dim)),) + ((0,) * dim,) * (dim - 1)
    f = EndoMatrix(dim, IntMatrix._trusted(rows, dim))
    assert project_endo_to_l(f, host) == (0, 1) + (0,) * (n - 2)
    if n <= 10:
        assert project_endo_to_l(f, host) == project_endo_by_dense_loop(f, host)
    # an f of the wrong size is refused by its size, also above the old rank cap
    with pytest.raises(ValueError, match="^endomorphism dimension does not match the host$"):
        project_endo_to_l(EndoMatrix(4, IntMatrix.identity(4)), host)


def test_project_requires_unimodular():
    amb = direct_sum(rank_one(2), rank_one(1))
    f = EndoMatrix(4, IntMatrix.identity(4))
    with pytest.raises(ValueError):
        project_endo_to_l(f, amb)


def _unimodular_host(rng, n):
    """U^T D U with D diagonal +-1 and U = 1 + a +-1 superdiagonal."""
    u = [[1 if j == i else rng.choice((1, -1)) if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    d = [rng.choice((1, -1)) for _ in range(n)]
    return Lattice(n, IntMatrix([[sum(u[k][i] * d[k] * u[k][j] for k in range(n)) for j in range(n)]
                                 for i in range(n)]))


def test_project_matches_dense_loop():
    rng = random.Random(73)
    for n in range(2, 11):
        host = _unimodular_host(rng, n)
        assert host.is_unimodular()
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        masks = [0] + [1 << i for i in range(n)] + [1 << i | 1 << j for i in range(n) for j in range(i)]
        low_degree = CliffordElement(host, {m: rng.choice((1, -1)) * rng.randint(1, 3) for m in rng.sample(masks, 4)})
        elements = [CliffordElement.from_vector(host, v), low_degree]
        for x in elements:
            f = left_mul_matrix(x)
            assert project_endo_to_l(f, host) == project_endo_by_dense_loop(f, host)
        assert project_endo_to_l(left_mul_matrix(elements[0]), host) == v


def test_project_matrix_unit_is_not_divisible():
    # f = E_{0, e_j}: t_j = Tr(f L_{e_j}) = 1, which 2^n does not divide
    host = _unimodular_host(random.Random(79), 3)
    for j in range(3):
        f = EndoMatrix(8, IntMatrix([[int(r == 0 and k == 1 << j) for k in range(8)] for r in range(8)]))
        with pytest.raises(AssertionError, match="not divisible by 2\\^n") as got:
            project_endo_to_l(f, host)
        with pytest.raises(AssertionError) as expected:
            project_endo_by_dense_loop(f, host)
        assert str(got.value) == str(expected.value)
