import random

import pytest

from _oracles import rank2_reduced_oracle, rank3_reduced_oracle
from k3lattices.enumeration import (
    bounded_picard_candidates,
    enumerate_lattices,
    transcendental_invariants,
)
from k3lattices.lattices import (
    direct_sum,
    k3_lattice,
    rank_one,
    saturate,
    sublattice_embedding,
)
from k3lattices.linalg import IntMatrix, det_exact, rational_kernel, signature


def test_rank1_enumeration():
    forms = enumerate_lattices(1, 3).forms
    assert [f[0, 0] for f in forms] == [1, 2, 3]


def test_rank2_spec_example():
    forms = enumerate_lattices(2, 4).forms
    triples = sorted((f[0, 0], f[0, 1], f[1, 1]) for f in forms)
    assert triples == sorted([(1, 0, 1), (1, 0, 2), (1, 0, 3), (2, 1, 2), (1, 0, 4), (2, 0, 2)])


def test_rank2_disc_one():
    forms = enumerate_lattices(2, 1).forms
    assert [(f[0, 0], f[0, 1], f[1, 1]) for f in forms] == [(1, 0, 1)]


def test_rank2_matches_oracle():
    for d in (1, 2, 5, 12, 20):
        got = {tuple(map(tuple, f.tolists())) for f in enumerate_lattices(2, d).forms}
        assert got == rank2_reduced_oracle(d)


def test_counts_monotone():
    prev = 0
    for d in range(1, 21):
        count = enumerate_lattices(2, d).count()
        assert count >= prev
        prev = count


def test_rank3_forms_valid_and_cover_small_discs():
    lst = enumerate_lattices(3, 8)
    seen_discs = set()
    for f in lst.forms:
        assert signature(f) == (3, 0, 0)
        d = det_exact(f)
        assert 1 <= d <= 8
        seen_discs.add(d)
        a, b, c = f[0, 0], f[1, 1], f[2, 2]
        assert a <= b <= c
        assert abs(2 * f[0, 1]) <= a and abs(2 * f[0, 2]) <= a and abs(2 * f[1, 2]) <= b
    # <1>+<1>+<d> realizes every disc up to the bound
    assert seen_discs == set(range(1, 9))


def test_rank3_includes_identity():
    forms = enumerate_lattices(3, 1).forms
    assert IntMatrix.identity(3) in forms


@pytest.mark.parametrize("even_only", [False, True])
def test_rank3_matches_seeber_box_oracle(even_only):
    for d in (1, 4, 8, 30, 32, 60, 108):  # 2d is a cube at 4, 32 and 108: a = b = c reaches the bound
        forms = enumerate_lattices(3, d, even_only).forms
        got = {tuple(map(tuple, f.tolists())) for f in forms}
        assert len(got) == len(forms)
        want = rank3_reduced_oracle(d)
        if even_only:
            want = {g for g in want if all(g[i][i] % 2 == 0 for i in range(3))}
        assert got == want


def test_forms_sorted_by_det_then_entries():
    for rank in (2, 3):
        keys = [(det_exact(f), f.tolists()) for f in enumerate_lattices(rank, 50).forms]
        assert all(x < y for x, y in zip(keys, keys[1:]))


def test_even_only_filter():
    lst = enumerate_lattices(2, 8, even_only=True)
    assert lst.forms
    for f in lst.forms:
        assert f[0, 0] % 2 == 0 and f[1, 1] % 2 == 0


def test_rank_validation():
    with pytest.raises(ValueError):
        enumerate_lattices(4, 5)


# ---------------------------------------------------------------------------
# transcendental invariants


def test_transcendental_u_diagonal():
    lam = k3_lattice()
    # e + f inside the first U-summand (indices 16, 17)
    vec = tuple(1 if i in (16, 17) else 0 for i in range(22))
    pic = sublattice_embedding(lam, [vec])
    t, disc_t, disc_pic = transcendental_invariants(pic)
    assert (disc_t, disc_pic) == (2, 2)
    assert t.rank == 21


def test_transcendental_e8_summand():
    lam = k3_lattice()
    cols = [lam.basis_vector(i) for i in range(8)]
    t, disc_t, disc_pic = transcendental_invariants(sublattice_embedding(lam, cols))
    assert (disc_t, disc_pic) == (1, 1)


def test_transcendental_random_saturated():
    rng = random.Random(71)
    lam = k3_lattice()
    done = 0
    while done < 8:
        cols = [[rng.randint(-2, 2) for _ in range(22)] for _ in range(2)]
        mat = IntMatrix.from_columns([tuple(c) for c in cols], 22)
        if rational_kernel(mat):
            continue
        pic = saturate(sublattice_embedding(lam, cols))
        if det_exact(pic.source.gram) == 0:
            continue
        t, disc_t, disc_pic = transcendental_invariants(pic)
        assert disc_t == disc_pic
        done += 1


def test_transcendental_rejects_unsaturated():
    lam = k3_lattice()
    vec = tuple(2 if i == 16 else 0 for i in range(22))
    with pytest.raises(ValueError):
        transcendental_invariants(sublattice_embedding(lam, [vec]))


def test_transcendental_rejects_nonunimodular_ambient():
    amb = direct_sum(rank_one(2), rank_one(1))
    with pytest.raises(ValueError):
        transcendental_invariants(sublattice_embedding(amb, [(1, 0)]))


# ---------------------------------------------------------------------------
# hyperbolic candidates


def test_picard_rank1():
    mats = bounded_picard_candidates(1, 4)
    assert [m[0, 0] for m in mats] == [2, 4]


def test_picard_rank2_includes_u_like():
    mats = bounded_picard_candidates(2, 4)
    assert IntMatrix([[0, 2], [2, 0]]) in mats
    for m in mats[2:]:  # skip the rank-1 entries
        if m.rows == 2:
            assert signature(m) == (1, 1, 0)
            assert abs(det_exact(m)) <= 4
            assert m[0, 0] % 2 == 0 and m[1, 1] % 2 == 0


def test_picard_empty_when_zero():
    assert bounded_picard_candidates(2, 0) == []
