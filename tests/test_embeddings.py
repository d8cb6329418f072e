from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lattices.embeddings import (
    FourSquareWitness,
    complement_of_ld_in_l,
    embed_2d_in_i5,
    embed_ld_in_l,
    four_squares,
    v_d_in_k3,
)
from k3lattices.lattices import (
    check_disc_complement,
    is_primitive,
    k3_lattice,
    l_d,
    orthogonal_complement,
)


def four_squares_oracle(m):
    """All sorted four-square decompositions by exhaustive search."""
    out = []
    for z in range(isqrt(m), -1, -1):
        for w in range(z, -1, -1):
            for v in range(w, -1, -1):
                rest = m - z * z - w * w - v * v
                if rest < 0:
                    continue
                u = isqrt(rest)
                if u * u == rest and u <= v:
                    out.append((z, w, v, u))
    return out


def test_four_squares_zero():
    assert four_squares(0).parts == (0, 0, 0, 0)


def test_four_squares_seven():
    assert four_squares(7).parts == (2, 1, 1, 1)
    assert four_squares(7).parts == max(four_squares_oracle(7))


def test_four_squares_99():
    assert four_squares(99).parts == (9, 4, 1, 1)
    assert four_squares(99).parts == max(four_squares_oracle(99))


def test_four_squares_small_exhaustive_vs_oracle():
    # wrong mod-8 pruning or a wrong step of the v loop first shows at m = 253, 254, 397 or 428
    for m in range(0, 500):
        witness = four_squares(m)
        assert sum(x * x for x in witness.parts) == m
        assert witness.parts == max(four_squares_oracle(m))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 7))
def test_four_squares_validity_property(m):
    witness = four_squares(m)
    z, w, v, u = witness.parts
    assert z * z + w * w + v * v + u * u == m
    assert z >= w >= v >= u >= 0


def test_four_squares_while_eight_divides_m():
    # every witness of m is twice a witness of m/4 when 8 | m, so 2 * 4^k answers at once
    for k in range(61):
        assert four_squares(2 * 4 ** k).parts == (2 ** k, 2 ** k, 0, 0)
    for m in range(8, 1001, 8):
        assert four_squares(m).parts == max(four_squares_oracle(m))


def test_four_squares_witness_validation():
    with pytest.raises(ValueError):
        FourSquareWitness(5, (1, 2, 0, 0))  # unsorted
    with pytest.raises(ValueError):
        FourSquareWitness(5, (2, 0, 0, 0))  # wrong sum


def test_embed_2d_in_i5_d1():
    emb = embed_2d_in_i5(1)
    assert emb.matrix.column(0) == (1, 1, 0, 0, 0)
    assert is_primitive(emb)


def test_embed_2d_in_i5_d3():
    emb = embed_2d_in_i5(3)
    assert emb.matrix.column(0) == (1, 2, 1, 0, 0)


def test_embed_2d_in_i5_always_primitive():
    for d in range(1, 40):
        emb = embed_2d_in_i5(d)
        assert emb.source.gram[0, 0] == 2 * d
        assert is_primitive(emb)


def test_embed_ld_in_l_metric_and_primitive():
    for d in list(range(1, 21)) + [35, 50]:
        emb = embed_ld_in_l(d)
        assert emb.matrix.rows == 25 and emb.matrix.cols == 21
        # metric property is enforced by the constructor; primitivity is the claim
        assert is_primitive(emb)


def test_embed_ld_complement_rank_and_disc():
    for d in (1, 2, 7):
        emb = embed_ld_in_l(d)
        comp = orthogonal_complement(emb)
        assert comp.source.rank == 4
        assert comp.source.disc() == 2 * d
        assert check_disc_complement(emb, comp).triple() == (2 * d, 2 * d, 2 * d)


def test_complement_of_ld_examples():
    assert complement_of_ld_in_l(1).disc() == 2
    assert complement_of_ld_in_l(7).disc() == 14


def test_complement_of_ld_positive_definite():
    # the complement sits inside the <1>^5 block, so it is (4,0)
    for d in (1, 3, 11, 25, 50):
        comp = complement_of_ld_in_l(d)
        assert comp.signature() == (4, 0, 0)
        assert comp.disc() == 2 * d


def test_v_d_basics():
    lam = k3_lattice()
    for d in (1, 2, 5):
        data = v_d_in_k3(d)
        assert lam.norm(data.vector) == -2 * d
        assert data.complement.source.rank == 21
        # complement gram equals L_d gram on the nose
        assert data.complement.source.gram == l_d(d).gram
        im = data.iso_matrix
        assert im.transpose() @ data.target.gram @ im == data.complement.source.gram


def test_v_d_positive_norm_variant():
    lam = k3_lattice()
    data = v_d_in_k3(3, positive_norm=True)
    assert lam.norm(data.vector) == 6
    assert data.target.gram[20, 20] == -6


def test_v_d_primitive():
    for d in (1, 4, 9):
        data = v_d_in_k3(d)
        assert 1 in {abs(x) for x in data.vector if x != 0}


def test_v_d_complement_isometry_range():
    for d in range(1, 51):
        data = v_d_in_k3(d)
        assert data.complement.source.gram == l_d(d).gram


def test_d_zero_rejected():
    for fn in (embed_2d_in_i5, embed_ld_in_l, v_d_in_k3):
        for d in (0, -3):
            with pytest.raises(ValueError, match="^d must be >= 1$"):
                fn(d)
