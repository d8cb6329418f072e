"""Integer lattices: named constructions, invariants, and isometries.

A lattice is a free Z-module of finite rank carrying an integer symmetric
bilinear pairing, represented entirely by its Gram matrix.  Sign convention
throughout: E8 is positive definite, the hyperbolic plane U has Gram
[[0,1],[1,0]], so E8^2+U^3 has signature (19,3) and e - d*f has square -2d.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from operator import mul
from typing import Sequence

from .linalg import (
    IntMatrix,
    _smith_mod,
    bezout_combination,
    content,
    det_exact,
    rational_kernel,
    signature as matrix_signature,
    smith_normal_form,
)

Vector = tuple[int, ...]


@dataclass(frozen=True)
class Lattice:
    rank: int
    gram: IntMatrix
    label: str | None = None

    def __post_init__(self):
        if self.gram.rows != self.rank or self.gram.cols != self.rank:
            raise ValueError("gram matrix shape does not match rank")
        if not self.gram.is_symmetric():
            raise ValueError("gram matrix must be symmetric")

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> int:
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError("vector length mismatch")
        # G y is the sum of y_j (row j of G) since G is symmetric: skip y_j = 0
        total = 0
        for j, yj in enumerate(y):
            if yj:
                total += yj * sum(map(mul, x, self.gram.row(j)))
        return total

    def norm(self, x: Sequence[int]) -> int:
        return self.pairing(x, x)

    def det(self) -> int:
        return self._det

    @cached_property
    def _det(self) -> int:  # one Bareiss pass per lattice object
        return det_exact(self.gram)

    @cached_property
    def _sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row k holds the pairs (j, G_kj) with G_kj != 0."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.gram.tolists())

    def disc(self) -> int:
        """|det| of the Gram matrix (group order of the discriminant group)."""
        return abs(self.det())

    def signature(self) -> tuple[int, int, int]:
        return matrix_signature(self.gram)

    def is_unimodular(self) -> bool:
        return self.disc() == 1

    def is_nondegenerate(self) -> bool:
        return self.det() != 0

    def is_even(self) -> bool:
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))

    def basis_vector(self, i: int) -> Vector:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def __repr__(self) -> str:
        name = self.label or f"rank-{self.rank} lattice"
        return f"Lattice({name})"


@dataclass(frozen=True)
class LatticeEmbedding:
    """Metric embedding source -> target, columns of `matrix` are the images.

    `induced` is B^T G B for B = `matrix`, when the caller has already formed
    it (as `sublattice_embedding` does for the source Gram); otherwise it is
    computed here.  Either way it must equal the source Gram.  A nonsingular
    source Gram B^T G B already proves the columns independent; only a
    degenerate source needs det(B^T B) != 0.
    """

    source: Lattice
    target: Lattice
    matrix: IntMatrix
    induced: InitVar[IntMatrix | None] = None

    def __post_init__(self, induced: IntMatrix | None):
        if self.matrix.rows != self.target.rank or self.matrix.cols != self.source.rank:
            raise ValueError("embedding matrix shape mismatch")
        bt = self.matrix.transpose()
        if induced is None:
            induced = bt @ (self.target.gram @ self.matrix)
        if induced != self.source.gram:
            raise ValueError("matrix does not preserve the pairing")
        if not self.source.det() and det_exact(bt @ self.matrix) == 0:
            raise ValueError("embedding columns are linearly dependent")


@dataclass(frozen=True)
class Isometry:
    lattice: Lattice
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.lattice.rank or self.matrix.cols != self.lattice.rank:
            raise ValueError("isometry matrix shape mismatch")
        if self.matrix.transpose() @ (self.lattice.gram @ self.matrix) != self.lattice.gram:
            raise ValueError("matrix does not preserve the pairing")
        # g^T G g = G gives det(g)^2 det G = det G, so det g = +-1 unless G is degenerate
        if not self.lattice.det() and det_exact(self.matrix) not in (1, -1):
            raise ValueError("isometry must be unimodular")

    def apply(self, v: Sequence[int]) -> Vector:
        return self.matrix.apply(v)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (matrix product self.matrix @ other.matrix)."""
        if self.lattice.gram != other.lattice.gram:
            raise ValueError("isometries live on different lattices")
        return Isometry(self.lattice, self.matrix @ other.matrix)


@dataclass(frozen=True)
class DiscriminantForm:
    """The finite quadratic form on N^vee / N.

    Generators are lifted to rational vectors in the ambient coordinates of N;
    `bilinear` holds pairings of generators mod 1 and `quadratic` their norms,
    both as reduced nonnegative fractions.  Norms are taken mod 2 when N is
    even and mod 1 when N is odd: an odd lattice vector can have odd norm, so
    only the class mod 1 is independent of the lift.
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]
    bilinear: tuple[tuple[Fraction, ...], ...]
    quadratic: tuple[Fraction, ...]

    def order(self) -> int:
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1


# ---------------------------------------------------------------------------
# constructions

_E8_GRAM = IntMatrix(
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


def e8() -> Lattice:
    """Positive definite even unimodular rank-8 root lattice (Dynkin Gram)."""
    return Lattice(8, _E8_GRAM, "E8")


def hyperbolic_u() -> Lattice:
    return Lattice(2, IntMatrix([[0, 1], [1, 0]]), "U")


def rank_one(n: int) -> Lattice:
    return Lattice(1, IntMatrix([[n]]), f"<{n}>")


def direct_sum(*lattices: Lattice) -> Lattice:
    if not lattices:
        return Lattice(0, IntMatrix.zero(0, 0), "0")
    gram = lattices[0].gram
    for lat in lattices[1:]:
        gram = gram.block_diag(lat.gram)
    label = "+".join(l.label or "?" for l in lattices)
    return Lattice(gram.rows, gram, label)


def negate(a: Lattice) -> Lattice:
    return Lattice(a.rank, -a.gram, f"-({a.label})" if a.label else None)


def k3_lattice() -> Lattice:
    """E8^2 + U^3, rank 22: the second-cohomology lattice of a K3 surface."""
    lat = direct_sum(e8(), e8(), hyperbolic_u(), hyperbolic_u(), hyperbolic_u())
    return Lattice(lat.rank, lat.gram, "K3")


def l_d(d: int) -> Lattice:
    """E8^2 + U^2 + <2d>: primitive cohomology of a degree-2d polarized K3."""
    if d <= 0:
        raise ValueError("d must be >= 1")
    lat = direct_sum(e8(), e8(), hyperbolic_u(), hyperbolic_u(), rank_one(2 * d))
    return Lattice(lat.rank, lat.gram, f"L_{d}")


def big_l() -> Lattice:
    """E8^2 + U^2 + <1>^5: the rank-25 odd unimodular receiving lattice."""
    lat = direct_sum(
        e8(), e8(), hyperbolic_u(), hyperbolic_u(),
        rank_one(1), rank_one(1), rank_one(1), rank_one(1), rank_one(1),
    )
    return Lattice(lat.rank, lat.gram, "L")


# ---------------------------------------------------------------------------
# invariants

def discriminant_group(n: Lattice) -> DiscriminantForm:
    """Invariant factors and the torsion form of N^vee / N.

    N^vee / N is Z^r / G Z^r through x -> G x, and D = |det G| kills it, so
    Smith data modulo M = D^2 suffices.  `_smith_mod`, the one Smith routine
    of `linalg` run mod M, gives U G V = diag(delta) + M Y with U, V
    invertible mod M and d_t = gcd(delta_t, M); since D Z^r lies in G Z^r,
    Z^r / G Z^r = (Z/M)^r / G (Z/M)^r is the sum of the Z/d_t
    generated by the classes of U^{-1} e_t, and the d_t > 1 are its invariant
    factors, of product D.  The lift of generator t is x_t = w_t / d_t, w_t
    column t of V mod d_t: G V e_t = delta_t U^{-1} e_t + M y, so G x_t is
    integral and its class is (delta_t / d_t) [U^{-1} e_t] + (M / d_t) [y].
    D divides M / d_t, so the last term vanishes, and delta_t / d_t is prime
    to d_t (every prime of d_t divides M / d_t), so x_t has order d_t and the
    x_t generate.  Pairings of the lifts mod 1 (norms mod 2, or mod 1 for
    odd N) are the discriminant form.
    """
    if not n.is_nondegenerate():
        raise ValueError("discriminant group needs a nondegenerate gram")
    disc = n.disc()
    diag, v = _smith_mod(n.gram, disc * disc, transform=True)
    factors = [dt for dt in diag if dt > 1]
    columns = [tuple(x % dt for x in col) for dt, col in zip(diag, v) if dt > 1]
    if prod(factors) != disc:
        raise AssertionError(f"invariant factors {factors} do not multiply to |det| = {disc}")
    gens = tuple(tuple(Fraction(x, di) for x in col) for col, di in zip(columns, factors))

    def pair(i, j):
        return Fraction(n.pairing(columns[i], columns[j]), factors[i] * factors[j])

    norm_mod = 2 if n.is_even() else 1
    k = len(factors)
    bilinear = tuple(tuple(pair(i, j) % 1 for j in range(k)) for i in range(k))
    quadratic = tuple(pair(i, i) % norm_mod for i in range(k))
    return DiscriminantForm(tuple(factors), gens, bilinear, quadratic)


# ---------------------------------------------------------------------------
# sublattice operations

def sublattice_embedding(target: Lattice, columns: Sequence[Sequence[int]],
                         label: str | None = None) -> LatticeEmbedding:
    """Embedding of the sublattice spanned by `columns` with its induced Gram."""
    cols = [tuple(int(x) for x in c) for c in columns]
    mat = IntMatrix.from_columns(cols, target.rank)
    induced = mat.transpose() @ (target.gram @ mat)
    return LatticeEmbedding(Lattice(mat.cols, induced, label), target, mat, induced)


def saturate(sub: LatticeEmbedding) -> LatticeEmbedding:
    """Embedding of (Q-span of the image) intersected with the target.

    With u B v = d, the image spans the first r columns of u^{-1} over Q, and
    those columns are a basis of the saturation since u is unimodular.  As
    B v = u^{-1} d, column j of B v divided by d_j is u^{-1} e_j.
    """
    snf = smith_normal_form(sub.matrix)
    bv = (sub.matrix @ snf.v).columns()
    cols = [tuple(x // dj for x in bv[j]) for j, dj in enumerate(snf.invariant_factors())]
    return sublattice_embedding(sub.target, cols, sub.source.label)


def is_primitive(sub: LatticeEmbedding) -> bool:
    """True iff the cokernel of the embedding matrix B is torsion-free.

    The torsion of Z^n / B Z^k has order d_1 ... d_k, the gcd of the k x k
    minors of B.  By Cauchy-Binet its square divides D = det(B^T G B), the
    source's determinant, and also det(B^T B) != 0, which serves for a
    degenerate source.  So every d_t divides D, and the embedding is
    primitive iff every gcd(d_t, D) is 1: Smith data modulo D, from the one
    Smith routine of `linalg` run mod D (`_smith_mod`).
    """
    d = sub.source.disc() or abs(det_exact(sub.matrix.transpose() @ sub.matrix))
    return d == 1 or all(f == 1 for f in _smith_mod(sub.matrix, d)[0])


def orthogonal_complement(sub: LatticeEmbedding) -> LatticeEmbedding:
    """The saturated sublattice of the target orthogonal to the image."""
    if not sub.target.is_nondegenerate():
        raise ValueError("orthogonal complement needs a nondegenerate target")
    pairings = sub.matrix.transpose() @ sub.target.gram
    basis = rational_kernel(pairings)
    return sublattice_embedding(sub.target, basis)


@dataclass(frozen=True)
class DiscComplementReport:
    disc_left: int
    disc_right: int
    index: int

    def triple(self) -> tuple[int, int, int]:
        return (self.disc_left, self.disc_right, self.index)


def check_disc_complement(n: LatticeEmbedding, nprime: LatticeEmbedding) -> DiscComplementReport:
    """For saturated orthogonal N, N' spanning a unimodular M up to finite
    index: |disc N| = [M : N + N'] = |disc N'|.  Computes all three and
    asserts they agree."""
    if n.target.gram != nprime.target.gram:
        raise ValueError("embeddings must share a common target")
    m = n.target
    if not m.is_unimodular():
        raise ValueError("common target must be unimodular")
    if n.source.rank + nprime.source.rank != m.rank:
        raise ValueError("ranks do not add up to the ambient rank")
    if not is_primitive(n) or not is_primitive(nprime):
        raise ValueError("both sublattices must be saturated")
    cross = n.matrix.transpose() @ (m.gram @ nprime.matrix)
    if any(cross[i, j] != 0 for i in range(cross.rows) for j in range(cross.cols)):
        raise ValueError("sublattices are not orthogonal")
    disc_left = n.source.disc()
    disc_right = nprime.source.disc()
    stacked = n.matrix.hstack(nprime.matrix)
    index = abs(det_exact(stacked))
    if not disc_left == disc_right == index:
        raise AssertionError(
            f"discriminant/index identity failed: ({disc_left}, {disc_right}, {index})")
    return DiscComplementReport(disc_left, disc_right, index)


# ---------------------------------------------------------------------------
# isometries

def reflection(w: Sequence[int], n: Lattice) -> Isometry:
    """Matrix of x -> x - (2(x.w)/w^2) w; requires integrality on the basis."""
    w = tuple(w)
    ww = n.norm(w)
    if ww == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    q = []  # column j is e_j - q_j w with q_j = 2(e_j.w)/w^2, and e_j.w = (G w)_j
    for j, x in enumerate(n.gram.apply(w)):
        if 2 * x % ww != 0:
            raise ValueError(
                f"reflection in {w} is not integral: basis vector {j} has 2(x.w) = {2 * x}, w^2 = {ww}")
        q.append(2 * x // ww)
    rows = tuple(tuple((k == j) - wk * qj for j, qj in enumerate(q)) for k, wk in enumerate(w))
    return Isometry(n, IntMatrix._trusted(rows, n.rank))


def eichler_transvection(f: Sequence[int], a: Sequence[int], n: Lattice) -> Isometry:
    """E(f,a): x -> x + (x.f)a - (x.a)f - (a^2/2)(x.f)f for isotropic f, a._|_f.

    Integral whenever a^2 is even; otherwise every basis vector pairing oddly
    with f breaks integrality and is reported.
    """
    f = tuple(f)
    a = tuple(a)
    if n.norm(f) != 0:
        raise ValueError("f must be isotropic")
    if n.pairing(a, f) != 0:
        raise ValueError("a must be orthogonal to f")
    aa = n.norm(a)
    gf = n.gram.apply(f)
    if aa % 2 != 0:
        for j, xf in enumerate(gf):
            if xf % 2 != 0:
                raise ValueError(
                    f"transvection not integral: a^2 = {aa} odd and basis vector {j} pairs oddly with f")
    # column j is e_j + (e_j.f) a - (e_j.a + (a^2/2)(e_j.f)) f, and e_j.x = (G x)_j
    ga = n.gram.apply(a)
    shift = [x + aa * y // 2 for x, y in zip(ga, gf)]
    rows = tuple(tuple((k == j) + ak * y - fk * z for j, (y, z) in enumerate(zip(gf, shift)))
                 for k, (ak, fk) in enumerate(zip(a, f)))
    return Isometry(n, IntMatrix._trusted(rows, n.rank))


def in_discriminant_kernel(g: Isometry) -> bool:
    """True iff g fixes every class of the discriminant group of its lattice.

    A generator of order d lifts to w / d with w integral, and g fixes its
    class iff d divides every entry of g w - w.
    """
    disc = discriminant_group(g.lattice)
    for d, gen in zip(disc.invariant_factors, disc.generators):
        w = [int(d * x) for x in gen]
        if any((y - x) % d for x, y in zip(w, g.apply(w))):
            return False
    return True


# ---------------------------------------------------------------------------
# moving primitive vectors with Eichler transvections

@dataclass(frozen=True)
class HyperbolicPairs:
    """Index pairs (e, f) of two orthogonal U-summands inside a lattice."""

    first: tuple[int, int]
    second: tuple[int, int]

    def all_indices(self) -> tuple[int, ...]:
        return self.first + self.second


def _check_marked_planes(n: Lattice, pairs: HyperbolicPairs) -> None:
    """Each marked (e, f) spans a standard U orthogonal to all other basis vectors."""
    if len(set(pairs.all_indices())) != 4:
        raise ValueError("hyperbolic pair indices must be distinct")
    for i in pairs.all_indices():
        if not 0 <= i < n.rank:
            raise ValueError(f"marked index {i} is outside 0..{n.rank - 1}")
    for e, f in (pairs.first, pairs.second):
        if not (n.gram[e, e] == 0 and n.gram[f, f] == 0 and n.gram[e, f] == 1):
            raise ValueError(f"columns {(e, f)} do not span a standard U-summand")
        if any(k not in (e, f) for i in (e, f) for k, _ in n._sparse_rows[i]):
            raise ValueError("marked U-summands are not orthogonal to the rest")


@dataclass(frozen=True)
class MoveResult:
    isometry: Isometry
    image: Vector
    canonical: bool
    divisor: int
    transvections: int  # non-trivial Eichler transvections composed into `isometry`


def _nearest_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    return q + 1 if 2 * abs(r) > abs(b) else q


def move_primitive_vector(v: Sequence[int], n: Lattice, pairs: HyperbolicPairs) -> MoveResult:
    """Carry a primitive vector of nonzero even norm to e1 + (v^2/2) f1.

    Composes Eichler transvections E(f, a) built from the marked planes
    (e1, f1), (e2, f2).  These are standard U's orthogonal to every other
    basis vector (`_check_marked_planes`), so a pairing with a plane vector is
    a coordinate read: x.f = x_e and x.e = x_f.  Write a1 = v.f1, b1 = v.e1
    and t = v.c, where the Bezout combination c outside plane 1 makes t the
    content of G (v outside plane 1).  As (G v)_e1 = b1 and (G v)_f1 = a1,
    gcd(a1, b1, t) = content(G v) = div(v).

    The whole move keeps one state, the rows of [g | g v]: row k is row k of
    the composed g, then coordinate k of the current image.  Every step is
    E(e_f, a) for a plane index f, and x.e_f = x_f' (' is the plane partner),
    so it adds a_k (row f') to row k on the support of a and subtracts
    (G a)^T rows + (a^2/2)(row f') from row f.

    1. If a1 = b1 = 0, E(e1, c) makes a1 = -t != 0.
    2. Make gcd(a1, b1) = 1.  If b1 = 0 (so a1 != 0), E(f1, c) makes
       b1 = -t - (c^2/2) a1; if that is 0, then c^2 != 0 and a second
       E(f1, c) makes b1 = -c^2 a1 != 0.
       With b1 != 0, E(e1, lam c) sends a1 to a1 - lam t - lam^2 (c^2/2) b1
       and keeps b1, so the new gcd is gcd(a1 - lam t, b1).  A prime of b1
       not dividing t rules out one residue of lam; one dividing t rules out
       every lam if it divides a1, else none.  So a good lam exists exactly
       when gcd(a1, b1, t) = div(v) = 1, and then (Chinese remainders over
       the primes of b1) one below rad(b1) <= |b1|.  div(v) > 1 is a divisor
       obstruction and ends the stage without a search.  The stage ends
       within three passes, so its cap of 8 is only a guard.
    3. 2x2 Smith reduction on Q = [[v.f1, v.e2], [-v.f2, v.e1]], that is
       [[v_e1, v_f2], [-v_e2, v_f1]].  Adding q times one row or column of Q
       to the other is the one transvection E(e_f, s q e_i) of the table
       `steps`: as a^2 = 0 and G a = s q e_i', it adds s q (row f') to row i
       and -s q (row i') to row f only.  A pass reduces Q_01 (else Q_10) by
       a nearest multiple of Q_00, swaps it (three steps) into Q_00 when
       smaller or Q_00 = 0, or folds row 1 into row 0 when Q is
       diagonal and Q_00 does not divide Q_11, so Q ends diagonal with |Q_00|
       the gcd of its entries, 1 after stage 2.  Cap: entries only move until
       Q_00 != 0 (two swaps); then 0 < |Q_00| < 2^B, B the bit length of the
       largest plane coordinate, no pass grows it, each swap shrinks it, and
       a swap right after reducing the entry it brings in halves it (at most
       B - 1 times).  A column (row) swap makes Q_01 (Q_10) = -old Q_00, so a
       column reduction follows, and the next row swap halves (column passes
       keep Q_10).  Other swaps are the first, a row swap right after a column
       reduction, and a column swap right after a row swap or fold on
       [[a, 0], [b, d]] or [[a, 0], [0, d]], leaving [[d, -b], [0, a]] or
       [[d, -a], [d, 0]] with |d| < |a|, so the next swap halves or the loop
       ends.  Runs of them are at most two long (three for the first), so at
       most 3B + 2 swaps, each after at most four other passes (reduce Q_01,
       reduce Q_10, fold, reduce Q_01), and two before the last: 15B + 13.
    4. So v.f1 = +-1 and v is orthogonal to plane 2 exactly when div(v) = 1,
       always on an even unimodular ambient.  Then one transvection clears
       everything outside plane 1 and a negation fixes the sign (canonical).

    The composed product is validated as an `Isometry` once, at the end.
    `divisor` is div(v) = content(G v), which isometries preserve.
    """
    v = tuple(int(x) for x in v)
    if len(v) != n.rank:
        raise ValueError("vector length mismatch")
    if content(v) != 1:
        raise ValueError("vector is not primitive")
    if not n.is_even():
        raise ValueError("ambient lattice must be even")
    _check_marked_planes(n, pairs)
    if n.norm(v) == 0:
        raise ValueError("vector must have nonzero norm")

    divisor = content(n.gram.apply(v))
    e1, f1 = pairs.first
    e2, f2 = pairs.second
    partner = {e1: f1, f1: e1, e2: f2, f2: e2}
    steps = {"row1": (e1, f2, 1), "row2": (f1, e2, -1), "col1": (e1, e2, -1), "col2": (f1, f2, 1)}
    swap_rows = (("row1", 1), ("row2", -1), ("row1", 1))
    swap_cols = (("col1", 1), ("col2", -1), ("col1", 1))
    gram_rows = n._sparse_rows
    # row k of [g | g v]: row k of g, then coordinate k of the current image
    rows = [[0] * n.rank + [x] for x in v]
    for k, row in enumerate(rows):
        row[k] = 1
    transvections = 0

    def transvect(f: int, a: dict[int, int]) -> None:
        """Apply E(e_f, a) to [g | g v]; `a` holds the nonzero entries, none at f'."""
        nonlocal transvections
        if not a:
            return
        fp = partner[f]  # x.e_f = x_f', and a_f' = 0 keeps row f' as it is
        loss = {fp: 0}  # row f loses sum_j loss_j (row j): G a, and a^2/2 at f'
        for k, ak in a.items():
            for j, x in gram_rows[k]:
                loss[j] = loss.get(j, 0) + ak * x
        loss[fp] += sum(ak * loss.get(k, 0) for k, ak in a.items()) // 2
        row = rows[f]
        for j, c in loss.items():
            if c:
                row = [x - c * y for x, y in zip(row, rows[j])]
        rows[f] = row
        for k, ak in a.items():
            rows[k] = [x + ak * y for x, y in zip(rows[k], rows[fp])]
        transvections += 1

    def complement_move() -> tuple[dict[int, int], int]:
        """(c, t): c outside plane 1 by nonzero entries, cur.c = t = content of G (cur outside plane 1)."""
        k = [row[-1] for row in rows]
        k[e1] = k[f1] = 0
        t, c = bezout_combination(n.gram.apply(k))
        return {i: x for i, x in enumerate(c) if x}, t

    # stage 1: ensure (v.f1, v.e1) != (0, 0)
    if rows[e1][-1] == rows[f1][-1] == 0:
        c, t = complement_move()
        if t == 0:
            raise ValueError("vector is orthogonal to everything outside plane 1")
        transvect(e1, c)

    # stage 2: make gcd(v.f1, v.e1) = 1
    for _ in range(8):
        a1, b1 = rows[e1][-1], rows[f1][-1]
        if gcd(a1, b1) == 1:
            break
        c, t = complement_move()
        if t == 0:
            raise ValueError("primitive vector with trivial complement should have coprime plane pairings")
        if b1 == 0:
            transvect(f1, c)
            if rows[f1][-1] == 0:
                transvect(f1, c)
            continue
        if divisor != 1:
            break  # divisor obstruction: gcd(a1, b1, t) = div(v) > 1
        lam = next((lam for lam in range(abs(b1)) if gcd(a1 - lam * t, b1) == 1), None)
        if lam is None:
            raise AssertionError("no coprime lambda below |v.e1| although div(v) = 1")
        transvect(e1, {k: lam * x for k, x in c.items()})  # lam != 0: gcd(a1, b1) != 1

    # stage 3: 2x2 Smith reduction on Q, two rows per step
    bits = max(abs(rows[k][-1]).bit_length() for k in partner)
    for _ in range(15 * bits + 13):
        q00, q01, q10, q11 = rows[e1][-1], rows[f2][-1], -rows[e2][-1], rows[f1][-1]
        if q01 != 0 or q10 != 0:  # clear Q_01 first, then Q_10
            off, swap, reduction = (q01, swap_cols, "col2") if q01 else (q10, swap_rows, "row2")
            if q00 == 0 or abs(q00) > abs(off):
                moves = swap
            else:
                moves = ((reduction, -_nearest_quotient(off, q00)),)
        elif q00 == 0 and q11 != 0:
            moves = swap_rows
        elif q00 == 0 or q11 == 0 or q11 % q00 == 0:
            break
        else:
            moves = (("row1", 1),)  # fold the second diagonal entry in to repair divisibility
        for step, q in moves:
            f, i, sign = steps[step]
            transvect(f, {i: sign * q})
    else:
        raise AssertionError("2x2 Smith reduction did not terminate")

    canonical = rows[e1][-1] in (1, -1) and rows[e2][-1] == rows[f2][-1] == 0
    if canonical:
        # finisher: clear everything outside plane 1, then fix signs
        a1 = rows[e1][-1]
        transvect(f1, {k: -a1 * row[-1] for k, row in enumerate(rows) if row[-1] and k not in (e1, f1)})
        if rows[e1][-1] == -1:
            rows = [[-x for x in row] for row in rows]

    cur = tuple(row.pop() for row in rows)
    expected = [0] * n.rank
    expected[e1], expected[f1] = 1, n.norm(v) // 2
    if canonical and cur != tuple(expected):
        raise AssertionError("canonicalization reached an unexpected representative")
    g = Isometry(n, IntMatrix._trusted(tuple(map(tuple, rows)), n.rank))
    if g.apply(v) != cur:
        raise AssertionError("isometry does not witness the move")
    return MoveResult(g, cur, canonical, divisor, transvections)
