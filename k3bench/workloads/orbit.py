"""k3-orbit: Eichler-transvection moves in the K3 lattice and in L_d.

Why: the time goes to dense rank-21/22 integer products, Bareiss
determinants and Smith forms in `lattices` and `linalg`; `roots` and
`clifford` are untouched.

Inputs.  The coordinates on the two marked hyperbolic planes (indices 16-19)
decide how many transvections a move composes, so they come from a fixed
pool of quadruples with coprime first pair, one part for the K3 lattice and
one for the L_d; the seed shuffles each part over its vectors and draws
every other coordinate.  Each seed therefore moves different vectors with
the same number of transvections.
"""

from __future__ import annotations

import random
from math import gcd

from .. import intmath as im
from . import Task

COORD = 300                      # |coordinates| of moved vectors
LAMBDA_VECTORS = 6               # vectors of the K3 lattice moved per round
LD_DEGREES = (1, 2, 3, 5)        # the L_d that are moved in, embedded and checked
LD_VECTORS_PER_D = 1
SUBLATTICE_RANKS = (1, 2, 2, 3)  # saturated sublattices of the K3 lattice
SUPPORT = 6                      # nonzero coordinates of a sublattice generator
PLANE_POOL_SEED = 20170526       # fixed: the pool is the same for every --seed
PLANES = (16, 17, 18, 19)        # e1, f1, e2, f2 of the two marked U-summands


def plane_pool(count: int) -> list[tuple[int, int, int, int]]:
    rng = random.Random(PLANE_POOL_SEED)
    pool = []
    while len(pool) < count:
        q = tuple(rng.randint(-COORD, COORD) for _ in range(4))
        if all(q) and gcd(q[0], q[1]) == 1:
            pool.append(q)
    return pool


def _vector(rng, gram, plane):
    """Random coordinates off the planes, `plane` on them, nonzero norm."""
    while True:
        v = [rng.randint(-COORD, COORD) for _ in range(len(gram))]
        for i, x in zip(PLANES, plane):
            v[i] = x
        if im.form(gram, v, v) != 0:
            return tuple(v)


def _isometry_problem(gram, g, v, image):
    if im.matmul(im.transpose(g), im.matmul(gram, g)) != gram:
        return "g^T G g != G"
    if im.mat_vec(g, v) != tuple(image):
        return "g v != reported image"
    if not im.det_is_unit(g):
        return "det g is not +-1"
    return None


def _canonical(gram, v):
    out = [0] * len(gram)
    out[PLANES[0]] = 1
    out[PLANES[1]] = im.form(gram, v, v) // 2
    return tuple(out)


def build(k3, seed: int) -> list[Task]:
    rng = random.Random(seed)
    lam = k3.k3_lattice()
    lam_gram = lam.gram.tolists()
    pairs = k3.HyperbolicPairs((PLANES[0], PLANES[1]), (PLANES[2], PLANES[3]))
    pool = plane_pool(LAMBDA_VECTORS + LD_VECTORS_PER_D * len(LD_DEGREES))
    lambda_planes, ld_planes = pool[:LAMBDA_VECTORS], pool[LAMBDA_VECTORS:]
    rng.shuffle(lambda_planes)
    rng.shuffle(ld_planes)
    tasks = []

    def move_task(v, lattice, gram, d=None):
        def run():
            res = k3.move_primitive_vector(v, lattice, pairs)
            kernel = None if d is None else k3.in_discriminant_kernel(res.isometry)
            return res, kernel

        def check(out):
            res, kernel = out
            g = res.isometry.matrix.tolists()
            problem = _isometry_problem(gram, g, v, res.image)
            if problem:
                return problem
            if not res.canonical or tuple(res.image) != _canonical(gram, v):
                return "image is not e1 + (v^2/2) f1"
            if d is not None:
                # A_{L_d} is generated by e_20 / 2d: g acts trivially on it
                # iff column 20 of g is e_20 modulo 2d.
                expected = all((row[20] - (i == 20)) % (2 * d) == 0 for i, row in enumerate(g))
                if kernel != expected:
                    return f"in_discriminant_kernel = {kernel}, expected {expected}"
            return None

        return Task(f"move rank-{len(gram)} d={d}", run, check)

    for _ in range(LAMBDA_VECTORS):
        tasks.append(move_task(_vector(rng, lam_gram, lambda_planes.pop()), lam, lam_gram))

    for d in LD_DEGREES:
        ld = k3.l_d(d)
        ld_gram = ld.gram.tolists()
        for _ in range(LD_VECTORS_PER_D):
            tasks.append(move_task(_vector(rng, ld_gram, ld_planes.pop()), ld, ld_gram, d))
        tasks.append(_ld_invariants_task(k3, d))
        tasks.append(_ld_embedding_task(k3, d))

    for r in SUBLATTICE_RANKS:
        tasks.append(_transcendental_task(k3, rng, lam, lam_gram, r))
    return tasks


def _ld_invariants_task(k3, d):
    def run():
        lat = k3.l_d(d)
        return lat, lat.signature(), lat.det(), k3.discriminant_group(lat).invariant_factors

    def check(out):
        lat, sig, det, factors = out
        if lat.rank != 21 or tuple(sig) != (19, 2, 0):
            return f"rank/signature {lat.rank} {sig}"
        if abs(det) != 2 * d or im.det(lat.gram.tolists()) != det:
            return f"det {det}, expected +-{2 * d}"
        if tuple(factors) != (2 * d,):
            return f"discriminant group {factors}, expected ({2 * d},)"
        return None

    return Task(f"L_{d} invariants", run, check)


def _ld_embedding_task(k3, d):
    def run():
        emb = k3.embed_ld_in_l(d)
        comp = k3.orthogonal_complement(emb)
        return emb, comp, k3.check_disc_complement(emb, comp)

    def check(out):
        emb, comp, report = out
        big = emb.target.gram.tolists()
        m = emb.matrix.tolists()
        c = comp.matrix.tolists()
        if im.matmul(im.transpose(m), im.matmul(big, m)) != emb.source.gram.tolists():
            return "embedding does not preserve the pairing"
        if any(x for row in im.matmul(im.transpose(m), im.matmul(big, c)) for x in row):
            return "complement is not orthogonal to the image"
        cg = im.matmul(im.transpose(c), im.matmul(big, c))
        if cg != comp.source.gram.tolists() or len(cg) != 4:
            return "complement Gram is not C^T G C of rank 4"
        if not im.is_positive_definite(cg) or abs(im.det(cg)) != 2 * d:
            return "complement is not positive definite with |disc| = 2d"
        if tuple(report.triple()) != (2 * d,) * 3:
            return f"disc/index triple {report.triple()}"
        return None

    return Task(f"L_{d} in L", run, check)


def _transcendental_task(k3, rng, lam, lam_gram, r):
    # Generators with entries -1..1 on SUPPORT coordinates: dense ones make
    # smith_normal_form blow up on some seeds (see the README).
    while True:
        cols = []
        for _ in range(r):
            v = [0] * 22
            for i in rng.sample(range(22), SUPPORT):
                v[i] = rng.randint(-1, 1)
            cols.append(tuple(v))
        gram = im.matmul(cols, im.matmul(lam_gram, im.transpose(cols)))
        if im.det(gram) != 0:
            break
    sub = k3.sublattice_embedding(lam, cols)

    def run():
        sat = k3.saturate(sub)
        return sat, k3.transcendental_invariants(sat)

    def check(out):
        sat, (comp, disc_t, disc_pic) = out
        m = sat.matrix.tolists()
        sat_gram = im.matmul(im.transpose(m), im.matmul(lam_gram, m))
        if sat_gram != sat.source.gram.tolists():
            return "saturation Gram is not M^T G M"
        disc = abs(im.det(sat_gram))
        if not disc == disc_pic == disc_t == abs(im.det(comp.gram.tolists())):
            return f"discriminants {disc}, {disc_pic}, {disc_t} differ"
        if comp.rank != 22 - r:
            return f"complement rank {comp.rank}"
        return None

    return Task(f"transcendental rank {r}", run, check)
