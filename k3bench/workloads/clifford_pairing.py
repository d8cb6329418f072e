"""clifford-pairing: polarization elements and trace pairings in C(L).

Why: every new Gram matrix fills the Clifford product and trace tables from
empty (the cold 2^n trace loop), which also drives peak_rss_mb; the phi_a
queries that follow read those tables warm.  No other workload touches
`clifford`.

Inputs.  A fixed mix of fresh nondegenerate hosts of rank 5-7 (HOSTS); the
seed draws their Gram matrices.  How long a product expands depends on
which entries of the Gram vanish, so that pattern is fixed per kind and the
seed draws only signs and sizes: general hosts carry +-1 on a cycle of
off-diagonal entries and +-1..3 on the diagonal; unimodular hosts are a
diagonal +-1 form under a seeded bidiagonal unimodular basis change, which
makes them tridiagonal.  The search in
`find_polarization_element` accepts its first candidate exactly when the
plane of e0, e1 is nondegenerate, so that property is fixed per host: one
host has a degenerate first plane (its first four candidates fail), the
others do not.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .. import intmath as im
from . import Task

# (rank, kind); kind is "general", "unimodular" or "degenerate-plane"
HOSTS = ((5, "general"), (5, "unimodular"), (6, "degenerate-plane"), (6, "unimodular"),
         (7, "general"))
PHI_PAIRS = 24          # phi_a(x, y) and phi_a(y, x) per host
TRACE_PAIRS = 8         # trace_pairing_identity calls per host


def _general_gram(rng, n, degenerate_plane):
    """Diagonal entries +-1..3 and entries +-1 on the cycle (i, i+1 mod n).
    With degenerate_plane, e0 is isotropic and the edge (0, 1) moves to
    (0, 2), so e0 is orthogonal to e1 but pairs with e2."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    if degenerate_plane:
        edges[0] = (0, 2)
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.choice((1, -1)) * rng.randint(1, 3)
        for i, j in edges:
            g[i][j] = g[j][i] = rng.choice((1, -1))
        if degenerate_plane:
            g[0][0] = 0
        plane_ok = _plane_det(g, 2) != 0 if degenerate_plane else _plane_det(g, 1) != 0
        if plane_ok and im.det(g) != 0:
            return g


def _unimodular_gram(rng, n):
    """U^T D U with D diagonal +-1 and U = 1 + (a +-1 superdiagonal): a
    tridiagonal unimodular Gram whose plane e0, e1 has determinant d0 d1."""
    u = im.identity(n)
    for i in range(n - 1):
        u[i][i + 1] = rng.choice((1, -1))
    diag = [[rng.choice((1, -1)) if i == j else 0 for j in range(n)] for i in range(n)]
    return im.matmul(im.transpose(u), im.matmul(diag, u))


def _plane_det(g, j):
    """Determinant of the Gram of e0, e_j."""
    return g[0][0] * g[j][j] - g[0][j] ** 2


def _random_vector(rng, n):
    while True:
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(v):
            return v


def build(k3, seed: int) -> list[Task]:
    rng = random.Random(seed)
    tasks = []
    gspin_done = False
    for rank, kind in HOSTS:
        if kind == "unimodular":
            gram = _unimodular_gram(rng, rank)
        else:
            gram = _general_gram(rng, rank, kind == "degenerate-plane")
        host = k3.Lattice(rank, k3.IntMatrix(gram))
        found = {}
        tasks.append(_find_a_task(k3, host, gram, found))
        tasks.append(_phi_task(k3, rng, host, found))
        tasks.append(_trace_pairing_task(k3, rng, host, gram))
        if kind == "unimodular":
            tasks.append(_project_task(k3, rng, host))
            if not gspin_done:
                tasks.append(_gspin_task(k3, rng, host, gram))
                gspin_done = True
    return tasks


def _find_a_task(k3, host, gram, found):
    dim = 1 << len(gram)

    def run():
        found["a"] = pol = k3.find_polarization_element(host)
        found["gram"] = pol.gram.tolists()
        return pol

    def check(pol):
        g = pol.gram.tolists()
        if len(g) != dim or any(len(row) != dim for row in g):
            return f"phi_a Gram is not {dim} x {dim}"
        if any(g[i][j] != -g[j][i] for i in range(dim) for j in range(i + 1)):
            return "phi_a Gram is not alternating"
        if not im.det_nonzero(g):
            return "phi_a Gram is degenerate (det = 0 modulo both primes)"
        return None

    return Task(f"find-a rank {len(gram)}", run, check)


def _low_degree(k3, rng, host):
    """A random integer combination of 1, the e_i and the e_i e_j."""
    n = host.rank
    masks = [0] + [1 << i for i in range(n)] + [(1 << i) | (1 << j) for i, j in combinations(range(n), 2)]
    coeffs = {}
    for m in rng.sample(masks, 3):
        coeffs[m] = rng.choice((1, -1)) * rng.randint(1, 3)
    return k3.CliffordElement(host, coeffs)


def _phi_task(k3, rng, host, found):
    pairs = [(_low_degree(k3, rng, host), _low_degree(k3, rng, host)) for _ in range(PHI_PAIRS)]

    def run():
        a = found["a"].element
        return [(k3.phi_a(x, y, a), k3.phi_a(y, x, a)) for x, y in pairs]

    def check(values):
        g = found["gram"]
        for (x, y), (xy, yx) in zip(pairs, values):
            if xy != -yx:
                return f"phi_a(y, x) = {yx} is not -phi_a(x, y) = {-xy}"
            direct = sum(cx * cy * g[mx][my] for mx, cx in x.coeffs.items() for my, cy in y.coeffs.items())
            if xy != direct:
                return f"phi_a(x, y) = {xy} but the Gram gives {direct}"
        return None

    return Task(f"phi_a x{2 * PHI_PAIRS} rank {host.rank}", run, check)


def _trace_pairing_task(k3, rng, host, gram):
    n = len(gram)
    pairs = [(_random_vector(rng, n), _random_vector(rng, n)) for _ in range(TRACE_PAIRS)]

    def run():
        return [k3.trace_pairing_identity(v, w, host) for v, w in pairs]

    def check(values):
        for (v, w), (lhs, _rhs) in zip(pairs, values):
            if lhs != (1 << n) * im.form(gram, v, w):
                return f"Tr(L_v L_w) = {lhs}, expected 2^n b(v, w) = {(1 << n) * im.form(gram, v, w)}"
        return None

    return Task(f"trace pairing x{TRACE_PAIRS} rank {n}", run, check)


def _project_task(k3, rng, host):
    v = _random_vector(rng, host.rank)
    element = k3.CliffordElement.from_vector(host, v)

    def run():
        return k3.project_endo_to_l(k3.left_mul_matrix(element), host)

    def check(out):
        return None if tuple(out) == v else f"projection returned {out}, expected {v}"

    return Task(f"project rank {host.rank}", run, check)


def _gspin_task(k3, rng, host, gram):
    """g = v w for vectors of norm +-1 or +-2 in a unimodular host."""
    n = len(gram)

    def anisotropic():
        while True:
            v = _random_vector(rng, n)
            if im.form(gram, v, v) in (1, -1, 2, -2):
                return v

    v, w = anisotropic(), anisotropic()

    def run():
        pair = k3.gspin_generator(v, w, host)
        return k3.conjugation_preserves_lattice(pair, host)

    def check(report):
        def reflect(r, x):
            c = Fraction(2 * im.form(gram, x, r), im.form(gram, r, r))
            return [xi - c * ri for xi, ri in zip(x, r)]

        expected = [reflect(v, reflect(w, [int(i == j) for j in range(n)])) for i in range(n)]
        integral = all(x.denominator == 1 for img in expected for x in img)
        if report.preserves != integral:
            return f"preserves = {report.preserves}, reflections say {integral}"
        if integral and [list(img) for img in report.images] != [[int(x) for x in e] for e in expected]:
            return "conjugation images differ from s_v(s_w(e_i))"
        return None

    return Task(f"gspin rank {n}", run, check)
