"""fp-skewed: Fincke-Pohst short vectors on reduced and on skewed bases.

Why: a few large enumeration trees whose Fractions grow with the basis skew;
this is where LLL reduction and a fraction-free LDL^T show.

Inputs.  E8 in its Dynkin basis at norms 2, 4 and 6; E8 under seeded
unimodular skews; E8+E8 at norm 2; the rank-4 complements of L_d in L at
norms up to 40.  The time of a skewed enumeration follows the size of its
search tree, not the largest Gram entry, so each skew is the one, among the
bases visited by a fixed number of seeded random walks, whose
Gaussian-heuristic node count is closest to the tier's target.  The targets
grow, and with them the largest Gram entry (from about 10 to a few
thousand).  The estimate uses floats: it only picks inputs and never touches
a result.
"""

from __future__ import annotations

import math
import random

from .. import intmath as im
from . import Task

THETA_E8 = {2: 240, 4: 2160, 6: 6720}
THETA_E8_SQUARED_2 = 480
DYNKIN_NORMS = (2, 4, 6)
# (norm, target node estimate) of the skewed E8 enumerations
SKEW_TIERS = ((2, 1000), (2, 2000), (2, 4000), (2, 8000))
WALKS = 12
COMPLEMENT_DEGREES = (1, 3, 10)
COMPLEMENT_NORMS = (10, 20, 40)


def node_estimate(gram, norm):
    """Gaussian-heuristic size of the Fincke-Pohst tree that enumerates the
    last coordinate first: sum over depths k of vol(k-ball of radius
    sqrt(norm)) / sqrt(product of the last k LDL^T pivots)."""
    n = len(gram)
    a = [[float(x) for x in row] for row in gram]
    pivots = []
    for k in range(n):  # Gaussian elimination pivots = the LDL^T diagonal
        pivots.append(a[k][k])
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    total = 0.0
    for k in range(1, n + 1):
        ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1) * norm ** (k / 2)
        total += ball / math.sqrt(math.prod(pivots[n - k:]))
    return total


def skew(rng, gram, norm, target):
    """A unimodular U (as a list of rows) with U^T G U near the target node
    estimate.  Each of WALKS random walks adds elementary column operations
    until its estimate reaches the target; the basis closest to the target
    over all walks wins.  A fixed number of walks keeps set-up time nearly
    independent of the seed."""
    n = len(gram)
    best = None
    for _ in range(WALKS):
        u = im.identity(n)
        g = [list(row) for row in gram]
        est = 0.0
        while est < target:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((1, -1))
            for row in u:  # column j += c * column i, on U and on both sides of G
                row[j] += c * row[i]
            for row in g:
                row[j] += c * row[i]
            g[j] = [x + c * y for x, y in zip(g[j], g[i])]
            est = node_estimate(g, norm)
            miss = abs(math.log(est / target))
            if best is None or miss < best[0]:
                best = (miss, [list(row) for row in u], [list(row) for row in g])
    return best[1], best[2]


def build(k3, seed: int) -> list[Task]:
    rng = random.Random(seed)
    e8 = k3.e8()
    e8_gram = e8.gram.tolists()
    dynkin: dict[int, set] = {}  # filled by the Dynkin-basis tasks, read by the skew checks
    tasks = []

    for norm in DYNKIN_NORMS:
        def run(norm=norm):
            report = k3.short_vectors(e8, norm)
            dynkin[norm] = set(report.vectors)
            return report

        tasks.append(Task(f"E8 norm {norm}", run, _count_check(e8_gram, norm, THETA_E8[norm])))

    for norm, target in SKEW_TIERS:
        u, g = skew(rng, e8_gram, norm, target)
        lattice = k3.Lattice(8, k3.IntMatrix(g))

        def check(report, u=u, g=g, norm=norm):
            problem = _count_check(g, norm, THETA_E8[norm])(report)
            if problem:
                return problem
            if norm in dynkin and {im.mat_vec(u, x) for x in report.vectors} != dynkin[norm]:
                return "U x over the skewed vectors differs from the Dynkin-basis set"
            return None

        tasks.append(Task(f"skewed E8 norm {norm} est {target} max entry "
                          f"{max(abs(x) for row in g for x in row)}",
                          lambda lattice=lattice, norm=norm: k3.short_vectors(lattice, norm), check))

    e8e8 = k3.direct_sum(e8, e8)
    tasks.append(Task("E8+E8 norm 2", lambda: k3.short_vectors(e8e8, 2),
                      _count_check(e8e8.gram.tolists(), 2, THETA_E8_SQUARED_2)))

    for d in COMPLEMENT_DEGREES:
        comp = k3.complement_of_ld_in_l(d)
        cg = comp.gram.tolists()
        for norm in COMPLEMENT_NORMS:
            tasks.append(Task(f"L_{d} complement norm {norm}",
                              lambda comp=comp, norm=norm: k3.short_vectors(comp, norm),
                              _brute_force_check(cg, norm)))
    return tasks


def _count_check(gram, norm, expected):
    def check(report):
        vectors = report.vectors
        if len(vectors) != expected or len(set(vectors)) != expected:
            return f"{len(vectors)} vectors of norm {norm}, expected {expected}"
        bad = next((x for x in vectors if im.form(gram, x, x) != norm), None)
        return f"vector {bad} does not have norm {norm}" if bad else None

    return check


def _brute_force_check(gram, norm):
    def check(report):
        expected = set(im.box_vectors_of_norm(gram, norm))
        if set(report.vectors) != expected or len(report.vectors) != len(expected):
            return f"{len(report.vectors)} vectors, box scan finds {len(expected)}"
        return None

    return check
