"""mindeg-scan: minimal-polarization-degree searches through the CLI entry point.

Why: each search builds the whole candidate box and runs many tiny wall
tests (orthogonal complement, signature, LDL^T, a small Fincke-Pohst).  This
is where per-call overhead and candidate streaming show, and where any
preprocessing added to `short_vectors` costs.

Inputs.  Hyperbolic lattices U + T(-1) of rank 2-5, with T from
`enumerate_lattices`, plus rank-2 lattices from `bounded_picard_candidates`.
The lattices are fixed, so every seed searches the same family; the seed
draws a signed permutation of each lattice's basis (which maps the
coordinate box onto itself), so the Gram matrices, the candidate order and
the certificates differ per seed while the box sizes do not.  U and
<2>+<-2> keep their standard basis: their certificates are known.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from itertools import product

from .. import intmath as im
from . import Task

NORM_LIMIT = 20
ENUMERATIONS = (  # (rank, max_disc, even_only) for enumerate_lattices
    (1, 8, True),
    (2, 12, True),
    (3, 8, False),
)
PICARD_MAX_DISC = 12
# (T or the rank-2 lattice itself, box, where it comes from)
SEARCHES = (
    ([[0, 2], [2, -2]], 4, "picard"),
    ([[0, 3], [3, -2]], 4, "picard"),
    ([[4]], 4, "enumerate"),
    ([[6]], 4, "enumerate"),
    ([[2, 1], [1, 4]], 4, "enumerate"),
    ([[2, 0], [0, 4]], 4, "enumerate"),
    ([[2, 1], [1, 6]], 4, "enumerate"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 7]], 3, "enumerate"),
    ([[1, 0, 0], [0, 3, -1], [0, -1, 3]], 3, "enumerate"),
)
KNOWN = (  # (Gram, box, certificate, degree): fixed basis, known answers
    ([[0, 1], [1, 0]], 4, (1, 2), 4),
    ([[2, 0], [0, -2]], 4, (2, 1), 6),
)


def u_plus_negative(t):
    n = len(t) + 2
    g = [[0] * n for _ in range(n)]
    g[0][1] = g[1][0] = 1
    for i, row in enumerate(t):
        for j, x in enumerate(row):
            g[2 + i][2 + j] = -x
    return g


def signed_permutation(rng, g, first):
    """P^T g P for a random signed permutation P of the coordinates >= first
    and, when first == 2, a random swap of the U coordinates 0 and 1."""
    n = len(g)
    order = list(range(n))
    tail = order[first:]
    rng.shuffle(tail)
    order[first:] = tail
    if first == 2 and rng.random() < 0.5:
        order[0], order[1] = 1, 0
    signs = [1] * first + [rng.choice((1, -1)) for _ in range(n - first)]
    return [[signs[i] * signs[j] * g[order[i]][order[j]] for j in range(n)] for i in range(n)]


def _cli(k3, argv, gram):
    stdin = io.StringIO(json.dumps({"rank": len(gram), "gram": gram}))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), _stdin(stdin):
        code = k3.cli.main(argv)
    return code, stdout.getvalue()


@contextlib.contextmanager
def _stdin(stream):
    old, sys.stdin = sys.stdin, stream
    try:
        yield
    finally:
        sys.stdin = old


def build(k3, seed: int) -> list[Task]:
    importlib.import_module("k3lattices.cli")
    rng = random.Random(seed)
    tasks = [_enumeration_task(k3)]
    inputs = [(g, box, cert, deg) for g, box, cert, deg in KNOWN]
    for t, box, origin in SEARCHES:
        if origin == "picard":
            inputs.append((signed_permutation(rng, t, 0), box, None, None))
        else:
            inputs.append((signed_permutation(rng, u_plus_negative(t), 2), box, None, None))
    rng.shuffle(inputs)
    for gram, box, cert, deg in inputs:
        tasks.append(_search_task(k3, gram, box, cert, deg))
    return tasks


def _enumeration_task(k3):
    def run():
        lists = [k3.enumerate_lattices(r, d, even_only=e) for r, d, e in ENUMERATIONS]
        return lists, k3.bounded_picard_candidates(2, PICARD_MAX_DISC)

    def check(out):
        lists, picard = out
        forms = {tuple(map(tuple, f.tolists())) for lst in lists for f in lst.forms}
        for lst, (rank, max_disc, even) in zip(lists, ENUMERATIONS):
            for f in lst.forms:
                g = f.tolists()
                if len(g) != rank or not 1 <= im.det(g) <= max_disc or not im.is_positive_definite(g):
                    return f"enumerated form {g} is outside rank {rank}, disc <= {max_disc}"
                if even and any(g[i][i] % 2 for i in range(rank)):
                    return f"odd form {g} in an even-only list"
        for m in picard:
            g = m.tolists()
            if any(g[i][i] % 2 for i in range(len(g))) or (len(g) == 2 and not -PICARD_MAX_DISC <= im.det(g) < 0):
                return f"Picard candidate {g} is not even hyperbolic with |disc| <= {PICARD_MAX_DISC}"
        picard_forms = {tuple(map(tuple, m.tolists())) for m in picard}
        for t, _box, origin in SEARCHES:
            if tuple(map(tuple, t)) not in (picard_forms if origin == "picard" else forms):
                return f"search input {t} is missing from the {origin} list"
        return None

    return Task("enumerate", run, check)


def _search_task(k3, gram, box, known_cert, known_deg):
    def run():
        code, out = _cli(k3, ["mindeg", "--box", str(box), "--norm-limit", str(NORM_LIMIT),
                              "--jobs", "1"], gram)
        if code != 0:
            raise RuntimeError(f"mindeg exited with {code}")
        res = json.loads(out)
        cert = res["certificate"]
        if cert is None:
            return res, None
        vcode, vout = _cli(k3, ["verify-cert", "--v", ",".join(map(str, cert)),
                                "--degree", str(res["upper_bound"])], gram)
        return res, (vcode, json.loads(vout))

    def check(out):
        res, verified = out
        cert, deg = res["certificate"], res["upper_bound"]
        if cert is None:
            return "no certificate in the box"
        if known_cert is not None and (tuple(cert), deg) != (known_cert, known_deg):
            return f"certificate {cert} of degree {deg}, expected {known_cert} of {known_deg}"
        if im.form(gram, cert, cert) != deg or not 0 < deg <= NORM_LIMIT:
            return f"certificate square is not {deg}"
        if verified != (0, {"valid": True}):
            return f"verify-cert answered {verified}"
        walls = im.orthogonal_minus_two(gram, cert, first_only=True)
        if walls:
            return f"(-2)-vector {walls[0]} is orthogonal to the certificate"
        if len(gram) <= 3:
            for v in product(range(-box, box + 1), repeat=len(gram)):
                if 0 < im.form(gram, v, v) < deg and not im.orthogonal_minus_two(gram, v, True):
                    return f"box vector {v} of square < {deg} has no wall"
        return None

    return Task(f"mindeg rank {len(gram)} box {box}", run, check)
