"""Differential harness: the same seeded inputs through two k3lattices trees.

    python tools/identity.py LEFT_SRC RIGHT_SRC [--cases N] [--timeout SEC]

LEFT_SRC and RIGHT_SRC are `src/` directories (for example a checkout of the
parent commit and the working tree).  Each is loaded under its own package
name with `importlib`, so both live in one process.  For each function the
harness draws inputs from seed 21, runs them through both trees, and prints
one SHA-256 digest per side over the outputs of the cases that both sides
finished, the number of cases whose outputs differ, and the cases that a side
did not finish within `--timeout` seconds (a per-case alarm, so a hang is
listed, not waited for).  The indices of the skipped cases are digested too,
so a digest that moved because a case crossed the timeout shows a different
skip list next to it.  An exception is an output: its type and message are
digested like a return value.  The exit status is 1 if any case differs.

Functions and their inputs:
- `move_primitive_vector`: primitive vectors of nonzero norm in Λ, L_1…L_12
  and U²⊕E8, coordinates up to 10⁶, with divisor-2 vectors of L_d and vectors
  that are zero on the first marked plane among them.  The output is
  (transvections, divisor, canonical, image, isometry rows).
- `move_long_coordinates`: the same function on primitive vectors of Λ and
  L_1…L_12 with coordinates of 500 to 2,000 bits, where the 2x2 stage of the
  move takes hundreds to thousands of passes; 20 cases at `--cases 1000`.
- `smith_normal_form`: integer matrices up to 7×8, with zero rows and
  columns and rank-deficient ones.  The output is (u, d, v).
- `_smith_mod`: the same matrices at moduli including 1.  The output is the
  diagonal and the transform.
- `short_vectors`: seeded positive definite Grams of rank 0 to 8 at norms 1
  to 10, and E8 and E8+E8 under seeded unimodular skews whose Hadamard bound
  on a coordinate needs 1 (E8 only), 2, 4, 8, 16, 32 and 64 bytes, at norm 2
  (E8 also at 4).  Past 8 bytes the skew's moves have multipliers of up to
  64, 128 and 256 bits, so that the short vectors' coordinates need the wide
  fields too.  The output is (vectors, nodes).
- `eichler_transvection`: isotropic f and a orthogonal to f on Λ, L_1…L_12,
  U²⊕E8(−1) and the odd L = E8²⊕U²⊕<1>⁵, coordinates up to 10⁶.  f is a
  multiple of a marked plane vector or k(e + c − (c²/2)e′) for a plane pair
  (e, e′) and c outside that plane.  On L, f with G·f all even meets a of odd
  norm, and a of odd norm against an odd k raises.  A fifth of the cases
  make f not isotropic or a not orthogonal to f, so that the error texts are
  compared too.  The output is the matrix rows.
- `reflection`: w on Λ, L_1…L_12, E8, <2>⊕<4> and the odd L.  Through a
  marked plane, w = c + e + y·f has norm ±2 (±1 where c² is odd), so the
  reflection is integral; the other w are basis vectors, small seeded
  vectors (mostly not integral, so the error texts are compared), isotropic
  vectors and vectors one entry too short or too long.  The output is the
  matrix rows.
- `enumerate_lattices`: ranks 1 to 3 at discriminant bounds 0 to 300, with
  and without `even_only`; a quarter of the cases run
  `bounded_picard_candidates` at ranks 1 and 2 instead, and one case in
  twenty asks for rank 0 or 4 or a negative bound, so that the error texts
  are compared too.  The output is (rank, max_disc, even_only, forms,
  discs()), or the list of hyperbolic Grams.
- `four_squares`: m from 0 to 10^6, 10^6 to 10^30, 2 * 4^k (k <= 60) and 8
  times an odd number up to 10^20, with a few negative m for the error text.
  The output is (m, parts).
- Clifford functions, on seeded hosts of rank 0 to 8 drawn like the hosts of
  the `clifford-pairing` workload (general: +-1..3 on the diagonal and +-1 on
  the cycle (i, i+1 mod n); unimodular: a +-1 diagonal under a bidiagonal
  unimodular change of basis; degenerate-plane: e0 isotropic and orthogonal
  to e1), plus zero-diagonal Grams and singular ones whose last basis vector
  pairs like the first.  Outputs of 2^n x 2^n tables are SHA-256 digests.
- `trace_form`: the rows of `CliffordAlgebra.trace_form` (digested).
- `find_polarization_element`: (element, digest of the phi-Gram,
  `candidates_tried`); at rank <= 1 and on det G = 0 the error text.
- `phi_a`: phi_a(x, y, a) and phi_a(y, x, a) for elements of degree <= 2,
  half of the cases after the host's trace form is built (the warm route).
- `project_endo_to_l`: f = L_v for a vector v, L_x for an element of degree
  <= 2, or a matrix unit E_{0, e_j}, whose traces 2^n does not divide (the
  AssertionError text), on unimodular hosts and on a few others (the
  ValueError text).
- `cli`: `k3lat --help` of every parser path, and seeded argvs run through
  `cli.main` in-process with JSON on stdin: `lattice build` and `info`,
  `roots`, `walls` (with `--v -1,-2` after a space), `mindeg`,
  `verify-cert` (valid certificates, and invalid ones: a wrong degree, a
  vector on a wall, a vector of the wrong length), `complement` and
  `saturate` (columns scaled by up to 3), `check-disc-complement` (a
  saturated sublattice of U+U or U+U+<-1>+<1> against its complement, or
  against an unsaturated or mismatched right side), `disc-kernel` (signed
  permutations on U+<2k>+<2j>, some of them no isometry), `embed ld-in-l`,
  `clifford phi-a` and `find-a`, `enumerate` as JSON and as CSV, malformed
  JSON and usage errors.  Ints near and beyond 2^53 (2^53, 2^53 + 1, 16
  digits below 2^53, 20 to 30 digits), with and without `--raw-ints`,
  reach: `lattice build --file` (the Gram in a temporary file), `clifford
  mul` and `reversal` (coefficients as JSON ints or strings, and one Gram
  entry), `embed four-squares` (m beyond 2^53, 2 * 4^k and 8 times an odd
  number) and `embed vd` (d), and `clifford gspin` and `project`
  (coordinates scaled by up to 10^20).  Labels echo long digit runs, quotes,
  backslashes, non-ASCII text, and ints, floats and lists, which are
  refused.  The output is (exit code, stdout, stderr); `SystemExit` is
  caught and its code recorded.  Help text wraps at `COLUMNS=80`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import random
import signal
import sys
import tempfile
import time
from pathlib import Path


class CaseTimeout(Exception):
    pass


def load_tree(src: Path, name: str):
    """Import the k3lattices package under `src` as the top-level package `name`."""
    init = src / "k3lattices" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# seeded inputs: plain data, so that each tree builds its own objects

SEED = 21

MARKED = {"k3": ((16, 17), (18, 19)), "l_d": ((16, 17), (18, 19)), "u2e8": ((0, 1), (2, 3)),
          "u2e8neg": ((0, 1), (2, 3)), "big_l": ((16, 17), (18, 19))}


def build_lattice(pkg, kind: str, d: int):
    if kind == "k3":
        return pkg.k3_lattice()
    if kind == "l_d":
        return pkg.l_d(d)
    if kind == "big_l":
        return pkg.big_l()
    if kind == "e8":
        return pkg.e8()
    if kind == "two_four":
        return pkg.direct_sum(pkg.rank_one(2), pkg.rank_one(4))
    e8 = pkg.negate(pkg.e8()) if kind == "u2e8neg" else pkg.e8()
    return pkg.direct_sum(pkg.hyperbolic_u(), pkg.hyperbolic_u(), e8)


def move_cases(rng: random.Random, count: int, pkg) -> list:
    """(kind, d, v) with v primitive of nonzero norm in the named lattice."""
    cases = []
    while len(cases) < count:
        kind = rng.choice(("k3", "l_d", "l_d", "u2e8"))
        d = rng.randint(1, 12) if kind == "l_d" else 0
        lat = build_lattice(pkg, kind, d)
        bound = 10 ** rng.randint(1, 6)
        v = [rng.randint(-bound, bound) for _ in range(lat.rank)]
        if kind == "l_d" and rng.random() < 0.3:  # divisor 2: every coordinate but the <2d> one even
            v = [2 * (x // 2) for x in v[:-1]] + [2 * (v[-1] // 2) + 1]
        if rng.random() < 0.25:  # zero on the first marked plane
            for i in MARKED[kind][0]:
                v[i] = 0
        if pkg.linalg.content(v) == 1 and lat.norm(v) != 0:
            cases.append((kind, d, tuple(v)))
    return cases


def run_move(pkg, case):
    kind, d, v = case
    first, second = MARKED[kind]
    res = pkg.move_primitive_vector(v, build_lattice(pkg, kind, d), pkg.HyperbolicPairs(first, second))
    return (res.transvections, res.divisor, res.canonical, res.image, res.isometry.matrix.tolists())


def long_move_cases(rng: random.Random, count: int, pkg) -> list:
    """(kind, d, v) with v primitive of nonzero norm and 500- to 2,000-bit coordinates."""
    cases = []
    while len(cases) < count:
        kind = rng.choice(("k3", "l_d"))
        d = rng.randint(1, 12) if kind == "l_d" else 0
        lat = build_lattice(pkg, kind, d)
        bits = rng.randint(500, 2000)
        v = [rng.getrandbits(bits) * rng.choice((1, -1)) for _ in range(lat.rank)]
        if pkg.linalg.content(v) == 1 and lat.norm(v) != 0:
            cases.append((kind, d, tuple(v)))
    return cases


def matrix_cases(rng: random.Random, count: int, pkg) -> list:
    cases = []
    for _ in range(count):
        rows, cols = rng.randint(0, 7), rng.randint(0, 8)
        m = [[rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10 ** 4, 10 ** 4))) for _ in range(cols)]
             for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:  # rank-deficient: a combination of two rows
            m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
        cases.append((rows, cols, m))
    return cases


def run_snf(pkg, case):
    rows, cols, m = case
    snf = pkg.smith_normal_form(pkg.IntMatrix(m, cols=cols))
    return snf.u.tolists(), snf.d.tolists(), snf.v.tolists()


MODULI = (1, 2, 12, 97, 1024, 1_698_912)


def smith_mod_cases(rng: random.Random, count: int, pkg) -> list:
    return [(rows, cols, m, rng.choice(MODULI)) for rows, cols, m in matrix_cases(rng, count, pkg)]


def run_smith_mod(pkg, case):
    rows, cols, m, modulus = case
    return pkg.linalg._smith_mod(pkg.IntMatrix(m, cols=cols), modulus, transform=True)


SKEW_BYTES = (1, 2, 4, 8, 16, 32, 64)


def coordinate_bytes(gram, norm: int) -> int:
    """Bytes for a signed coordinate of a norm-`norm` vector of a unimodular
    Gram, from |v_k|^2 <= norm * prod_{j != k} g_jj (Hadamard), rounded up
    to a power of two."""
    diagonal = [row[k] for k, row in enumerate(gram)]
    bound = math.isqrt(max(norm * math.prod(diagonal) // g for g in diagonal))
    return 1 << ((bound.bit_length() + 9) // 8 - 1).bit_length()


def short_vector_cases(rng: random.Random, count: int, pkg) -> list:
    """(rank, gram, norm): random positive definite Grams and skewed E8, E8+E8."""
    cases = []
    for i in range(count):
        if i % 2 == 0:  # B B^T + a positive diagonal, rank 0..8 in turn
            rank = i // 2 % 9
            b = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
            gram = [[sum(x * y for x, y in zip(r, s)) + (rng.randint(1, 3) if k == j else 0)
                     for j, s in enumerate(b)] for k, r in enumerate(b)]
            cases.append((rank, gram, rng.randint(1, 10)))
            continue
        turn, target = divmod(i // 2, len(SKEW_BYTES))  # every width in turn, on E8+E8 every third turn
        base = pkg.direct_sum(pkg.e8(), pkg.e8()) if turn % 3 == 2 else pkg.e8()
        gram, rank, target = base.gram.tolists(), base.rank, SKEW_BYTES[target]
        norm = rng.choice((2, 4)) if rank == 8 else 2
        big = 1 << 4 * target if target > 8 else 1  # past 8 bytes the short vectors must be long too
        while coordinate_bytes(gram, norm) < target:  # column j += c column i, on both sides
            j, k = rng.sample(range(rank), 2)
            c = rng.choice((1, -1)) * rng.randint(1, big)
            for row in gram:
                row[j] += c * row[k]
            gram[j] = [x + c * y for x, y in zip(gram[j], gram[k])]
        cases.append((rank, gram, norm))
    return cases


def run_short_vectors(pkg, case):
    rank, gram, norm = case
    report = pkg.short_vectors(pkg.Lattice(rank, pkg.IntMatrix(gram, cols=rank)), norm)
    return report.vectors, report.nodes


def transvection_cases(rng: random.Random, count: int, pkg) -> list:
    """(kind, d, f, a): f isotropic and a orthogonal to f, but in a fifth of
    the cases, each of which breaks one of the two."""
    cases = []
    for _ in range(count):
        kind = rng.choice(("k3", "l_d", "u2e8neg", "big_l"))
        d = rng.randint(1, 12) if kind == "l_d" else 0
        lat = build_lattice(pkg, kind, d)
        i = rng.choice(MARKED[kind][0] + MARKED[kind][1])
        j = i ^ 1  # the plane partner: marked planes sit at an even index and the next
        bound = 10 ** rng.randint(0, 6)
        k = rng.choice((1, -1)) * rng.randint(1, 3)
        if kind == "big_l" and rng.random() < 0.7:
            k *= 2  # G f all even, so a of odd norm still gives an integral E
        f = [0] * lat.rank
        if rng.random() < 0.5:  # general isotropic k (e + c - (c^2/2) e')
            c = [0 if r in (i, j) else rng.randint(-bound, bound) for r in range(lat.rank)]
            if lat.norm(c) % 2:  # only on L, whose last summand <1> then flips the parity
                c[-1] += 1
            f = [k * x for x in c]
            f[j] = -k * (lat.norm(c) // 2)
        f[i] = k
        a = [rng.randint(-bound, bound) for _ in range(lat.rank)]
        a[j] -= lat.pairing(a, f) // k  # a.f is k times an integer, and e'.f = k
        broken = rng.random()
        if broken < 0.1:  # f not isotropic
            f[j] += 1
        elif broken < 0.2:  # a not orthogonal to f
            a[j] += 1
        cases.append((kind, d, tuple(f), tuple(a)))
    return cases


def run_transvection(pkg, case):
    kind, d, f, a = case
    return pkg.eichler_transvection(f, a, build_lattice(pkg, kind, d)).matrix.tolists()


def reflection_cases(rng: random.Random, count: int, pkg) -> list:
    """(kind, d, w): integral reflections through a marked plane, and the error paths."""
    cases = []
    for _ in range(count):
        kind = rng.choice(("k3", "l_d", "e8", "two_four", "big_l"))
        d = rng.randint(1, 12) if kind == "l_d" else 0
        lat = build_lattice(pkg, kind, d)
        bound = rng.choice((1, 2, 10, 1000))
        w = [rng.randint(-bound, bound) for _ in range(lat.rank)]
        shape = rng.random()
        if shape < 0.4 and kind in MARKED:  # w = c + e + y f, with w^2 = c^2 + 2y = +-2 or +-1
            e, f = rng.choice(MARKED[kind])
            w[e] = w[f] = 0
            c2 = lat.norm(w)
            w[e], w[f] = 1, (rng.choice((1, -1)) * (2 - c2 % 2) - c2) // 2
        elif shape < 0.55:
            w = [rng.choice((1, -1, 2)) * x for x in lat.basis_vector(rng.randrange(lat.rank))]
        elif shape < 0.6:  # isotropic
            w = list(lat.basis_vector(MARKED[kind][0][0])) if kind in MARKED else [0] * lat.rank
        elif shape < 0.65:  # one entry too short or too long
            w = w[:-1] if rng.random() < 0.5 else w + [1]
        cases.append((kind, d, tuple(w)))
    return cases


def run_reflection(pkg, case):
    kind, d, w = case
    return pkg.reflection(w, build_lattice(pkg, kind, d)).matrix.tolists()


def enumeration_cases(rng: random.Random, count: int, pkg) -> list:
    """(function name, rank, bound, even_only); one case in twenty is out of range."""
    cases = []
    for _ in range(count):
        name = "bounded_picard_candidates" if rng.random() < 0.25 else "enumerate_lattices"
        rank = rng.randint(1, 2 if name == "bounded_picard_candidates" else 3)
        bound = rng.randint(0, 300)
        if rng.random() < 0.05:  # a rank outside 1..3, or a negative bound
            rank, bound = rng.choice(((0, bound), (4, bound), (rank, -rng.randint(1, 9))))
        cases.append((name, rank, bound, rng.random() < 0.5))
    return cases


def run_enumeration(pkg, case):
    name, rank, bound, even_only = case
    if name == "bounded_picard_candidates":
        return [m.tolists() for m in pkg.bounded_picard_candidates(rank, bound)]
    forms = pkg.enumerate_lattices(rank, bound, even_only)
    return forms.rank, forms.max_disc, forms.even_only, [f.tolists() for f in forms.forms], forms.discs()


def four_square_m(rng: random.Random) -> int:
    """m up to 10^30, or 2 * 4^k (k <= 60), or 8 times an odd number."""
    return rng.choice((rng.randint(0, 10 ** 6), rng.randint(10 ** 6, 10 ** 30), 2 * 4 ** rng.randint(0, 60),
                       8 * (2 * rng.randint(0, 10 ** 20) + 1)))


def four_square_cases(rng: random.Random, count: int, pkg) -> list:
    return [-rng.randint(1, 9) if rng.random() < 0.05 else four_square_m(rng) for _ in range(count)]


def run_four_squares(pkg, m):
    witness = pkg.four_squares(m)
    return witness.m, witness.parts


CLIFFORD_KINDS = ("general", "unimodular", "degenerate-plane", "zero-diagonal", "singular")


def clifford_gram(rng: random.Random, n: int, kind: str) -> list:
    """A symmetric n x n Gram of the named kind (see the module docstring)."""
    g = [[0] * n for _ in range(n)]
    if kind == "unimodular":  # U^T D U, U = 1 + a +-1 superdiagonal, D a +-1 diagonal
        u = [[1 if j == i else rng.choice((1, -1)) if j == i + 1 else 0 for j in range(n)] for i in range(n)]
        d = [rng.choice((1, -1)) for _ in range(n)]
        return [[sum(u[k][i] * d[k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        g[i][i] = 0 if kind == "zero-diagonal" else rng.choice((1, -1)) * rng.randint(1, 3)
        j = (i + 1) % n
        if j != i:
            g[i][j] = g[j][i] = rng.choice((1, -1, 2, -2) if kind == "zero-diagonal" else (1, -1))
    if kind == "degenerate-plane" and n >= 3:
        g[0][0] = g[0][1] = g[1][0] = 0
        g[0][2] = g[2][0] = rng.choice((1, -1))
    if kind == "singular" and n >= 2:
        for i in range(n):
            g[i][n - 1] = g[n - 1][i] = g[i][0]
        g[n - 1][n - 1] = g[0][0]
    return g


def clifford_host(pkg, rank: int, gram):
    return pkg.Lattice(rank, pkg.IntMatrix(gram, cols=rank))


def low_degree(rng: random.Random, n: int) -> dict:
    """{mask: coefficient} on up to three of 1, the e_i and the e_i e_j."""
    masks = [0] + [1 << i for i in range(n)] + [1 << i | 1 << j for i in range(n) for j in range(i)]
    return {m: rng.choice((1, -1)) * rng.randint(1, 3) for m in rng.sample(masks, min(3, len(masks)))}


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def clifford_cases(rng: random.Random, count: int, pkg) -> list:
    """(rank, gram, kind): ranks 0 to 8 in turn, kinds drawn."""
    cases = []
    for i in range(count):
        kind = rng.choice(CLIFFORD_KINDS)
        cases.append((i % 9, clifford_gram(rng, i % 9, kind), kind))
    return cases


def run_trace_form(pkg, case):
    rank, gram, _ = case
    return digest(pkg.clifford.CliffordAlgebra(pkg.IntMatrix(gram, cols=rank)).trace_form())


def run_find_a(pkg, case):
    rank, gram, _ = case
    pol = pkg.find_polarization_element(clifford_host(pkg, rank, gram))
    return sorted(pol.element.coeffs.items()), digest(pol.gram.tolists()), pol.candidates_tried


def phi_a_cases(rng: random.Random, count: int, pkg) -> list:
    """(rank, gram, x, y, a, warm)."""
    return [(rank, gram, low_degree(rng, rank), low_degree(rng, rank), low_degree(rng, rank), rng.random() < 0.5)
            for rank, gram, _ in clifford_cases(rng, count, pkg)]


def run_phi_a(pkg, case):
    rank, gram, x, y, a, warm = case
    host = clifford_host(pkg, rank, gram)
    if warm:
        pkg.clifford._algebra(host).trace_form()
    x, y, a = (pkg.CliffordElement(host, z) for z in (x, y, a))
    return pkg.phi_a(x, y, a), pkg.phi_a(y, x, a)


def project_cases(rng: random.Random, count: int, pkg) -> list:
    """(rank, gram, f kind, data): unimodular hosts of rank 1 to 8, one case
    in five on another kind of host."""
    cases = []
    for i in range(count):
        rank = i % 8 + 1
        kind = "unimodular" if rng.random() < 0.8 else rng.choice(CLIFFORD_KINDS)
        f_kind = rng.choice(("vector", "vector", "element", "unit"))
        if f_kind == "vector":
            data = {1 << k: rng.randint(-3, 3) for k in range(rank)}
        elif f_kind == "element":
            data = low_degree(rng, rank)
        else:
            data = rng.randrange(rank)
        cases.append((rank, clifford_gram(rng, rank, kind), f_kind, data))
    return cases


def run_project(pkg, case):
    rank, gram, f_kind, data = case
    host, dim = clifford_host(pkg, rank, gram), 1 << rank
    if f_kind == "unit":  # E_{0, e_j}: Tr(f L_{e_j}) = 1
        f = pkg.EndoMatrix(dim, pkg.IntMatrix([[int(r == 0 and k == 1 << data) for k in range(dim)]
                                               for r in range(dim)]))
    else:
        f = pkg.left_mul_matrix(pkg.CliffordElement(host, data))
    return pkg.project_endo_to_l(f, host)


def parser_paths(parser, path=()):
    """Every command path of an argparse parser, the parser itself first."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from parser_paths(child, path + (name,))


def lattice_json(gram) -> str:
    return json.dumps({"rank": len(gram), "gram": gram})


def embedding_obj(target, cols) -> dict:
    """The embedding of the columns `cols` into the Gram `target`, with the source Gram B^T G B."""
    source = [[sum(x * g * y for x, row in zip(c, target) for g, y in zip(row, c2)) for c2 in cols] for c in cols]
    return {"source": {"rank": len(cols), "gram": source}, "target": {"rank": len(target), "gram": target},
            "matrix": [list(r) for r in zip(*cols)]}


def block_gram(*blocks) -> list:
    """The Gram of the orthogonal sum of the square blocks."""
    n = sum(len(b) for b in blocks)
    gram, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[at + i][at:at + len(b)] = row
        at += len(b)
    return gram


# labels echo into lattice outputs: long digit runs in strings, escapes, non-ASCII text, and
# non-string JSON values, which the library keeps as they are
LABELS = (None, "12345678901234567890", 'E8 "9007199254740993" \\ \u4e2d', "-90071992547409930",
          9007199254740993, 0.19999999999999998, 9007199254740994.0, ["99999999999999999999", -(10 ** 20)])


def big_int(rng: random.Random) -> int:
    """A small int, 2^53, 2^53 + 1, 16 digits below 2^53, or 20 to 30 digits, of either sign."""
    x = rng.choice((rng.randint(0, 3), 1 << 53, (1 << 53) + 1, rng.randint(10 ** 15, 1 << 53),
                    rng.randint(10 ** 19, 10 ** 30)))
    return rng.choice((1, -1)) * x


def labelled(rng: random.Random, obj: dict) -> dict:
    label = rng.choice(LABELS)
    return obj if label is None else {**obj, "label": label}


def clifford_terms(rng: random.Random, rank: int) -> list:
    """Up to four terms with big coefficients, given as JSON ints or as strings."""
    return [{"mask": rng.randrange(1 << rank), "coeff": rng.choice((big_int(rng), str(big_int(rng))))}
            for _ in range(rng.randint(1, 4))]


def cli_cases(rng: random.Random, count: int, pkg) -> list:
    """(argv, stdin text): every `--help`, then seeded commands on small lattices."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    cases = [([*path, "--help"], "") for path in parser_paths(cli.build_parser())]
    u, e8 = [[0, 1], [1, 0]], pkg.e8().gram.tolists()
    for _ in range(count):
        rank = rng.randint(1, 4)
        sym = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                sym[i][j] = sym[j][i] = rng.randint(-3, 3)
        b = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
        definite = [[sum(x * y for x, y in zip(r, s)) + (rng.randint(1, 3) if k == j else 0)
                     for j, s in enumerate(b)] for k, r in enumerate(b)]
        hyperbolic = block_gram(u, *([[-2 * rng.randint(1, 3)]] for _ in range(rng.randint(0, 2))))
        vector = ",".join(str(rng.randint(-3, 3)) for _ in hyperbolic)
        kind = rng.randrange(20)
        if kind == 0:
            name = rng.choice(("k3", "e8", "u", "big-l", "l_d", "rank-one", None))
            argv = ["lattice", "build", *([name] if name else [])]
            argv += rng.choice(([], ["--d", str(rng.randint(-1, 9))], ["--n", str(rng.randint(-3, 9))]))
            cases.append((rng.choice(([], ["--raw-ints"])) + argv, ""))
        elif kind == 1:
            cases.append((["lattice", "info", *rng.choice(([], ["--table"]))], lattice_json(sym)))
        elif kind == 2:
            gram = rng.choice((definite, definite, sym, e8))
            cases.append((["roots", "--norm", str(rng.randint(-1, 6))], lattice_json(gram)))
        elif kind == 3:
            flag = rng.choice((["--v", vector], [f"--v={vector}"]))
            cases.append((["walls", *flag], lattice_json(hyperbolic)))
        elif kind == 4:
            argv = ["mindeg", "--box", str(rng.randint(1, 3)), "--norm-limit", str(rng.randint(1, 10))]
            cases.append((argv, lattice_json(hyperbolic)))
        elif kind == 5:  # v^2 is the right degree half of the time; (a, a, 0, ...) lies on the wall of (1, -1)
            v = [int(x) for x in vector.split(",")]
            if rng.random() < 0.25:
                v = [rng.randint(1, 3)] * 2 + [0] * (len(v) - 2)
            norm = sum(x * g * y for x, row in zip(v, hyperbolic) for g, y in zip(row, v))
            degree = rng.choice((norm, norm, norm + 2, rng.randint(1, 12)))
            if rng.random() < 0.15:  # one entry too short or too long
                v = v[:-1] if rng.random() < 0.5 else v + [1]
            argv = ["verify-cert", "--v", ",".join(map(str, v)), "--degree", str(degree)]
            cases.append((argv, lattice_json(hyperbolic)))
        elif kind == 6:  # one or two columns in U + U + <2k>, some of them multiples
            target = block_gram(u, u, [[2 * rng.randint(1, 3)]])
            cols = [[c * rng.randint(-2, 2) for _ in target] for c in rng.choices((1, 1, 2, 3), k=rng.randint(1, 2))]
            cases.append(([rng.choice(("complement", "saturate"))], json.dumps(embedding_obj(target, cols))))
        elif kind == 7:
            argv = ["enumerate", "--rank", str(rng.randint(1, 3)), "--max-disc", str(rng.randint(1, 12))]
            cases.append((argv + rng.choice(([], ["--even"], ["--csv"], ["--even", "--csv"])), ""))
        elif kind == 8:
            text = lattice_json(definite)
            cases.append((["lattice", "info"], text[:rng.randrange(len(text))]))
        elif kind == 11:  # the Gram read from a file, entries near and beyond 2^53
            rank = rng.randint(1, 3)
            gram = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                for j in range(i, rank):
                    gram[i][j] = gram[j][i] = big_int(rng)
            argv = rng.choice(([], ["--raw-ints"])) + ["lattice", "build", "--file"]
            cases.append((argv, json.dumps(labelled(rng, {"rank": rank, "gram": gram}))))
        elif kind == 12:  # clifford products and reversals with big coefficients
            rank = rng.randint(1, 3)
            gram = clifford_gram(rng, rank, "general")
            if rank > 1 and rng.random() < 0.5:
                gram[0][1] = gram[1][0] = big_int(rng)
            x = labelled(rng, {"rank": rank, "gram": gram, "terms": clifford_terms(rng, rank)})
            raw = rng.choice(([], ["--raw-ints"]))
            if rng.random() < 0.5:
                y = {"terms": clifford_terms(rng, rank)}
                cases.append((raw + ["clifford", "mul"], json.dumps({"x": x, "y": rng.choice((y, {**x, **y}))})))
            else:
                cases.append((raw + ["clifford", "reversal"], json.dumps(x)))
        elif kind == 13:
            m = rng.choice((rng.randint(-1, 200), rng.randint(1 << 53, 10 ** 30), four_square_m(rng)))
            d = rng.choice((rng.randint(0, 6), abs(big_int(rng))))
            cases.append((rng.choice((["embed", "four-squares", "--m", str(m)], ["embed", "vd", "--d", str(d)],
                                      ["embed", "vd", "--d", str(d), "--positive-norm"])), ""))
        elif kind == 14:  # gspin pairs and projections, some with coordinates beyond 2^53
            rank = rng.randint(1, 3)
            scale = rng.choice((1, 1, 10 ** 9, 10 ** 20))
            if rng.random() < 0.5:
                host = {"rank": rank, "gram": clifford_gram(rng, rank, rng.choice(("general", "unimodular")))}
                v, w = ([scale * rng.randint(-2, 2) for _ in range(rank)] for _ in range(2))
                cases.append((["clifford", "gspin"], json.dumps({"lattice": host, "v": v, "w": w})))
            else:
                gram = clifford_gram(rng, rank, "unimodular")
                element = pkg.CliffordElement(clifford_host(pkg, rank, gram),
                                              {1 << k: scale * rng.randint(-3, 3) for k in range(rank)})
                endo = pkg.left_mul_matrix(element).entries.tolists()
                if rng.random() < 0.2:  # E_{0, e_0}: its trace 1 is not divisible by 2^n
                    endo = [[int(r == 0 and k == 1) for k in range(1 << rank)] for r in range(1 << rank)]
                cases.append((["clifford", "project"], json.dumps({"lattice": {"rank": rank, "gram": gram},
                                                                   "endo": endo})))
        elif kind == 15:  # a saturated vector of U + U (+ <-1> + <1>) against its complement, or a broken one
            target = rng.choice((block_gram(u, u), block_gram(u, u, [[-1]], [[1]])))
            col = [rng.randint(-2, 2) for _ in target]
            col[0] = col[0] or 1
            lattice = pkg.Lattice(len(target), pkg.IntMatrix(target))
            left = pkg.saturate(pkg.sublattice_embedding(lattice, [col]))
            right = pkg.orthogonal_complement(left).matrix.columns()
            broken = rng.random()
            if broken < 0.15:  # not saturated
                right[0] = [2 * x for x in right[0]]
            elif broken < 0.25:  # the ranks do not add up
                right = right[1:]
            payload = {"left": embedding_obj(target, left.matrix.columns()), "right": embedding_obj(target, right)}
            cases.append((["check-disc-complement"], json.dumps(payload)))
        elif kind == 16:  # signed permutations on U + <2k> + <2j>, some of them no isometry
            target = block_gram(u, [[2 * rng.randint(1, 3)]], [[2 * rng.randint(1, 3)]])
            perm = rng.choice(([0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2], rng.sample(range(4), 4)))
            signs = [rng.choice((1, -1)) for _ in perm]
            matrix = [[signs[j] * (perm[j] == i) for j in range(4)] for i in range(4)]
            cases.append((["disc-kernel"], json.dumps({"lattice": {"rank": 4, "gram": target}, "matrix": matrix})))
        elif kind == 17:
            cases.append((["embed", "ld-in-l", "--d", str(rng.randint(-2, 12))], ""))
        elif kind == 18:  # phi_a(x, y, a) of elements of degree <= 2
            rank = rng.randint(1, 4)
            x, y, a = ({"terms": [{"mask": m, "coeff": c} for m, c in low_degree(rng, rank).items()]}
                       for _ in range(3))
            x.update(rank=rank, gram=clifford_gram(rng, rank, rng.choice(CLIFFORD_KINDS)))
            cases.append((["clifford", "phi-a"], json.dumps({"x": x, "y": y, "a": a})))
        elif kind == 19:
            rank = rng.randint(0, 6)
            host = {"rank": rank, "gram": clifford_gram(rng, rank, rng.choice(CLIFFORD_KINDS))}
            cases.append((["clifford", "find-a"], json.dumps(host)))
        else:  # usage errors
            cases.append((rng.choice((["no-such-command"], ["roots"], ["roots", "--norm", "x"],
                                      ["walls", "--v", "a,b"], ["lattice"], ["lattice", "build", "e9"],
                                      ["clifford", "mul", "--extra"], [])), lattice_json(definite)))
    return cases


def run_cli(pkg, case):
    argv, stdin_text = case
    if argv[-1:] == ["--file"]:  # the input goes to a file, whose path follows --file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "input.json")
            path.write_text(stdin_text)
            return run_cli(pkg, ([*argv, str(path)], ""))
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


FUNCTIONS = {
    "move_primitive_vector": (move_cases, run_move, 1.0),
    "move_long_coordinates": (long_move_cases, run_move, 0.02),
    "smith_normal_form": (matrix_cases, run_snf, 2.0),
    "_smith_mod": (smith_mod_cases, run_smith_mod, 2.0),
    "short_vectors": (short_vector_cases, run_short_vectors, 1.0),
    "eichler_transvection": (transvection_cases, run_transvection, 1.0),
    "reflection": (reflection_cases, run_reflection, 1.0),
    "enumerate_lattices": (enumeration_cases, run_enumeration, 0.2),
    "four_squares": (four_square_cases, run_four_squares, 0.2),
    "trace_form": (clifford_cases, run_trace_form, 0.2),
    "find_polarization_element": (clifford_cases, run_find_a, 0.2),
    "phi_a": (phi_a_cases, run_phi_a, 0.3),
    "project_endo_to_l": (project_cases, run_project, 0.2),
    "cli": (cli_cases, run_cli, 0.2),
}


# ---------------------------------------------------------------------------

def run_case(run, pkg, case, timeout: float):
    """('ok', output), ('raised', type and message) or ('timeout', None)."""
    def alarm(signum, frame):
        raise CaseTimeout

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return "ok", run(pkg, case)
    except CaseTimeout:
        return "timeout", None
    except Exception as exc:  # an exception is an output to compare
        return "raised", (type(exc).__name__, str(exc))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def compare(name: str, trees, cases_per_function: int, timeout: float) -> bool:
    make_cases, run, scale = FUNCTIONS[name]
    cases = make_cases(random.Random(f"{SEED}:{name}"), max(1, int(cases_per_function * scale)), trees[0])
    results, seconds = [], []
    for pkg in trees:
        start = time.perf_counter()
        results.append([run_case(run, pkg, case, timeout) for case in cases])
        seconds.append(time.perf_counter() - start)
    digests = [hashlib.sha256() for _ in trees]
    skipped, finished, differ = [], 0, 0
    for i, (left, right) in enumerate(zip(*results)):
        if "timeout" in (left[0], right[0]):
            skipped.append(i)
            continue
        finished += 1
        differ += left != right
        for digest, outcome in zip(digests, (left, right)):
            digest.update(repr(outcome).encode())
    for digest in digests:
        digest.update(repr(skipped).encode())
    print(f"{name:<22} cases {len(cases):>5}  both finished {finished:>5}  differ {differ:>3}  "
          f"left {digests[0].hexdigest()[:16]} ({seconds[0]:.1f} s)  "
          f"right {digests[1].hexdigest()[:16]} ({seconds[1]:.1f} s)")
    for side, outcomes in zip(("left", "right"), results):
        hung = [i for i, (status, _) in enumerate(outcomes) if status == "timeout"]
        if hung:
            print(f"  {side} did not finish in {timeout:g} s: cases {hung}")
    return differ == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left", type=Path, help="src/ directory of the first tree")
    parser.add_argument("right", type=Path, help="src/ directory of the second tree")
    parser.add_argument("--cases", type=int, default=1000,
                        help="cases for move_primitive_vector, short_vectors and eichler_transvection; "
                             "twice as many matrices and a fiftieth as many long-coordinate moves, "
                             "at least one (default 1000)")
    parser.add_argument("--timeout", type=float, default=10.0, help="seconds per case and side (default 10)")
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)  # outputs of long-coordinate moves have more than 4,300 digits
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage text at this width
    trees = [load_tree(args.left, "identity_left"), load_tree(args.right, "identity_right")]
    same = [compare(name, trees, args.cases, args.timeout) for name in FUNCTIONS]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
