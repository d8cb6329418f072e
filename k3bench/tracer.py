"""Spans around calls into k3lattices, recorded from the benchmark's side.

`Tracer.install` wraps the public functions listed in SPANS.  A name bound by
`from .linalg import ...` lives in several module namespaces, so every
k3lattices module that holds the original object gets the wrapper.  Methods
are wrapped on their class.  While `on` is true each call records a span:
name, start, end, parent span, task id, and for a few spans a value taken
from the result.  Spans stay in memory; `write` saves them when the round
ends and `metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import Counter

# (module, attribute or Class.method, span name, value recorded from the result)
SPANS = [
    ("linalg", "smith_normal_form", "linalg.snf", None),
    ("linalg", "det_exact", "linalg.det", None),
    ("linalg", "unimodular_inverse", "linalg.inverse", None),
    ("linalg", "rational_inverse", "linalg.inverse", None),
    ("linalg", "IntMatrix.__matmul__", "linalg.matmul", None),
    ("linalg", "signature", "linalg.signature", None),
    ("linalg", "rational_kernel", "linalg.kernel", None),
    ("linalg", "ldlt", "linalg.ldlt", None),
    ("lattices", "Isometry.__post_init__", "lattices.isometry_check", None),
    ("lattices", "Isometry.compose", "lattices.compose", None),
    ("lattices", "LatticeEmbedding.__post_init__", "lattices.embedding_check", None),
    ("lattices", "eichler_transvection", "lattices.transvection", None),
    ("lattices", "move_primitive_vector", "lattices.move", None),
    ("lattices", "discriminant_group", "lattices.disc_group", None),
    ("lattices", "orthogonal_complement", "lattices.complement", None),
    ("lattices", "sublattice_embedding", "lattices.sublattice", None),
    ("lattices", "saturate", "lattices.saturate", None),
    ("lattices", "is_primitive", "lattices.is_primitive", None),
    ("lattices", "in_discriminant_kernel", "lattices.disc_kernel", None),
    ("lattices", "check_disc_complement", "lattices.disc_complement", None),
    ("lattices", "l_d", "lattices.l_d", None),
    ("embeddings", "four_squares", "embeddings.four_squares", None),
    ("embeddings", "embed_2d_in_i5", "embeddings.embed_2d_in_i5", None),
    ("embeddings", "embed_ld_in_l", "embeddings.embed_ld_in_l", None),
    ("embeddings", "complement_of_ld_in_l", "embeddings.complement_of_ld_in_l", None),
    ("roots", "short_vectors", "roots.short_vectors", lambda r: len(r.vectors)),
    ("roots", "minus_two_walls_through", "roots.walls", None),
    ("roots", "in_cn", "roots.in_cn", bool),
    ("roots", "min_polarization_degree", "roots.mindeg", None),
    ("roots", "verify_certificate", "roots.verify_certificate", None),
    ("clifford", "trace_of_left_mul", "clifford.trace", None),
    ("clifford", "phi_gram", "clifford.phi_gram", None),
    ("clifford", "find_polarization_element", "clifford.find_a", None),
    ("clifford", "clifford_mul", "clifford.mul", None),
    ("clifford", "reversal", "clifford.reversal", None),
    ("clifford", "left_mul_matrix", "clifford.left_mul_matrix", None),
    ("clifford", "phi_a", "clifford.phi_a", None),
    ("clifford", "gspin_generator", "clifford.gspin", None),
    ("clifford", "conjugation_preserves_lattice", "clifford.conjugation", None),
    ("clifford", "trace_pairing_identity", "clifford.trace_pairing", None),
    ("clifford", "project_endo_to_l", "clifford.project", None),
    ("enumeration", "enumerate_lattices", "enumeration.enumerate", None),
    ("enumeration", "bounded_picard_candidates", "enumeration.picard", None),
    ("enumeration", "transcendental_invariants", "enumeration.transcendental", None),
    ("cli", "main", "cli.main", None),
    ("serialize", "dumps", "serialize.dumps", None),
    ("serialize", "lattice_from_obj", "serialize.lattice_from_obj", None),
    ("serialize", "lattice_to_obj", "serialize.lattice_to_obj", None),
]

# The per-layer metrics, in BENCHMARK.json order: (name, unit, better, kind, key).
# kinds: calls / s (inclusive, outermost spans of a name), sum (of the recorded
# values), ratio (true values over calls), layer_s (outermost spans of a
# layer), self_s (span durations minus their children's, summed over a layer),
# accepted (spans of key[0] per span of key[1] beneath one).
METRICS = [
    ("linalg.snf.calls", "count", "lower", "calls", "linalg.snf"),
    ("linalg.snf.s", "s", "lower", "s", "linalg.snf"),
    ("linalg.det.calls", "count", "lower", "calls", "linalg.det"),
    ("linalg.det.s", "s", "lower", "s", "linalg.det"),
    ("linalg.inverse.s", "s", "lower", "s", "linalg.inverse"),
    ("linalg.matmul.calls", "count", "lower", "calls", "linalg.matmul"),
    ("linalg.matmul.s", "s", "lower", "s", "linalg.matmul"),
    ("linalg.signature.s", "s", "lower", "s", "linalg.signature"),
    ("linalg.kernel.s", "s", "lower", "s", "linalg.kernel"),
    ("linalg.ldlt.s", "s", "lower", "s", "linalg.ldlt"),
    ("linalg.self_s", "s", "lower", "self_s", "linalg"),
    ("lattices.isometry_check.calls", "count", "lower", "calls", "lattices.isometry_check"),
    ("lattices.isometry_check.s", "s", "lower", "s", "lattices.isometry_check"),
    ("lattices.transvections", "count", "lower", "calls", "lattices.transvection"),
    ("lattices.move.s", "s", "lower", "s", "lattices.move"),
    ("lattices.disc_group.s", "s", "lower", "s", "lattices.disc_group"),
    ("lattices.embedding_check.calls", "count", "lower", "calls", "lattices.embedding_check"),
    ("lattices.embedding_check.s", "s", "lower", "s", "lattices.embedding_check"),
    ("lattices.complement.calls", "count", "lower", "calls", "lattices.complement"),
    ("lattices.complement.s", "s", "lower", "s", "lattices.complement"),
    ("lattices.self_s", "s", "lower", "self_s", "lattices"),
    ("embeddings.s", "s", "lower", "layer_s", "embeddings"),
    ("roots.in_cn.calls", "count", "lower", "calls", "roots.in_cn"),
    ("roots.in_cn.s", "s", "lower", "s", "roots.in_cn"),
    ("roots.in_cn.useful_ratio", "ratio", "higher", "ratio", "roots.in_cn"),
    ("roots.self_s", "s", "lower", "self_s", "roots"),
    ("roots.short_vectors.calls", "count", "lower", "calls", "roots.short_vectors"),
    ("roots.short_vectors.s", "s", "lower", "s", "roots.short_vectors"),
    ("roots.short_vectors.found", "count", "lower", "sum", "roots.short_vectors"),
    ("clifford.trace.calls", "count", "lower", "calls", "clifford.trace"),
    ("clifford.trace.s", "s", "lower", "s", "clifford.trace"),
    ("clifford.phi_gram.calls", "count", "lower", "calls", "clifford.phi_gram"),
    ("clifford.phi_gram.s", "s", "lower", "s", "clifford.phi_gram"),
    ("clifford.find_a.s", "s", "lower", "s", "clifford.find_a"),
    ("clifford.find_a.useful_ratio", "ratio", "higher", "accepted",
     ("clifford.find_a", "clifford.phi_gram")),
    ("clifford.mul.calls", "count", "lower", "calls", "clifford.mul"),
    ("clifford.mul.s", "s", "lower", "s", "clifford.mul"),
    ("clifford.reversal.s", "s", "lower", "s", "clifford.reversal"),
    ("clifford.left_mul_matrix.s", "s", "lower", "s", "clifford.left_mul_matrix"),
    ("clifford.phi_a.s", "s", "lower", "s", "clifford.phi_a"),
    ("clifford.self_s", "s", "lower", "self_s", "clifford"),
    ("enumeration.s", "s", "lower", "layer_s", "enumeration"),
    ("cli.main.calls", "count", "lower", "calls", "cli.main"),
    ("cli.main.s", "s", "lower", "s", "cli.main"),
    ("serialize.s", "s", "lower", "layer_s", "serialize"),
]


class Tracer:
    def __init__(self):
        self.on = False
        self.task = -1
        # one entry per span, in start order
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.tasks: list[int] = []
        self.values: list = []
        self.outer_name: list[bool] = []   # no enclosing span of the same name
        self.outer_layer: list[bool] = []  # no enclosing span of the same layer
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def install(self) -> None:
        for mod_name in sorted({spec[0] for spec in SPANS}):
            importlib.import_module(f"k3lattices.{mod_name}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "k3lattices" or key.startswith("k3lattices."))]
        for mod_name, attr, span, value_fn in SPANS:
            home = sys.modules[f"k3lattices.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), span, value_fn))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span, value_fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, name, value_fn):
        layer = name.split(".")[0]
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        tasks, values, outer_name, outer_layer = self.tasks, self.values, self.outer_name, self.outer_layer
        stack, depth = self._stack, self._depth
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            tasks.append(tracer.task)
            outer_name.append(depth[name] == 0)
            outer_layer.append(depth[layer] == 0)
            values.append(None)
            ends.append(0)
            depth[name] += 1
            depth[layer] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[name] -= 1
                depth[layer] -= 1
            if value_fn is not None:
                values[idx] = value_fn(out)
            return out

        return wrapper

    def metrics(self) -> dict[str, float]:
        n = len(self.names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter(self.names)
        incl: Counter = Counter()
        layer_incl: Counter = Counter()
        layer_self: Counter = Counter()
        value_sum: Counter = Counter()
        for i, name in enumerate(self.names):
            layer = name.split(".")[0]
            if self.outer_name[i]:
                incl[name] += dur[i]
            if self.outer_layer[i]:
                layer_incl[layer] += dur[i]
            layer_self[layer] += dur[i] - child[i]
            if self.values[i] is not None:
                value_sum[name] += int(self.values[i])
        out = {}
        for metric, _unit, _better, kind, key in METRICS:
            if kind == "calls":
                out[metric] = calls[key]
            elif kind == "s":
                out[metric] = incl[key] / 1e9
            elif kind == "sum":
                out[metric] = value_sum[key]
            elif kind == "ratio":
                out[metric] = value_sum[key] / calls[key] if calls[key] else 0.0
            elif kind == "layer_s":
                out[metric] = layer_incl[key] / 1e9
            elif kind == "self_s":
                out[metric] = layer_self[key] / 1e9
            elif kind == "accepted":
                outer, inner = key
                tried = sum(1 for i, name in enumerate(self.names)
                            if name == inner and self._under(i, outer))
                out[metric] = calls[outer] / tried if tried else 0.0
        return out

    def _under(self, i: int, ancestor: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == ancestor:
                return True
            p = self.parents[p]
        return False

    def write(self, path: str) -> None:
        """One line per span: name, start and end (ns from the first span),
        parent index (-1 for none), task id, recorded value."""
        t0 = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=3) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\ttask\tvalue\n")
            for i, name in enumerate(self.names):
                fh.write(f"{name}\t{self.starts[i] - t0}\t{self.ends[i] - t0}\t"
                         f"{self.parents[i]}\t{self.tasks[i]}\t{self.values[i]}\n")
