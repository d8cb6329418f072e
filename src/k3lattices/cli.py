"""Command line interface: every library operation behind stable JSON I/O.

Subcommands read structured input from stdin (or a file) and print JSON to
stdout, so pipelines like `build | complement | info` need no temp files.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import clifford as cl
from . import embeddings as emb
from . import enumeration as enum_mod
from . import lattices as lat
from . import roots
from . import serialize as ser


def _read_json(args, attr="file"):
    path = getattr(args, attr, None)
    if not path:
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None


def _emit(args, payload):
    print(ser.dumps(payload, raw_ints=args.raw_ints))


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x != "")
    except ValueError:  # argparse reports it as a usage error, exit code 2
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# lattice commands

_BUILDERS = {
    "k3": lambda a: lat.k3_lattice(),
    "l_d": lambda a: lat.l_d(_require(a.d, "--d")),
    "big-l": lambda a: lat.big_l(),
    "e8": lambda a: lat.e8(),
    "u": lambda a: lat.hyperbolic_u(),
    "rank-one": lambda a: lat.rank_one(_require(a.n, "--n")),
}


def _require(value, flag):
    if value is None:
        raise ValueError(f"this builder needs {flag}")
    return value


def cmd_lattice_build(args):
    if args.file:
        built = ser.lattice_from_obj(_read_json(args))
    else:
        if args.name is None:
            raise ValueError("give a lattice name or --file")
        built = _BUILDERS[args.name](args)
    _emit(args, ser.lattice_to_obj(built))


def cmd_lattice_info(args):
    lattice = ser.lattice_from_obj(_read_json(args))
    info = {
        "rank": lattice.rank,
        "signature": lattice.signature(),
        "disc": lattice.det(),
        "disc_group": lat.discriminant_group(lattice).invariant_factors
        if lattice.is_nondegenerate() else None,
    }
    if args.table:
        for key in ("rank", "signature", "disc", "disc_group"):  # tuples print as lists, as in the JSON
            value = info[key]
            print(f"{key:12} {value if value is None else json.dumps(value)}")
        return
    _emit(args, info)


def cmd_four_squares(args):
    witness = emb.four_squares(args.m)
    _emit(args, {"m": witness.m, "parts": witness.parts})


def cmd_ld_in_l(args):
    _emit(args, ser.embedding_to_obj(emb.embed_ld_in_l(args.d)))


def cmd_vd(args):
    data = emb.v_d_in_k3(args.d, positive_norm=args.positive_norm)
    _emit(args, {
        "vector": data.vector,
        "complement": ser.embedding_to_obj(data.complement),
        "iso_target": ser.lattice_to_obj(data.target),
        "iso_matrix": data.iso_matrix.tolists(),
    })


def cmd_complement(args):
    sub = ser.embedding_from_obj(_read_json(args))
    _emit(args, ser.embedding_to_obj(lat.orthogonal_complement(sub)))


def cmd_saturate(args):
    sub = ser.embedding_from_obj(_read_json(args))
    _emit(args, ser.embedding_to_obj(lat.saturate(sub)))


def cmd_roots(args):
    lattice = ser.lattice_from_obj(_read_json(args))
    report = roots.short_vectors(lattice, args.norm)
    _emit(args, {
        "norm": report.norm,
        "count": report.count(),
        "complete": True,
        "vectors": report.vectors,
    })


def cmd_walls(args):
    lattice = ser.lattice_from_obj(_read_json(args))
    walls = roots.minus_two_walls_through(lattice, args.v)
    _emit(args, {"v": args.v, "walls": walls})


def cmd_mindeg(args):
    lattice = ser.lattice_from_obj(_read_json(args))
    res = roots.min_polarization_degree(lattice, args.norm_limit, args.box)
    _emit(args, {
        "upper_bound": res.upper_bound,
        "certificate": res.certificate or None,
        "norm_limit": res.searched_norm_limit,
        "box": res.searched_box,
        "exhaustive": res.exhaustive,
    })


def cmd_verify_cert(args):
    lattice = ser.lattice_from_obj(_read_json(args))
    ok = roots.verify_certificate(lattice, args.v, args.degree)
    _emit(args, {"valid": ok})
    return 0 if ok else 1


def cmd_disc_kernel(args):
    iso = ser.isometry_from_obj(_read_json(args, "isometry_file"))
    _emit(args, {"in_discriminant_kernel": lat.in_discriminant_kernel(iso)})


def cmd_enumerate(args):
    lst = enum_mod.enumerate_lattices(args.rank, args.max_disc, even_only=args.even)
    if args.csv:
        from collections import Counter

        counts = Counter(lst.discs())
        print("disc,count")
        for disc in sorted(counts):
            print(f"{disc},{counts[disc]}")
        return
    _emit(args, {
        "rank": lst.rank,
        "max_disc": lst.max_disc,
        "count": lst.count(),
        "forms": [f.tolists() for f in lst.forms],
    })


def cmd_check_disc_complement(args):
    payload = _read_json(args)
    left = ser.embedding_from_obj(ser._field(payload, "left", "a discriminant-complement check"))
    right = ser.embedding_from_obj(ser._field(payload, "right", "a discriminant-complement check"))
    report = lat.check_disc_complement(left, right)
    _emit(args, {"disc": report.disc_left, "disc_complement": report.disc_right,
                 "index": report.index})


# ---------------------------------------------------------------------------
# clifford commands

def cmd_clifford(args):
    payload = _read_json(args)
    what = f"a clifford {args.op} input"
    if args.op == "mul":
        x = ser.clifford_from_obj(ser._field(payload, "x", what))
        y = ser.clifford_from_obj(ser._field(payload, "y", what), x.host)
        _emit(args, ser.clifford_to_obj(x * y))
    elif args.op == "reversal":
        x = ser.clifford_from_obj(payload)
        _emit(args, ser.clifford_to_obj(cl.reversal(x)))
    elif args.op == "phi-a":
        x = ser.clifford_from_obj(ser._field(payload, "x", what))
        y = ser.clifford_from_obj(ser._field(payload, "y", what), x.host)
        a = ser.clifford_from_obj(ser._field(payload, "a", what), x.host)
        _emit(args, {"value": cl.phi_a(x, y, a)})
    elif args.op == "find-a":
        host = ser.lattice_from_obj(payload)
        pol = cl.find_polarization_element(host)
        _emit(args, {"a": ser.clifford_to_obj(pol.element),
                     "gram_det_nonzero": True})
    elif args.op == "gspin":
        host = ser.lattice_from_obj(ser._field(payload, "lattice", what))
        pair = cl.gspin_generator(ser._parse_vector(ser._field(payload, "v", what)),
                                  ser._parse_vector(ser._field(payload, "w", what)), host)
        report = cl.conjugation_preserves_lattice(pair, host)
        _emit(args, {
            "g": ser.clifford_to_obj(pair.g),
            "inverse_numerator": ser.clifford_to_obj(pair.inverse_numerator),
            "denominator": pair.denominator,
            "preserves_lattice": report.preserves,
            "images": report.images or None,
        })
    elif args.op == "project":
        host = ser.lattice_from_obj(ser._field(payload, "lattice", what))
        entries = ser._parse_matrix(ser._field(payload, "endo", what))
        f = cl.EndoMatrix(entries.rows, entries)
        _emit(args, {"vector": cl.project_endo_to_l(f, host)})


# ---------------------------------------------------------------------------
# wiring

_FILE = {"--file": {}}

# (command path, help, handler, arguments) in `--help` order; a row with no handler is a group
_COMMANDS = (
    (("lattice",), "build lattices and report invariants", None, {}),
    (("lattice", "build"), None, cmd_lattice_build, {
        "name": dict(nargs="?", choices=sorted(_BUILDERS)),
        "--d": dict(type=int),
        "--n": dict(type=int),
        **_FILE}),
    (("lattice", "info"), None, cmd_lattice_info, {**_FILE, "--table": dict(action="store_true")}),
    (("embed",), "the explicit embedding constructions", None, {}),
    (("embed", "four-squares"), None, cmd_four_squares, {"--m": dict(type=int, required=True)}),
    (("embed", "ld-in-l"), None, cmd_ld_in_l, {"--d": dict(type=int, required=True)}),
    (("embed", "vd"), None, cmd_vd, {
        "--d": dict(type=int, required=True),
        "--positive-norm": dict(action="store_true")}),
    (("complement",), None, cmd_complement, _FILE),
    (("saturate",), None, cmd_saturate, _FILE),
    (("roots",), "exhaustive fixed-norm vectors", cmd_roots, {
        "--norm": dict(type=int, required=True),
        **_FILE}),
    (("walls",), "(-2)-walls orthogonal to v", cmd_walls, {
        "--v": dict(required=True, type=_parse_vector),
        **_FILE}),
    (("mindeg",), "bounded search for the minimal polarization degree", cmd_mindeg, {
        "--norm-limit": dict(type=int, default=20),
        "--box": dict(type=int, default=10),
        "--jobs": dict(type=int, default=1, help="accepted and ignored: the scan is sequential"),
        **_FILE}),
    (("verify-cert",), None, cmd_verify_cert, {
        "--v": dict(required=True, type=_parse_vector),
        "--degree": dict(type=int, required=True),
        **_FILE}),
    (("disc-kernel",), None, cmd_disc_kernel, {"--isometry-file": {}}),
    (("clifford",), None, cmd_clifford, {
        "op": dict(choices=["mul", "reversal", "phi-a", "find-a", "gspin", "project"]),
        **_FILE}),
    (("enumerate",), None, cmd_enumerate, {
        "--rank": dict(type=int, required=True),
        "--max-disc": dict(type=int, required=True),
        "--even": dict(action="store_true"),
        "--csv": dict(action="store_true")}),
    (("check-disc-complement",), None, cmd_check_disc_complement, _FILE),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="k3lat", description=__doc__)
    parser.add_argument("--raw-ints", action="store_true",
                        help="emit large integers as JSON numbers, not strings")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, help_text, func, arguments in _COMMANDS:
        # a `help` keyword, even None, lists the command on its own line of the parent's --help
        command = groups[path[:-1]].add_parser(path[-1], **({"help": help_text} if help_text else {}))
        for flag, options in arguments.items():
            command.add_argument(flag, **options)
        if func is None:
            groups[path] = command.add_subparsers(dest="subcommand", required=True)
        else:
            command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse reads a value such as `-1,-2` as an option, so `--v VALUE` is passed as `--v=VALUE`
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--v":
            argv[i:i + 2] = [f"--v={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
    except BrokenPipeError:  # the reader is gone: what is still buffered goes to devnull, not to a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, AssertionError, KeyError, MemoryError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}", file=sys.stderr)
        return 1
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
