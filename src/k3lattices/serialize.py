"""Shared JSON formats for lattices, embeddings, and Clifford elements.

Output is deterministic: keys sorted, canonical separators, and ints above
2^53 in magnitude as strings (RFC 8259, section 6; disable with raw_ints).
`dumps` renders a payload of ints, bools, None, strings, lists, tuples and
dicts once, and only a text with a 16-digit run gets one regex pass, which
quotes the int tokens above 2^53 but not the digits of a string or a float.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .clifford import CliffordElement
from .lattices import Isometry, Lattice, LatticeEmbedding
from .linalg import IntMatrix

SAFE_INT = 1 << 53
_LONG_DIGITS = re.compile(r"[0-9]{16}")
_STRING_OR_LONG_INT = re.compile(r'"(?:[^"\\]|\\.)*"|(?<![.0-9])-?[0-9]{16,}(?!\.)')


def _quote_unsafe(match: re.Match) -> str:
    token = match.group()
    return f'"{token}"' if token[0] != '"' and abs(int(token)) > SAFE_INT else token


def dumps(payload: Any, raw_ints: bool = False) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if raw_ints or not _LONG_DIGITS.search(text):
        return text
    return _STRING_OR_LONG_INT.sub(_quote_unsafe, text)


def _parse_int(x) -> int:
    if isinstance(x, bool):
        raise ValueError("expected an integer, got a boolean")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return int(x)
    raise ValueError(f"expected an integer, got {type(x).__name__}")


def _parse_vector(items) -> tuple[int, ...]:
    if not isinstance(items, list):
        raise ValueError("expected a vector as a list of integers")
    return tuple(_parse_int(x) for x in items)


def _parse_matrix(rows) -> IntMatrix:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("expected a matrix as a list of rows")
    return IntMatrix([_parse_vector(row) for row in rows])


def _field(obj, key: str, what: str):
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object for {what}, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{what} is missing the field '{key}'")
    return obj[key]


def lattice_to_obj(lat: Lattice) -> dict:
    obj = {"rank": lat.rank, "gram": lat.gram.tolists()}
    if lat.label:
        obj["label"] = lat.label
    return obj


def lattice_from_obj(obj: dict) -> Lattice:
    rank = _parse_int(_field(obj, "rank", "a lattice"))
    gram = _parse_matrix(_field(obj, "gram", "a lattice"))
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"expected a string or null as a lattice label, got {type(label).__name__}")
    return Lattice(rank, gram, label)


def embedding_to_obj(emb: LatticeEmbedding) -> dict:
    return {
        "source": lattice_to_obj(emb.source),
        "target": lattice_to_obj(emb.target),
        "matrix": emb.matrix.tolists(),
    }


def embedding_from_obj(obj: dict) -> LatticeEmbedding:
    return LatticeEmbedding(
        lattice_from_obj(_field(obj, "source", "an embedding")),
        lattice_from_obj(_field(obj, "target", "an embedding")),
        _parse_matrix(_field(obj, "matrix", "an embedding")),
    )


def isometry_from_obj(obj: dict) -> Isometry:
    return Isometry(lattice_from_obj(_field(obj, "lattice", "an isometry")),
                    _parse_matrix(_field(obj, "matrix", "an isometry")))


def clifford_to_obj(x: CliffordElement) -> dict:
    terms = [{"mask": m, "coeff": str(c)} for m, c in sorted(x.coeffs.items())]
    return {"rank": x.host.rank, "gram": x.host.gram.tolists(), "terms": terms}


def clifford_from_obj(obj: dict, host: Lattice | None = None) -> CliffordElement:
    terms = _field(obj, "terms", "a Clifford element")
    if not isinstance(terms, list):
        raise ValueError("Clifford terms must be a list")
    if host is None:
        host = lattice_from_obj(obj)
    elif _parse_int(obj.get("rank", host.rank)) != host.rank or (
            "gram" in obj and _parse_matrix(obj["gram"]) != host.gram):
        raise ValueError("elements live over different host lattices")
    coeffs = {_parse_int(_field(t, "mask", "a Clifford term")): _parse_int(_field(t, "coeff", "a Clifford term"))
              for t in terms}
    return CliffordElement(host, coeffs)
