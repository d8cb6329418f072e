"""The four workloads.  Each module has `build(k3, seed) -> list[Task]`.

`k3` is the imported k3lattices package.  Workloads call the library through
module attributes at call time (`k3.short_vectors`, `k3.cli.main`), never
through names bound at import, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

MODULES = {
    "k3-orbit": "orbit",
    "mindeg-scan": "mindeg",
    "fp-skewed": "fp_skewed",
    "clifford-pairing": "clifford_pairing",
}


@dataclass
class Task:
    """One timed operation and the check of its result.

    `run` takes no arguments; `check` gets its return value and returns None
    when the result is right, else a message saying what is wrong.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def load(name: str):
    return importlib.import_module(f"{__name__}.{MODULES[name]}")
