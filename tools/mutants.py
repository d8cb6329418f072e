"""Mutation probe: which one-token changes of a function do the tests miss?

    python tools/mutants.py MODULE FUNCTION TEST_FILE...

MODULE is a module of the k3lattices package (`linalg` or
`k3lattices.linalg`), FUNCTION a function in it (`det_exact`) or a method
(`ReducedFormList.discs`), and the TEST_FILEs are paths under `tests/`.
Each mutant changes one token inside the function:
- a comparison to its boundary twin (`<` and `<=`, `>` and `>=`, `==` and
  `!=`, `in` and `not in`, `is` and `is not`);
- an arithmetic operator (`+` and `-`, `*` to `//` and back, `%` to `//`,
  `<<` and `>>`, `&` and `|`, `^` to `|`, `**` to `*`, `/` to `*`), also in
  augmented assignments;
- an int constant c to c + 1.

The function is rewritten from its syntax tree (`ast.unparse`, so its
comments go) into a temporary copy of the repository (tests read files such
as README.md); the working tree is never written.  The unmutated rewrite
runs first; the tests that fail on it are named and deselected from then
on.  Then pytest runs once per mutant, stopping at the first failure; a
mutant is killed when the tests fail or run past ten times the unmutated
run plus 10 seconds.  The tool prints one line per mutant (line:column of
the changed token) and then the survivors, which are either gaps in the
tests or equivalent mutants.  It runs the mutants one at a time.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMPARE_TWINS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
                 ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
ARITHMETIC_TWINS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
                    ast.Mod: ast.FloorDiv, ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
                    ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr, ast.Pow: ast.Mult, ast.Div: ast.Mult}

OUTCOMES = {"passed": "survived", "failed": "killed", "timeout": "killed (timeout)"}


def find_function(tree: ast.Module, qualname: str):
    scope = tree
    for name in qualname.split("."):
        scope = next((node for node in scope.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                      and node.name == name), None)
        if scope is None:
            raise SystemExit(f"no {qualname} in the module")
    return scope


def sites(func) -> list[tuple[int, int]]:
    """(position in ast.walk order, operator index) of every token a mutant changes."""
    found = []
    for pos, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare):
            found += [(pos, i) for i, op in enumerate(node.ops) if type(op) in COMPARE_TWINS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC_TWINS:
            found.append((pos, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((pos, 0))
    return found


def mutate(func, site) -> tuple[ast.AST, str]:
    """A copy of func with the token at `site` changed, and a line that says what changed."""
    pos, i = site
    mutant = copy.deepcopy(func)
    node = list(ast.walk(mutant))[pos]
    before = ast.unparse(node)
    if isinstance(node, ast.Compare):
        node.ops[i] = COMPARE_TWINS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = ARITHMETIC_TWINS[type(node.op)]()
    return mutant, f"{node.lineno}:{node.col_offset}: {before}  ->  {ast.unparse(node)}"


def rewrite(source: str, func, replacement) -> str:
    """source with the lines of func (from its first decorator) replaced by the unparsed replacement."""
    lines = source.splitlines(keepends=True)
    start = min([decorator.lineno for decorator in func.decorator_list] + [func.lineno])
    indent = " " * func.col_offset
    body = "".join(indent + line + "\n" for line in ast.unparse(replacement).splitlines())
    return "".join(lines[:start - 1]) + body + "".join(lines[func.end_lineno:])


def run_tests(tmp: Path, args: list[str], timeout: float) -> tuple[str, str]:
    """('passed', 'failed' or 'timeout', the output) of pytest on the copy in tmp."""
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
    try:
        proc = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    return "passed" if proc.returncode == 0 else "failed", proc.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of k3lattices, for example linalg")
    parser.add_argument("function", help="a function of that module, or Class.method")
    parser.add_argument("tests", nargs="+", help="test files, for example tests/test_linalg.py")
    args = parser.parse_args(argv)
    path = Path("src", "k3lattices", args.module.removeprefix("k3lattices.") + ".py")
    source = (ROOT / path).read_text()
    func = find_function(ast.parse(source), args.function)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(ROOT, tmp, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "results"))
        (tmp / path).write_text(rewrite(source, func, func))
        start = time.perf_counter()
        status, output = run_tests(tmp, ["-rf", *args.tests], 3600)
        failing = [line.removeprefix("FAILED ").split(" - ")[0] for line in output.splitlines()
                   if line.startswith("FAILED ")]
        if status != "passed" and not failing:  # a collection error, say
            print(output, file=sys.stderr)
            return 1
        for test in failing:
            print(f"deselected, as it fails unmutated: {test}")
        timeout = 10 * (time.perf_counter() - start) + 10
        selection = ["-x", *args.tests, *(f"--deselect={test}" for test in failing)]
        survivors, mutants = [], [mutate(func, site) for site in sites(func)]
        for mutant, what in mutants:
            (tmp / path).write_text(rewrite(source, func, mutant))
            outcome, _ = run_tests(tmp, selection, timeout)
            print(f"{OUTCOMES[outcome]:<17}{what}", flush=True)
            if outcome == "passed":
                survivors.append(what)
    print(f"{args.module}.{args.function}: {len(mutants)} mutants, {len(mutants) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    for what in survivors:
        print(f"  {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
