#!/usr/bin/env python3
"""Mutation testing with the standard library only.

Each mutant changes one spot of one module:

- a comparison swapped (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
- an arithmetic or bit operator swapped (``+`` and ``-``, ``|`` and ``^``,
  ``<<`` and ``>>``), in plain and augmented assignments;
- an integer constant plus one;
- one statement replaced by ``pass``.

The source text of the changed node is replaced in a temporary copy of
the repository (``src``, ``tests``, ``bench``, ``pyproject.toml`` and the
README), so the rest of the module keeps its layout and comments; the copy
is removed when the run ends. For every mutant the given test files run
there with ``pytest -x``. A mutant is killed when the
tests fail or time out, and survives when they pass.

A survivor listed in ``tools/equivalent_mutants.txt`` is reported as
equivalent: no test can kill it, for the reason given there. Each line of
that file is ``<module path>: <description>  # <reason>``, where the
description is the one this script prints. The exit status is 1 when an
unlisted mutant survives, and 0 otherwise.

Example, the journal and ``watch`` functions of ``cli`` with their tests::

    python3 tools/mutate.py src/tmsensor/cli.py \\
        --functions load_journal,append_journal,_scan_candidates,watch_loop \\
        --tests tests/test_cli.py tests/test_fuzz.py tests/test_acceptance.py

A mutant takes from a few seconds to the whole test set's time, so this is
not a tier-1 test. ``--list`` prints the mutants without running them.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EQUIVALENT = os.path.join(ROOT, "tools", "equivalent_mutants.txt")
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md")

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitOr: ast.BitXor, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}


class Mutant:
    def __init__(self, source: str, at: list[int], node: ast.AST, text: str):
        self.line, self.text = node.lineno, text
        self.start = at[node.lineno] + node.col_offset
        self.end = at[node.end_lineno] + node.end_col_offset
        # The node's line before and after, or the first line of a longer node.
        if node.end_lineno == node.lineno:
            line = slice(at[node.lineno], at[node.lineno + 1])
            old = source[line].strip()
            new = (source[line.start:self.start] + text + source[self.end:line.stop]).strip()
        else:
            old = source[self.start:self.end].splitlines()[0] + " ..."
            new = text
        self.description = f"`{old}` -> `{new}`"


def offsets(source: str) -> list[int]:
    """The offset in ``source`` of the start of each line, 1-based."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def enclosing(tree: ast.Module) -> dict[ast.AST, str]:
    """Each node's innermost enclosing function, by name."""
    owner: dict[ast.AST, str] = {}

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else name
            owner[child] = inner
            visit(child, inner)

    visit(tree, "")
    return owner


def mutants(path: str, functions: set[str], lines: list[range]) -> list[Mutant]:
    with open(path, encoding="utf-8") as f:
        source = f.read()
    tree = ast.parse(source)
    owner = enclosing(tree)
    at = offsets(source)
    found = []

    def add(node: ast.AST, text: str) -> None:
        m = Mutant(source, at, node, text)
        try:
            # Inside some f-strings the positions miss the node's text.
            if isinstance(node, ast.expr) and (ast.dump(node) != ast.dump(
                    ast.parse(f"({source[m.start:m.end]})", mode="eval").body)):
                return
            ast.parse(source[:m.start] + text + source[m.end:])  # `elif` -> `pass` does not
        except SyntaxError:
            return
        found.append(m)

    for node in ast.walk(tree):
        if not hasattr(node, "lineno"):
            continue
        if functions and owner.get(node) not in functions:
            continue
        if lines and not any(node.lineno in r for r in lines):
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    ops = list(node.ops)
                    ops[i] = SWAPS[type(op)]()
                    add(node, f"({ast.unparse(ast.Compare(node.left, ops, node.comparators))})")
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            add(node, f"({ast.unparse(ast.BinOp(node.left, SWAPS[type(node.op)](), node.right))})")
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            add(node, ast.unparse(ast.AugAssign(node.target, SWAPS[type(node.op)](),
                                                node.value)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            add(node, str(node.value + 1))
        if (isinstance(node, ast.stmt) and not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
                       ast.ImportFrom, ast.Pass))
                and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))):
            add(node, "pass")
    found.sort(key=lambda m: (m.start, m.end, m.text))
    return found


def run_tests(workdir: str, tests: list[str], timeout: float) -> tuple[str, float]:
    began = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        outcome = "survived" if proc.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        outcome = "timeout"
    return outcome, time.monotonic() - began


def load_equivalent() -> set[str]:
    try:
        with open(EQUIVALENT, encoding="utf-8") as f:
            # The description ends in a backtick; the line it quotes may
            # hold a comment of its own.
            return {line.split("`  #", 1)[0].strip() + "`" for line in f
                    if line.strip() and not line.startswith("#")}
    except FileNotFoundError:
        return set()


def line_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module to mutate, e.g. src/tmsensor/tmf.py")
    parser.add_argument("--tests", nargs="+", default=[], help="test files to run")
    parser.add_argument("--functions", default="",
                        help="comma-separated function names to mutate inside")
    parser.add_argument("--lines", type=line_range, nargs="+", default=[],
                        help="lines to mutate: N or A-B, one or more")
    parser.add_argument("--list", action="store_true", help="print the mutants and stop")
    args = parser.parse_args(argv)

    module = os.path.relpath(os.path.abspath(args.module), ROOT)
    functions = {f for f in args.functions.split(",") if f}
    todo = mutants(os.path.join(ROOT, module), functions, args.lines)
    if args.list:
        for m in todo:
            print(f"{module}:{m.line}: {m.description}")
        return 0
    if not args.tests:
        parser.error("--tests is required unless --list is given")

    with tempfile.TemporaryDirectory(prefix="mutate-") as workdir:
        for name in COPIED:
            src, dst = os.path.join(ROOT, name), os.path.join(workdir, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", "_work"))
            else:
                shutil.copy2(src, dst)
        return run_mutants(workdir, module, todo, args.tests)


def run_mutants(workdir: str, module: str, todo: list[Mutant], tests: list[str]) -> int:
    target = os.path.join(workdir, module)
    with open(target, encoding="utf-8") as f:
        original = f.read()

    outcome, base_s = run_tests(workdir, tests, None)
    if outcome != "survived":
        print("the tests fail on the unmutated code", file=sys.stderr)
        return 2
    timeout = max(60.0, 3 * base_s)
    print(f"{len(todo)} mutants of {module}; unmutated tests {base_s:.1f} s", flush=True)

    equivalent = load_equivalent()
    counts = {"killed": 0, "timeout": 0, "survived": 0, "equivalent": 0}
    for m in todo:
        with open(target, "w", encoding="utf-8") as f:
            f.write(original[:m.start] + m.text + original[m.end:])
        outcome, seconds = run_tests(workdir, tests, timeout)
        if outcome == "survived" and f"{module}: {m.description}" in equivalent:
            outcome = "equivalent"
        counts[outcome] += 1
        print(f"{outcome.upper():10} {module}:{m.line}: {m.description} ({seconds:.1f} s)",
              flush=True)
    print(f"run {len(todo)}, killed {counts['killed'] + counts['timeout']} "
          f"({counts['timeout']} by timeout), equivalent {counts['equivalent']}, "
          f"survived {counts['survived']}")
    return 1 if counts["survived"] else 0

if __name__ == "__main__":
    sys.exit(main())
