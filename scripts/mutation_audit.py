"""Mutation audit: which one-token changes to a module does Tier-1 miss?

Each mutant makes one change to one module: it swaps one comparison
(``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``in``/``not in``,
``is``/``is not``), one boolean operator (``and``/``or``) or one ``+``/``-``,
or adds 1 to one integer literal. For each mutant the whole Tier-1 suite
runs with ``-x`` in a copy of the repository, so the checkout itself is
never written to. A mutant that no test fails survives; one whose run
passes ``TIMEOUT`` seconds (a mutant may loop forever) counts as killed.
At 2-60 s per mutant a module takes minutes, so the audit is not part of
Tier-1.

Usage: python3 scripts/mutation_audit.py MODULE [MODULE ...] [--work DIR]

MODULE is a path under src/fundflow, such as src/fundflow/graph.py. Prints
one line per mutant, then the survivors; exits 1 if any mutant survives.
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 600.0  # seconds per Tier-1 run
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
_SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.And: ast.Or,
    ast.Or: ast.And,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
}
_COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*", "out", "demo_out"
)


@dataclass
class Mutant:
    module: str  # path relative to the repository root
    line: int
    before: str
    after: str
    source: str  # the whole mutated module


def _offset(lines: list[str], lineno: int, col: int) -> int:
    """The text offset of an AST position, whose column counts UTF-8 bytes."""
    head = lines[lineno - 1].encode()[:col].decode()
    return sum(len(line) for line in lines[: lineno - 1]) + len(head)


def _variants(node: ast.AST):
    """Yield once per mutation of ``node``, with ``node`` changed in place
    for the duration of the yield."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                node.ops[i] = _SWAPS[type(op)]()
                yield
                node.ops[i] = op
    elif isinstance(node, (ast.BoolOp, ast.BinOp)) and type(node.op) in _SWAPS:
        op = node.op
        node.op = _SWAPS[type(op)]()
        yield
        node.op = op
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        node.value += 1
        yield
        node.value -= 1


def mutants(module: str) -> list[Mutant]:
    with open(os.path.join(ROOT, module), encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines(keepends=True)
    tree = ast.parse(text)
    # positions inside f-strings are not reliable on every supported Python
    in_fstring = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in in_fstring or not hasattr(node, "end_col_offset"):
            continue
        before = ast.get_source_segment(text, node)
        start = _offset(lines, node.lineno, node.col_offset)
        end = _offset(lines, node.end_lineno, node.end_col_offset)
        for _ in _variants(node):
            after = "(%s)" % ast.unparse(node)
            source = text[:start] + after + text[end:]
            try:
                ast.parse(source)
            except SyntaxError:
                continue
            found.append(Mutant(module, node.lineno, before, after, source))
    return sorted(found, key=lambda m: m.line)


def run_tier1(work: str) -> tuple[bool, float]:
    """Whether Tier-1 passes in ``work``, and the seconds it took. A run
    past ``TIMEOUT`` is stopped, with its worker processes, and fails."""
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *TIER1],
        cwd=work,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        passed = proc.wait(TIMEOUT) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        passed = False
    return passed, time.perf_counter() - start


def _short(text: str) -> str:
    text = " ".join(text.split())
    return text if len(text) <= 60 else text[:57] + "..."


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+")
    parser.add_argument("--work", help="directory for the copy (default: a temporary one)")
    args = parser.parse_args(argv)

    modules = [os.path.relpath(os.path.abspath(m), ROOT) for m in args.modules]
    every = [m for module in modules for m in mutants(module)]
    print(f"{len(every)} mutants in {len(modules)} module(s)", flush=True)

    parent = args.work or tempfile.mkdtemp(prefix="mutation-audit-")
    work = os.path.join(parent, "repo")
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(ROOT, work, ignore=_COPY_IGNORE)
    try:
        passed, took = run_tier1(work)
        if not passed:
            print(f"Tier-1 fails on the unmutated copy ({took:.0f} s)", file=sys.stderr)
            return 2
        print(f"unmutated copy passes in {took:.0f} s", flush=True)
        survivors = []
        for m in every:
            path = os.path.join(work, m.module)
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(m.source)
            try:
                passed, took = run_tier1(work)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            verdict = "SURVIVED" if passed else "killed"
            print(f"{verdict:8} {took:5.1f}s  {m.module}:{m.line}  "
                  f"{_short(m.before)} -> {_short(m.after)}", flush=True)
            if passed:
                survivors.append(m)
    finally:
        if not args.work:
            shutil.rmtree(parent, ignore_errors=True)
    print(f"{len(survivors)} of {len(every)} mutants survived")
    for m in survivors:
        print(f"  {m.module}:{m.line}  {_short(m.before)} -> {_short(m.after)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
