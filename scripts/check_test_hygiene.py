#!/usr/bin/env python
"""Reject wall-clock dependence in the test suites.

Scans every Python file under ``tests/`` and ``benchmarks/`` for two
flake factories:

* ``time.sleep`` (and ``sleep(...)`` imported bare from ``time``).
  Tests that "wait a bit" for a thread or a queue pass on a fast machine
  and time out under a loaded CI runner.  Every blocking wait must go
  through an event-ordered primitive — the ``DEADLINE``-bounded helpers
  in ``tests/helpers.py`` (``await_results``), a
  ``threading.Event``/``Condition`` wait, or a ``join(timeout)`` — which
  block until the state change actually happens instead of guessing how
  long it takes.
* an ``assert`` that compares a host-wall quantity: a value derived
  from ``time.perf_counter`` (followed through arithmetic, ``min`` /
  ``max`` / ``round``, attributes and helper-function returns within the
  file), or a study's wall-clock ``speedup`` field.  Two wall times
  taken inside a unit-test process cannot be resolved on a shared
  runner; assert what the ratio rests on — engines programmed, batches
  executed, spans entered — and leave the ratio to the report tests and
  the ledger (``bench/``).  Simulated-chip ratios (:data:`SIMULATED`)
  are computed from deterministic chip time and stay assertable.

A sleep may opt out with a trailing ``# hygiene: allow-sleep`` comment
and a reason; none exist today, and adding one should be rare enough to
argue in review.

It also scans ``src/`` for reliance on numpy's private interfaces — an
import of ``numpy._core`` / ``numpy.core._*`` (or any other underscored
numpy module), ``np._<name>`` attribute access, or the ``einsum_call=``
keyword of ``np.einsum_path``.  Those move between numpy releases
without notice; the kernels' bits must rest on documented behaviour.
And for names numpy only has from 2.0 on (``np.bitwise_count`` …) used
in a module that never tests ``hasattr(np, "<name>")``: the package
declares ``numpy>=1.22``, so such a name is an optional fast path or a
gated backend, never the only way.

And it scans ``src/`` for definitions nothing uses: a function, class or
method (dunders aside) whose name appears nowhere in :data:`USERS` —
``src/``, ``bench/``, ``benchmarks/``, ``examples/``, ``scripts/`` and
``docs/`` — outside its own definition.  A test alone does not keep a
definition alive: what only ``tests/`` calls is either dead or a second
way to do what the program does another way.  A mention inside a
definition the scan reports is no use either, so a helper that only
dead code calls is reported with it (the scan repeats until nothing new
is reported).  The scan matches names, not bindings, so a name some
other definition shares is never reported (delete such a twin by hand).
A definition a test needs for isolation, synchronisation or inputs
stays on :data:`ALLOWED`, with the test that needs it; what an entry
mentions stays used.  An import statement or an ``__all__`` list binds
a name without using it, so a definition only tests call through a
re-export is reported.  An entry that names no such definition is
reported too.

Usage: python scripts/check_test_hygiene.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SUITES = ("tests", "benchmarks")
SOURCES = ("src",)

#: ``time.sleep(...)`` or a bare ``sleep(...)`` call (from ``from time
#: import sleep``); attribute access on other objects does not match.
SLEEP = re.compile(r"(?<![\w.])(?:time\.)?sleep\s*\(")
BARE_IMPORT = re.compile(r"^\s*from\s+time\s+import\s+.*\bsleep\b")
ALLOW = "# hygiene: allow-sleep"

CLOCKS = {"perf_counter", "perf_counter_ns"}
#: Calls a wall time passes through unchanged in kind.
TRANSPARENT = {"min", "max", "round", "float", "abs", "sum"}
SPEEDUP = re.compile(r"(?:^|_)speedup(?:_|$)")
#: ``speedup``-named fields computed from simulated chip time.
SIMULATED = {"pipeline_speedup"}


def _identifier(node: ast.AST):
    """The name a Name / Attribute / Call-of-those is known by."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


class _WallClock:
    """Flow-insensitive taint of one file: which identifiers hold a
    value derived from the host clock."""

    def __init__(self, tree: ast.AST):
        self.tainted = set()
        #: function name -> which positions of a returned tuple are wall times
        self.tuple_returns = {}
        size = -1
        while size != len(self.tainted) + len(self.tuple_returns):
            size = len(self.tainted) + len(self.tuple_returns)
            for node in ast.walk(tree):
                self._propagate(node)

    def derived(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            name = _identifier(node)
            if name in TRANSPARENT:
                return any(self.derived(arg) for arg in node.args)
            return name in CLOCKS or name in self.tainted
        if isinstance(node, (ast.Name, ast.Attribute)):
            return _identifier(node) in self.tainted
        if isinstance(node, ast.BinOp):
            return self.derived(node.left) or self.derived(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.derived(node.operand)
        if isinstance(node, ast.IfExp):
            return self.derived(node.body) or self.derived(node.orelse)
        return False

    def _bind(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            flags = self.tuple_returns.get(_identifier(value), ())
            if isinstance(value, (ast.Tuple, ast.List)):
                flags = [self.derived(item) for item in value.elts]
            for item, flag in zip(target.elts, flags):
                if flag and _identifier(item):
                    self.tainted.add(_identifier(item))
        elif self.derived(value) and _identifier(target):
            self.tainted.add(_identifier(target))

    def _propagate(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind(target, node.value)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            if node.value is not None:
                self._bind(node.target, node.value)
        elif isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Return) or inner.value is None:
                    continue
                if isinstance(inner.value, ast.Tuple):
                    flags = [self.derived(item) for item in inner.value.elts]
                    if any(flags):
                        self.tuple_returns[node.name] = flags
                elif self.derived(inner.value):
                    self.tainted.add(node.name)


def check_wall_ratio_asserts(path: Path, source: str) -> list:
    tree = ast.parse(source, filename=str(path))
    clock = _WallClock(tree)
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assert):
            continue
        operands = [
            operand
            for compare in ast.walk(node.test)
            if isinstance(compare, ast.Compare)
            for operand in [compare.left, *compare.comparators]
        ]
        names = {_identifier(part) for op in operands for part in ast.walk(op)}
        speedups = {
            name for name in names - SIMULATED - {None} if SPEEDUP.search(name)
        }
        if speedups or any(clock.derived(operand) for operand in operands):
            what = (
                f"the wall-clock ratio {sorted(speedups)[0]!r}"
                if speedups
                else "a value derived from time.perf_counter"
            )
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{node.lineno}: assert compares "
                f"{what} — two host wall times cannot be resolved on a "
                f"shared runner; assert the counts the ratio rests on"
            )
    return problems


#: ``numpy._core``, ``numpy.core._multiarray_umath``, ``numpy.lib._impl`` …
PRIVATE_NUMPY = re.compile(r"^numpy(\.\w+)*\._(?!_)\w+")


def check_private_numpy(path: Path, source: str) -> list:
    tree = ast.parse(source, filename=str(path))
    problems = []
    for node in ast.walk(tree):
        found = None
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            modules = []
        for module in modules:
            if PRIVATE_NUMPY.match(module):
                found = f"import of the private numpy module {module!r}"
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found = f"use of the private numpy attribute {node.attr!r}"
        if isinstance(node, ast.Call) and any(
            keyword.arg == "einsum_call" for keyword in node.keywords
        ):
            found = "the private einsum_call= keyword"
        if found:
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {found} — "
                f"private numpy interfaces move between releases; rest on "
                f"documented behaviour"
            )
    return problems


#: Public names added in numpy 2.0 (the array-API aliases and
#: ``bitwise_count``): absent on the declared floor, ``numpy>=1.22``.
NUMPY_2_ONLY = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh",
    "astype", "bitwise_count", "bitwise_invert", "bitwise_left_shift",
    "bitwise_right_shift", "concat", "cumulative_prod", "cumulative_sum",
    "isdtype", "long", "matrix_transpose", "matvec", "permute_dims", "pow",
    "trapezoid", "ulong", "unique_all", "unique_counts", "unique_inverse",
    "unique_values", "unstack", "vecdot", "vecmat",
}


def check_numpy_floor(path: Path, source: str) -> list:
    tree = ast.parse(source, filename=str(path))
    guarded = {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _identifier(node.func) == "hasattr"
        and len(node.args) == 2
        and _identifier(node.args[0]) in ("np", "numpy")
        and isinstance(node.args[1], ast.Constant)
    }
    return [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: np.{node.attr} exists "
        f"only from numpy 2.0 on and this module never tests "
        f"hasattr(np, {node.attr!r}) — the declared floor is numpy>=1.22; "
        f"guard it and keep a path that runs without it"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        and node.attr in NUMPY_2_ONLY - guarded
    ]


#: Where a use keeps a definition under ``src/`` alive: every tree but
#: ``tests/``.
USERS = ("src", "bench", "benchmarks", "examples", "scripts", "docs")
USER_SUFFIXES = (".py", ".md")
WORD = re.compile(r"[A-Za-z_]\w*")

#: Definitions only tests use, each kept for the test named beside it:
#: it serves a test's isolation, synchronisation or inputs, or is built
#: by name from ``bench/``.  A definition its tests alone check is not
#: kept: it goes, with those tests.
ALLOWED = {
    "repro.runtime.backends.reference_fast._TableCache.cache_clear": (
        "tests/test_runtime.py and tests/test_properties.py empty the shared "
        "digit-table cache so each case builds its tables afresh"
    ),
    "repro.serve.scheduler.RequestQueue.wait_closed": (
        "tests/test_chaos.py synchronises the mid-recovery shutdown "
        "regression test on the queue closing"
    ),
    "repro.runtime.cache.set_default_cache": (
        "tests/test_chaos.py::TestFailoverLadder and "
        "tests/test_snapshot.py::TestRobustness swap in a private default "
        "cache and restore the previous one"
    ),
    "repro.chaos.schedule.generate_schedule": (
        "tests/test_chaos.py::TestZeroMagnitudeIdentity and "
        "tests/test_properties.py::TestFaultScheduleProperties draw their "
        "fault schedules from it"
    ),
    "repro.runtime.backends.popcount.PopcountBitSerialKernel": (
        "bench/ledger/layers.py builds it by registry name; "
        "tests/test_backends.py::TestPopcountBitwise"
    ),
}


def _definitions(body, prefix=""):
    """``(qualified name, name, node)`` of every function, class and
    method of a module or class body, dunders aside."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{node.name}.")


#: A Markdown line that only imports (``>>> from repro.x import Y``).
MD_IMPORT = re.compile(r"^\s*(?:>>>\s*)?(?:from\s+[\w.]+\s+)?import\s")


def _binding_lines(path: Path, text: str) -> set:
    """The lines of ``path`` that only bind or re-export a name: import
    statements and the ``__all__`` list.  A name there is not a use."""
    if path.suffix != ".py":
        lines = text.splitlines()
        return {i for i, line in enumerate(lines, start=1) if MD_IMPORT.match(line)}
    skipped = set()
    for node in ast.walk(ast.parse(text, filename=str(path))):
        exports = isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
            _identifier(target) == "__all__"
            for target in getattr(node, "targets", [getattr(node, "target", None)])
        )
        if exports or isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    return skipped


def unreferenced_definitions(root: Path = REPO_ROOT, allowed=ALLOWED) -> list:
    """Every definition under ``root/src`` whose name no file under
    ``root``'s :data:`USERS` mentions outside the definition itself (its
    decorators included), an import statement, an ``__all__`` list or a
    definition this scan reports, less ``allowed`` — and every
    ``allowed`` entry that names no such definition.

    A mention inside a reported definition is no use, so the scan runs
    to a fixed point: a helper whose only callers are dead is reported
    with them.  ``allowed`` entries are never reported, so what they
    mention stays used."""
    uses = {}
    for tree in USERS:
        for path in sorted((root / tree).rglob("*")):
            if path.suffix not in USER_SUFFIXES or path == Path(__file__).resolve():
                continue
            text = path.read_text()
            skipped = _binding_lines(path, text)
            for lineno, line in enumerate(text.splitlines(), start=1):
                if lineno in skipped:
                    continue
                for word in WORD.findall(line):
                    uses.setdefault(word, []).append((path, lineno))
    #: qualified name -> (path, qualname, name, lineno, first line, last line)
    definitions = {}
    for path in sorted((root / "src").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, name, node in _definitions(tree.body):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            definitions[f"{module}.{qualname}"] = (
                path, qualname, name, node.lineno, first, node.end_lineno
            )
    dead = {}

    def used(definition) -> bool:
        path, _, name, _, first, last = definition
        return any(
            (where != path or not first <= at <= last)
            and not any(
                where == span[0] and span[4] <= at <= span[5]
                for span in dead.values()
            )
            for where, at in uses.get(name, ())
        )

    while True:
        found = {
            key: definition
            for key, definition in definitions.items()
            if key not in dead and key not in allowed and not used(definition)
        }
        if not found:
            break
        dead.update(found)
    problems = [
        f"{path.relative_to(root)}:{lineno}: {qualname} is used nowhere "
        f"outside tests/ — delete it (and any test that checks only it), or "
        f"list it in ALLOWED with the test that needs it"
        for key, (path, qualname, _, lineno, _, _) in definitions.items()
        if key in dead
    ]
    problems.extend(
        f"scripts/check_test_hygiene.py: ALLOWED names {name}, which is gone "
        f"or used outside tests/ — drop the entry"
        for name in sorted(allowed)
        if name not in definitions or used(definitions[name])
    )
    return problems


def check_file(path: Path) -> list:
    problems = []
    source = path.read_text()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if ALLOW in line:
            continue
        stripped = line.split("#", 1)[0]
        if SLEEP.search(stripped) or BARE_IMPORT.match(stripped):
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{lineno}: wall-clock sleep "
                f"in a test suite — synchronize on an event "
                f"(tests/helpers.py DEADLINE idioms) instead"
            )
    return problems + check_wall_ratio_asserts(path, source)


def main() -> int:
    problems = []
    checked = 0
    for suite in SUITES:
        for path in sorted((REPO_ROOT / suite).rglob("*.py")):
            checked += 1
            problems.extend(check_file(path))
    for root in SOURCES:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            source = path.read_text()
            problems.extend(check_private_numpy(path, source))
            problems.extend(check_numpy_floor(path, source))
    problems.extend(unreferenced_definitions())
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(
        f"checked {checked} test files: no wall-clock sleeps, "
        f"no host-wall ratio asserts; no private numpy interface, no "
        f"unguarded numpy-2 name and no definition only tests use under src/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
