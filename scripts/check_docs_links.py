#!/usr/bin/env python
"""Check internal links and source references in docs/ and the README.

Scans markdown files for relative links (``[text](target)``) and fails
when a target file or directory does not exist.  External links
(http/https/mailto) are ignored — this is a fast, offline, structural
check, not a crawler.  Anchors are stripped (``file.md#section`` checks
``file.md``).

Backticked source references are resolved too, so a deleted module or
test class cannot stay cited: every `` `dir/name.py` `` must exist
under the repo root, ``src/`` or ``src/repro/``, and for
`` `dir/name.py::symbol` `` the file must define ``symbol`` (a
function, class or assigned name; ``Class::method`` descends).  A
backticked `` `Class.member` `` must name a class defined exactly once
under ``src/repro`` whose body binds ``member``, one of whose methods
assigns ``self.member``, or whose base class (defined there) has it.
ROADMAP.md and CHANGES.md, which legitimately name deleted files, are
not scanned.

The Sphinx cross-references in ``src/repro`` (``:func:``, ``:class:``,
``:meth:``, ``:data:``, ``:attr:``, ``:exc:``) are resolved as well,
so a deleted function cannot stay cited in a docstring: a
``repro.``-qualified target drops its module path (which must exist),
a ``Class.member`` target goes through the ``Class.member`` check
above, and a single name must be bound somewhere under ``src/repro``.
numpy, standard-library and builtin targets are skipped.

Usage: python scripts/check_docs_links.py
"""

from __future__ import annotations

import ast
import builtins
import functools
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links; deliberately simple — our docs do not use
#: reference-style links or angle-bracket targets.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")

#: A whole backtick span that is a ``.py`` path with a directory part,
#: optionally followed by ``::symbol``.
SOURCE_REF = re.compile(r"`([\w.-]+(?:/[\w.-]+)*/[\w-]+\.py)(?:::([\w.:]+))?`")
SOURCE_ROOTS = (REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "src" / "repro")

#: A whole backtick span ``Class.member``: a CamelCase class name
#: (optionally private), one dot, one attribute name.
CLASS_REF = re.compile(r"`(_?[A-Z][a-z]\w*)\.(\w+)`")
PACKAGE = REPO_ROOT / "src" / "repro"

#: A Sphinx cross-reference, ``:role:`target``` or ``:role:`text
#: <target>```; the target may wrap across docstring lines.
XREF = re.compile(r":(?:func|class|meth|data|attr|exc):`([^`]+)`")
EXTERNAL_MODULES = {"np", "numpy"} | set(sys.stdlib_module_names)


def iter_markdown():
    yield REPO_ROOT / "README.md"
    yield from sorted((REPO_ROOT / "docs").glob("*.md"))


def _bound_names(node: ast.stmt) -> set:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def defines(source: Path, symbol: str) -> bool:
    """True when ``source`` binds ``symbol`` (``A::b`` / ``A.b`` nest)."""
    scope = ast.parse(source.read_text()).body
    for name in re.split(r"::|\.", symbol):
        node = next((n for n in scope if name in _bound_names(n)), None)
        if node is None:
            return False
        scope = getattr(node, "body", [])
    return True


def check_source_ref(ref: str, symbol) -> str:
    """The problem with one backticked source reference, or ''."""
    source = next((r / ref for r in SOURCE_ROOTS if (r / ref).is_file()), None)
    if source is None:
        return f"source reference to a missing file -> {ref}"
    if symbol and not defines(source, symbol):
        return f"{ref} does not define -> {symbol}"
    return ""


@functools.lru_cache(maxsize=1)
def package_classes() -> dict:
    """Every class defined under ``src/repro``: name -> its definitions."""
    classes: dict = {}
    for source in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)
    return classes


def _self_assigned(method: ast.AST) -> set:
    """Names ``method`` assigns as ``self.name`` (unpacking included)."""
    names = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if (
                    isinstance(leaf, ast.Attribute)
                    and isinstance(leaf.value, ast.Name)
                    and leaf.value.id == "self"
                ):
                    names.add(leaf.attr)
    return names


def has_member(cls: ast.ClassDef, member: str) -> bool:
    """True when ``cls`` — or a base class defined under ``src/repro``
    — binds ``member`` in its body or assigns ``self.member``."""
    for node in cls.body:
        if member in _bound_names(node):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            member in _self_assigned(node)
        ):
            return True
    for base in cls.bases:
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        defs = package_classes().get(name, [])
        if len(defs) == 1 and defs[0] is not cls and has_member(defs[0], member):
            return True
    return False


def check_class_ref(cls: str, member: str) -> str:
    """The problem with one backticked ``Class.member`` reference, or ''."""
    defs = package_classes().get(cls, [])
    if len(defs) != 1:
        return f"{len(defs)} classes {cls} under src/repro -> {cls}.{member}"
    if not has_member(defs[0], member):
        return f"class {cls} has no member -> {cls}.{member}"
    return ""


@functools.lru_cache(maxsize=1)
def package_names() -> frozenset:
    """Every name bound anywhere under ``src/repro``: functions, methods,
    classes, assigned names and ``self`` attributes."""
    names = set()
    for source in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.stmt):
                names |= _bound_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names |= _self_assigned(node)
    return frozenset(names)


def _is_module(parts: list) -> bool:
    path = PACKAGE.parent.joinpath(*parts)
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def check_xref(target: str) -> str:
    """The problem with one cross-reference target, or ''."""
    target = "".join(target.split())  # a target wrapped across lines
    target = target.rsplit("<", 1)[-1].rstrip(">").lstrip("~!")
    parts = target.split(".")
    if parts[0] == "repro":
        prefix = next((i for i in range(len(parts), 0, -1) if _is_module(parts[:i])), 0)
        if not prefix:
            return f"no module under src for -> {target}"
        parts = parts[prefix:]
    elif parts[0] in EXTERNAL_MODULES or hasattr(builtins, parts[0]):
        return ""
    if len(parts) == 2:
        return check_class_ref(*parts)
    if len(parts) > 2:
        return f"unresolvable cross-reference -> {target}"
    if parts and parts[0] not in package_names():
        return f"nothing under src/repro defines -> {target}"
    return ""


def check_xrefs(path: Path) -> list:
    """Problems with the cross-references in one source file."""
    text = path.read_text()
    problems = []
    for match in XREF.finditer(text):
        problem = check_xref(match.group(1))
        if problem:
            lineno = text.count("\n", 0, match.start()) + 1
            problems.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {problem}")
    return problems


def check_file(path: Path) -> list:
    problems = []
    text = path.read_text()
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL) or target.startswith("#"):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: broken link "
                    f"-> {target}"
                )
        for regex, check in ((SOURCE_REF, check_source_ref), (CLASS_REF, check_class_ref)):
            for match in regex.finditer(line):
                problem = check(*match.groups())
                if problem:
                    problems.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {problem}")
    return problems


def main() -> int:
    problems = []
    checked = 0
    for path in iter_markdown():
        if not path.exists():
            problems.append(f"missing expected file: {path.relative_to(REPO_ROOT)}")
            continue
        checked += 1
        problems.extend(check_file(path))
    for path in sorted(PACKAGE.rglob("*.py")):
        problems.extend(check_xrefs(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(
        f"checked {checked} markdown files and the docstrings under "
        f"src/repro: all internal links and source references resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
