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
function, class or assigned name; ``Class::method`` descends).
ROADMAP.md and CHANGES.md, which legitimately name deleted files, are
not scanned.

Usage: python scripts/check_docs_links.py
"""

from __future__ import annotations

import ast
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
        for match in SOURCE_REF.finditer(line):
            problem = check_source_ref(*match.groups())
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
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(
        f"checked {checked} markdown files: all internal links and "
        f"source references resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
