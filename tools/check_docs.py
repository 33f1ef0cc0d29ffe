#!/usr/bin/env python
"""Validate intra-repo markdown links and the markdown names code cites.

Scans ``README.md`` and everything under ``docs/`` for markdown links,
resolves each relative target against the linking file, and fails on:

* links to files that do not exist in the checkout;
* ``#fragment`` anchors that do not match any heading in the target
  markdown file (GitHub slug rules: lowercase, punctuation stripped,
  spaces to dashes).

It also scans the comments and docstrings of every Python file under
``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and ``tools/`` and fails
on a cited ``*.md`` name (``docs/claims.md``, ``README.md``) that no
markdown file in the checkout matches.  String literals in code are not
citations: tests write markdown fixture files of their own.

Finally it fails on a pytest node id cited in those markdown files,
``tests/<file>.py::<Name>`` or ``tests/<file>.py::<Class>::<test>`` (or the
same under ``benchmarks/``), whose file does not define that name.  The
file is read through its syntax tree, never imported; a parametrize suffix
(``[case]``) is not checked.

External links (``http(s)://``, ``mailto:``) are ignored — CI must not
depend on the network.  Run from anywhere inside the repo::

    python tools/check_docs.py

Exit status is the number of problems found (0 = docs are sound).
"""

from __future__ import annotations

import ast
import io
import os
import re
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

#: ``[text](target)`` — target captured up to the closing paren (markdown
#: titles after a space are not used in this repo's docs).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
#: Fenced code blocks must not contribute headings or links.
FENCE_RE = re.compile(r"^(```|~~~)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")

#: Directories whose Python comments and docstrings may cite markdown files.
CODE_DIRS = ("src", "tests", "benchmarks", "examples", "tools")
#: A cited markdown name such as ``docs/claims.md`` (a glob like ``*.md`` is not).
MD_NAME_RE = re.compile(r"(?<![\w./*-])(\w[\w./-]*\.md)\b")
#: A cited node id: ``tests/<file>.py::<Name>`` or ``benchmarks/<file>.py::<Name>``,
#: optionally ``::<Name>`` more.
NODE_ID_RE = re.compile(
    r"(?<![\w/.])((?:tests|benchmarks)/[\w/]+\.py)::(\w+)(?:::(\w+))?"
)


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def doc_files(root: Path) -> List[Path]:
    """The markdown files whose links the repo guarantees."""
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("**/*.md")))
    return [path for path in files if path.is_file()]


def iter_content_lines(text: str) -> Iterable[str]:
    """Markdown lines with fenced code blocks blanked out."""
    in_fence = False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield line


def heading_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line's text."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = re.sub(r"[*_]", "", text)  # emphasis markers
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> List[str]:
    slugs = []
    for line in iter_content_lines(path.read_text(encoding="utf-8")):
        match = HEADING_RE.match(line)
        if match:
            slugs.append(heading_slug(match.group(1)))
    return slugs


def extract_links(path: Path) -> List[str]:
    return [
        target
        for line in iter_content_lines(path.read_text(encoding="utf-8"))
        for target in LINK_RE.findall(line)
    ]


def check_link(source: Path, target: str) -> List[str]:
    """Problems (possibly none) with one link from ``source``."""
    if target.startswith(EXTERNAL_PREFIXES):
        return []
    path_part, _, fragment = target.partition("#")
    if not path_part:  # same-file anchor
        resolved = source
    else:
        resolved = (source.parent / path_part).resolve()
        if not resolved.exists():
            return [f"{source}: broken link target {target!r}"]
    if fragment:
        if resolved.suffix != ".md":
            return []  # anchors into non-markdown files are out of scope
        if heading_slug(fragment) not in heading_slugs(resolved):
            return [f"{source}: no heading for anchor {target!r}"]
    return []


def check_paths(paths: Iterable[Path]) -> Tuple[int, List[str]]:
    """Check every link in ``paths``; return (links seen, problems)."""
    seen = 0
    problems: List[str] = []
    for path in paths:
        links = extract_links(path)
        seen += len(links)
        for target in links:
            problems.extend(check_link(path, target))
    return seen, problems


def markdown_files(root: Path) -> Set[str]:
    """Repo-relative posix paths of every markdown file outside hidden directories."""
    found = set()
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(name for name in subdirs if not name.startswith("."))
        for name in files:
            if name.endswith(".md"):
                found.add((Path(directory) / name).relative_to(root).as_posix())
    return found


def code_files(root: Path) -> List[Path]:
    """The Python files whose comments and docstrings are checked."""
    return [path for name in CODE_DIRS for path in sorted((root / name).glob("**/*.py"))]


def cited_markdown(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of every ``*.md`` name in ``path``'s comments and docstrings."""
    source = path.read_text(encoding="utf-8")
    texts = [
        (token.start[0], token.string)
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring is not None:
                texts.append((node.body[0].lineno, docstring))
    return sorted(
        (line + text.count("\n", 0, match.start()), match.group(1))
        for line, text in texts
        for match in MD_NAME_RE.finditer(text)
    )


def check_cited_names(root: Path, paths: Iterable[Path]) -> Tuple[int, List[str]]:
    """Check every markdown name ``paths`` cite; return (names seen, problems).

    A name resolves if it names a file relative to the repo root or to the
    citing file, or if it is the trailing part of a markdown file's path
    (``capacity-search.md`` for ``docs/capacity-search.md``).
    """
    known = markdown_files(root)
    seen = 0
    problems: List[str] = []
    for path in paths:
        for line, name in cited_markdown(path):
            seen += 1
            if (
                (root / name).is_file()
                or (path.parent / name).is_file()
                or any(known_path.endswith("/" + name) for known_path in known)
            ):
                continue
            relative = path.relative_to(root).as_posix()
            problems.append(f"{relative}:{line}: cites {name!r}, which is not in the checkout")
    return seen, problems


def defined_tests(path: Path) -> Dict[str, Set[str]]:
    """Each top-level function or class of ``path`` -> the names its body defines."""
    defined: Dict[str, Set[str]] = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = {
                child.name
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            }
    return defined


def check_node_ids(root: Path, paths: Iterable[Path]) -> Tuple[int, List[str]]:
    """Check every test node id ``paths`` cite; return (ids seen, problems)."""
    parsed: Dict[str, Dict[str, Set[str]]] = {}
    seen = 0
    problems: List[str] = []
    for path in paths:
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for match in NODE_ID_RE.finditer(line):
                seen += 1
                test_file, name, member = match.groups()
                if test_file not in parsed:
                    source = root / test_file
                    parsed[test_file] = defined_tests(source) if source.is_file() else {}
                defined = parsed[test_file]
                if name in defined and (member is None or member in defined[name]):
                    continue
                relative = path.relative_to(root).as_posix()
                problems.append(
                    f"{relative}:{number}: cites {match.group(0)!r}, which "
                    f"{test_file} does not define"
                )
    return seen, problems


def main() -> int:
    root = repo_root()
    files = doc_files(root)
    seen, problems = check_paths(files)
    cited, name_problems = check_cited_names(root, code_files(root))
    node_ids, node_problems = check_node_ids(root, files)
    for problem in problems + name_problems + node_problems:
        print(problem, file=sys.stderr)
    print(f"checked {seen} links across {len(files)} files: {len(problems)} broken")
    print(f"checked {cited} cited markdown names in code: {len(name_problems)} missing")
    print(f"checked {node_ids} cited test node ids: {len(node_problems)} missing")
    return len(problems) + len(name_problems) + len(node_problems)


if __name__ == "__main__":
    sys.exit(main())
