"""Tier-1 docs integrity: every intra-repo markdown link must resolve.

Runs the same checker CI's docs job runs (``tools/check_docs.py``) over the
repo's actual docs and over the markdown names its code cites, plus unit
tests for the checker's slug/anchor and citation rules so a checker bug
cannot silently wave broken docs through.
"""

import importlib.util
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestRepoDocs:
    def test_docs_exist_and_are_linked_from_readme(self):
        assert (REPO_ROOT / "docs" / "architecture.md").is_file()
        assert (REPO_ROOT / "docs" / "capacity-search.md").is_file()
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/architecture.md" in readme
        assert "docs/capacity-search.md" in readme

    def test_all_repo_doc_links_resolve(self):
        files = check_docs.doc_files(REPO_ROOT)
        assert len(files) >= 3  # README + the two docs pages
        seen, problems = check_docs.check_paths(files)
        assert problems == []
        assert seen > 0

    def test_code_cites_only_existing_markdown(self):
        seen, problems = check_docs.check_cited_names(
            REPO_ROOT, check_docs.code_files(REPO_ROOT)
        )
        assert problems == []
        assert seen > 0

    def test_docs_cite_only_existing_test_names(self):
        """Every ``tests/...py::Name[::test]`` citation in the docs is real."""
        seen, problems = check_docs.check_node_ids(
            REPO_ROOT, check_docs.doc_files(REPO_ROOT)
        )
        assert seen, "the contract docs lost their test citations"
        assert problems == []


class TestCheckerRules:
    def test_heading_slugs_follow_github_rules(self):
        slug = check_docs.heading_slug
        assert slug("The layer stack") == "the-layer-stack"
        assert slug("Warm starts: two tiers") == "warm-starts-two-tiers"
        assert slug("`CapacityCache.stats` counters") == "capacitycachestats-counters"
        assert slug("**Result** neutrality") == "result-neutrality"

    def test_broken_path_reported(self, tmp_path):
        doc = tmp_path / "a.md"
        doc.write_text("[gone](missing.md)")
        seen, problems = check_docs.check_paths([doc])
        assert seen == 1
        assert len(problems) == 1
        assert "missing.md" in problems[0]

    def test_valid_relative_path_and_anchor_pass(self, tmp_path):
        target = tmp_path / "sub" / "b.md"
        target.parent.mkdir()
        target.write_text("# Deep Dive\n\n## The Contract\n")
        doc = tmp_path / "a.md"
        doc.write_text("[ok](sub/b.md) and [anchor](sub/b.md#the-contract)")
        _, problems = check_docs.check_paths([doc])
        assert problems == []

    def test_missing_anchor_reported(self, tmp_path):
        target = tmp_path / "b.md"
        target.write_text("# Only Heading\n")
        doc = tmp_path / "a.md"
        doc.write_text("[bad](b.md#no-such-heading)")
        _, problems = check_docs.check_paths([doc])
        assert len(problems) == 1
        assert "no-such-heading" in problems[0]

    def test_same_file_anchor_checked(self, tmp_path):
        doc = tmp_path / "a.md"
        doc.write_text("# Top\n\n[up](#top) [broken](#nope)\n")
        _, problems = check_docs.check_paths([doc])
        assert len(problems) == 1
        assert "#nope" in problems[0]

    def test_external_links_ignored(self, tmp_path):
        doc = tmp_path / "a.md"
        doc.write_text(
            "[x](https://example.com/gone) [y](http://x.test) [z](mailto:a@b.c)"
        )
        seen, problems = check_docs.check_paths([doc])
        assert seen == 3
        assert problems == []

    def test_fenced_code_blocks_do_not_contribute(self, tmp_path):
        doc = tmp_path / "a.md"
        doc.write_text(
            "# Real\n\n```text\n[fake](nowhere.md)\n## Not A Heading\n```\n"
        )
        target = tmp_path / "b.md"
        target.write_text("```\n# Fenced\n```\n# Actual\n")
        doc2 = tmp_path / "c.md"
        doc2.write_text("[bad](b.md#fenced) [good](b.md#actual)")
        _, problems = check_docs.check_paths([doc, doc2])
        assert len(problems) == 1
        assert "#fenced" in problems[0]


class TestCitedMarkdownNames:
    def _repo(self, tmp_path, source):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "claims.md").write_text("# Claims\n")
        (tmp_path / "README.md").write_text("# Readme\n")
        code = tmp_path / "benchmarks" / "test_x.py"
        code.parent.mkdir()
        code.write_text(source)
        return check_docs.check_cited_names(tmp_path, [code])

    def test_existing_names_resolve(self, tmp_path):
        seen, problems = self._repo(
            tmp_path,
            '"""See docs/claims.md and README.md."""\n'
            "# claims.md by its bare name resolves too\n",
        )
        assert seen == 3
        assert problems == []

    def test_dangling_name_in_comment_or_docstring_reported(self, tmp_path):
        seen, problems = self._repo(
            tmp_path,
            '"""Module."""\n\n\ndef test_a():\n    """Deviation: see EXPERIMENTS.md."""\n'
            "    # also DESIGN.md\n",
        )
        assert seen == 2
        assert problems == [
            "benchmarks/test_x.py:5: cites 'EXPERIMENTS.md', which is not in the checkout",
            "benchmarks/test_x.py:6: cites 'DESIGN.md', which is not in the checkout",
        ]

    def test_string_literals_and_globs_are_not_citations(self, tmp_path):
        seen, problems = self._repo(
            tmp_path,
            '"""Scans docs/*.md."""\n\nFIXTURE = "missing.md"\n',
        )
        assert seen == 0
        assert problems == []


class TestCitedNodeIds:
    SOURCE = (
        "import pytest\n\n\n"
        "def test_top():\n    pass\n\n\n"
        "class TestGroup:\n"
        "    @pytest.mark.parametrize('x', [1])\n"
        "    def test_member(self, x):\n        pass\n\n"
        "    async def test_async(self):\n        pass\n"
    )

    def _check(self, tmp_path, text):
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_x.py").write_text(self.SOURCE)
        doc = tmp_path / "a.md"
        doc.write_text(text)
        return check_docs.check_node_ids(tmp_path, [doc])

    def test_existing_ids_resolve(self, tmp_path):
        seen, problems = self._check(
            tmp_path,
            "`tests/test_x.py::test_top`, `tests/test_x.py::TestGroup`,\n"
            "`tests/test_x.py::TestGroup::test_member[1]` and\n"
            "`tests/test_x.py::TestGroup::test_async`.\n",
        )
        assert seen == 4
        assert problems == []

    def test_missing_class_member_and_file_reported(self, tmp_path):
        seen, problems = self._check(
            tmp_path,
            "`tests/test_x.py::TestGone`\n"
            "`tests/test_x.py::TestGroup::test_gone` `tests/test_x.py::test_member`\n"
            "`tests/test_missing.py::TestGroup`\n",
        )
        assert seen == 4
        assert problems == [
            "a.md:1: cites 'tests/test_x.py::TestGone', which tests/test_x.py "
            "does not define",
            "a.md:2: cites 'tests/test_x.py::TestGroup::test_gone', which "
            "tests/test_x.py does not define",
            "a.md:2: cites 'tests/test_x.py::test_member', which tests/test_x.py "
            "does not define",
            "a.md:3: cites 'tests/test_missing.py::TestGroup', which "
            "tests/test_missing.py does not define",
        ]

    def test_benchmark_ids_checked(self, tmp_path):
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "test_bench_x.py").write_text(self.SOURCE)
        doc = tmp_path / "a.md"
        doc.write_text(
            "`benchmarks/test_bench_x.py::test_top` and\n"
            "`benchmarks/test_bench_x.py::test_bench_gone`\n"
        )
        assert check_docs.check_node_ids(tmp_path, [doc]) == (
            2,
            [
                "a.md:2: cites 'benchmarks/test_bench_x.py::test_bench_gone', which "
                "benchmarks/test_bench_x.py does not define"
            ],
        )

    def test_file_is_not_imported(self, tmp_path):
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_boom.py").write_text(
            "raise SystemExit('imported')\n\n\nclass TestQuiet:\n    pass\n"
        )
        doc = tmp_path / "a.md"
        doc.write_text("tests/test_boom.py::TestQuiet")
        assert check_docs.check_node_ids(tmp_path, [doc]) == (1, [])
