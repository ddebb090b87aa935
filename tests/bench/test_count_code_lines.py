"""Tests for the code-line counter of ``benchmarks/count_code_lines.py``.

The change log quotes ``src/`` sizes by this counter, so its rules are
pinned on small sources: docstrings, comments and blank lines do not
count; continuation lines and non-docstring strings do.
"""

from __future__ import annotations

import textwrap

from benchmarks.count_code_lines import code_lines, count_tree, main


def lines(source: str) -> int:
    return code_lines(textwrap.dedent(source))


class TestCodeLines:
    def test_blank_lines_and_comments_do_not_count(self):
        assert lines("""
            # a comment

            x = 1  # trailing comment counts as its code line
                # an indented comment

            y = 2
        """) == 2

    def test_module_class_and_function_docstrings_do_not_count(self):
        assert lines('''
            """Module docstring,
            over two lines."""

            class A:
                """Class docstring."""

                def f(self):
                    """Function
                    docstring."""
                    return 1


            async def g():
                """Coroutine docstring."""
        ''') == 4

    def test_every_line_of_a_statement_counts(self):
        assert lines("""
            total = (1 +
                     2 +
                     3)
            call(
                "a",
                "b",
            )
            value = 1 + \\
                2
        """) == 9

    def test_strings_that_are_not_docstrings_count(self):
        assert lines('''
            def f():
                x = 1
                """A bare string after the first statement is code."""
                return """two
            lines"""
        ''') == 5

    def test_a_string_first_in_a_call_is_not_a_docstring(self):
        assert lines('''
            print(
                """not a docstring"""
            )
        ''') == 3

    def test_empty_source(self):
        assert lines("") == 0


class TestCountTree:
    def test_rows_per_package_directory(self, tmp_path):
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text('"""Doc."""\nx = 1\n')
        (tmp_path / "pkg" / "a.py").write_text("# c\n\ny = 2\nz = 3\n")
        (tmp_path / "pkg" / "sub" / "b.py").write_text("w = (\n    4\n)\n")
        (tmp_path / "top.py").write_text("v = 5\n")
        assert count_tree(tmp_path) == {
            ".": (1, 1),
            "pkg": (3, 6),
            "pkg/sub": (3, 3),
        }

    def test_main_prints_each_package_and_the_total(self, tmp_path, capsys):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n\n# c\n")
        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].split() == ["pkg", "1", "3"]
        assert out[-1].split()[-2:] == ["1", "3"]
        assert out[-1].startswith("total")

    def test_main_on_an_empty_tree(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split()[-2:] == ["0", "0"]
