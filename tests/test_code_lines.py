import code_lines

SAMPLE = '''"""A module docstring."""
# a comment line

import os  # trailing


def f(x):
    """A docstring
    on two lines."""
    y = (x +
         1)
    "a bare string"
    return y
'''


def test_code_lines_counts_only_code(tmp_path):
    # import, def, the two lines of the parenthesized expression, return.
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert code_lines.code_lines(path) == 5


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     5  a.py",
        "     1  sub/b.py",
        "     6  total",
    ]
