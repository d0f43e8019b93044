import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    # a comment line
    import os  # a trailing comment keeps its line


    class A:
        """Class docstring."""

        x = """a string that is not a docstring,
        over two lines"""

        def f(self):
            """Function docstring."""
            return os.sep

    async def g():
        \'\'\'Async function docstring,
        over two lines.\'\'\'
        y = (1,
             2)
        return y
    '''
)


def test_counts_code_lines_only():
    # import, class, x (2 lines), def f, return, async def, y (2 lines), return
    assert code_lines.count_code_lines(SOURCE) == 10


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["10", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "sub" / "b.py")],
        ["11", "total"],
    ]
