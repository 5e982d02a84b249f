"""The code-size tooling: ``code_lines.py --against REV`` reads each module as REV has it and prints the change."""

import code_lines
from test_pool_reports import git


def test_against_prints_each_modules_change_and_the_total(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "lapcov"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Docstring."""\n\nx = 1  # counted\n# not counted\n')
    (package / "b.py").write_text("y = 2\nz = 3\n")
    git(tmp_path, "init", "--quiet")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "--quiet", "-m", "modules")
    # the working tree moves on: a.py grows, b.py goes, c.py comes
    (package / "a.py").write_text("x = 1\nw = [\n    4,\n]\n")
    (package / "b.py").unlink()
    (package / "c.py").write_text("v = 5\n")
    monkeypatch.setattr(code_lines, "ROOT", tmp_path.resolve())
    assert code_lines.main(["--against", "HEAD", str(package)]) == 0
    assert capsys.readouterr().out.split("\n")[1:] == [
        "a.py                            1      4      +3",
        "b.py                            2      0      -2",
        "c.py                            0      1      +1",
        "total                           3      5      +2",
        "",
    ]
