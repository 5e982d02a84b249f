"""The pool tooling: ``pool_reports.py --against REV`` compares with REV's digests, computed in a worktree it removes."""

import subprocess

import pool_reports


def git(repo, *args) -> str:
    command = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args]
    return subprocess.run(command, check=True, capture_output=True, text=True).stdout


def fake_checkout(repo, printed: str) -> str:
    """A git repository whose tests/pool_reports.py prints ``printed``; the commit it makes."""
    (repo / "tests").mkdir(parents=True, exist_ok=True)
    (repo / "tests" / "pool_reports.py").write_text(f"print({printed!r})\n")
    git(repo, "init", "--quiet")
    git(repo, "add", "-A")
    git(repo, "commit", "--quiet", "-m", "pools")
    return git(repo, "rev-parse", "HEAD").strip()


def test_against_compares_with_the_revisions_own_digests(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    rev = fake_checkout(repo, "a 1\nb 2")
    # the working tree has moved on since the commit: REV's script is the one that runs
    (repo / "tests" / "pool_reports.py").write_text("raise SystemExit(3)\n")
    monkeypatch.setattr(pool_reports, "ROOT", str(repo))
    assert pool_reports.lines_at(rev) == ["a 1", "b 2"]
    monkeypatch.setattr(pool_reports, "lines", lambda: ["a 1", "c 3"])
    assert pool_reports.main(["--against", rev]) == 1
    assert capsys.readouterr().out.splitlines() == ["same    a 1", "CHANGED c 3", "missing b 2"]
    monkeypatch.setattr(pool_reports, "lines", lambda: ["a 1", "b 2"])
    assert pool_reports.main(["--against", "HEAD"]) == 0
    # every temporary worktree is gone again
    assert git(repo, "worktree", "list").count("\n") == 1
    assert not list(tmp_path.glob("*/tree"))
