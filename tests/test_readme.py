"""The examples in README.md still run and print what the README shows."""

import shlex
from pathlib import Path

from spectrahull import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    """Bodies of the fenced blocks whose opening fence names ``lang``."""
    out, body, open_lang = [], [], None
    for line in README.splitlines():
        if not line.startswith("```"):
            body.append(line)
        elif open_lang is None:
            open_lang, body = line[3:], []
        else:
            if open_lang == lang:
                out.append("\n".join(body) + "\n")
            open_lang = None
    return out


def test_python_examples_run_in_order():
    blocks = _blocks("python")
    assert len(blocks) == 3
    namespace: dict = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    # the audit block checks its own report; the last certificate is the witness
    assert namespace["cert"].kind == "witness"


def test_cli_example_prints_the_documented_report(tmp_path, capsys, monkeypatch):
    (session,) = [b for b in _blocks("") if b.startswith("$ cat interval.shm\n")]
    lines = session.splitlines()
    (command_at,) = [i for i, line in enumerate(lines) if line.startswith("$ spectrahull ")]
    (tmp_path / "interval.shm").write_text("\n".join(lines[1:command_at]) + "\n")
    monkeypatch.chdir(tmp_path)
    assert cli.run(shlex.split(lines[command_at])[2:]) == cli.EXIT_OK
    assert capsys.readouterr().out == "\n".join(lines[command_at + 1:]) + "\n"
