"""README's library example runs as documented, and every CLI command
it shows parses and exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from holoflow import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # the piecewise anti-holomorphic example prints a confirmed cycle
    assert "Verified.NUMERICALLY_CONFIRMED" in out.getvalue()


def readme_commands():
    """The argv of every ``holoflow`` line in README's sh blocks, with
    backslash continuations joined and the program name dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "holoflow":
                commands.append(argv[1:])
    return commands


def test_cli_commands_run(tmp_path, monkeypatch):
    # in README order, in a fresh directory: verify reads the
    # cycles.json that the cycles command before it wrote
    commands = readme_commands()
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:  # a usage error, or a ValueError or OSError
            code = exc.code
        assert code == 0, f"holoflow {shlex.join(argv)} exited {code}"
