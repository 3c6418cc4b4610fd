"""README's Python examples run, and its CLI examples parse, as written; its
CLI section names every flag."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from ssfgw.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_examples_run():
    # in a fresh interpreter, against the source tree, as a reader would run them
    blocks = re.findall(r"^```python\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", block],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


def test_readme_cli_examples_parse():
    # a renamed or removed flag shows here without running a command
    section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    fence = re.search(r"^```\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL).group(1)
    commands = [shlex.split(line) for line in fence.splitlines() if line.strip()]
    assert commands and all(argv[0] == "ssfgw" for argv in commands)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
    subcommands = parser._subparsers._group_actions[0].choices.values()
    accepted = {flag for sub in subcommands for flag in sub._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    assert {"--L", "--adam-beta1", "--seed"} <= named
    assert named - accepted == set()
    # and every flag that a command accepts is named there, but help
    assert accepted - named == {"-h", "--help"}
