"""README's examples against the code: the python quickstart runs as
written, the command-line block lists exactly the parser's subcommands,
and every path in the layout block exists."""

import argparse
import os
import re
import subprocess
import sys

from gcb.cli import build_parser

ROOT = os.path.join(os.path.dirname(__file__), "..")


def readme_block(heading, lang=""):
    """The first fenced block (of language ``lang``) under ``heading``."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quickstart_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = readme_block("## Library quickstart", "python")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_command_line_block_lists_every_subcommand():
    lines = readme_block("## Command line").splitlines()
    listed = [line.split()[1] for line in lines if line.startswith("gcb ")]
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(action.choices)
    assert len(listed) == len(set(listed))


def test_layout_block_names_existing_paths():
    """A top-level line names a directory of the checkout; a line indented
    by two spaces names a file or directory inside the last one."""
    listed, parent = [], ""
    for line in readme_block("## Layout").splitlines():
        indent = len(line) - len(line.lstrip())
        if indent == 0:
            parent = line.split()[0]
            listed.append(parent)
        elif indent == 2:
            listed.append(parent + line.split()[0])
    assert len(listed) > 3
    missing = [path for path in listed
               if not (os.path.isdir if path.endswith("/") else os.path.isfile)(os.path.join(ROOT, path))]
    assert not missing
