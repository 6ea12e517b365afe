"""README.md stays in step with the code: its examples run and its command
table lists the flags each command takes."""

import itertools
import os
import re

from eqmirror import cli


def _readme():
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", _readme(), re.M | re.S)
    assert len(blocks) >= 2
    for n, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % (n + 1), "exec"), {})


def test_flag_table_lists_each_commands_flags():
    lines = _readme().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| command |"))
    table = {}
    # skip the header and its separator; the table ends at the first other line
    for line in itertools.takewhile(lambda s: s.startswith("|"), lines[start + 2 :]):
        names, flags = line.strip("|").split("|")
        for name in re.findall(r"`([^`]+)`", names):
            table[name] = set(re.findall(r"--[a-z][a-z-]*", flags))
    want = {
        name: {"--" + key.replace("_", "-") for key in keys}
        for name, (_, keys) in cli._COMMANDS.items()
    }
    assert table == want
