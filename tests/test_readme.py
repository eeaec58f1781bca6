"""README is the user contract: it names every public name, subcommand and
check, and no private helper."""

import argparse
import re
from pathlib import Path

import pytest

import mmsdist
from mmsdist import cli, experiments

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _subcommands():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


@pytest.mark.parametrize("name", [*mmsdist.__all__, *experiments.__all__])
def test_every_public_name_is_in_the_readme(name):
    assert re.search(rf"`{re.escape(name)}\b", README), name


def test_every_subcommand_and_check_is_in_the_cli_synopsis():
    (synopsis,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", README, re.S)
    for command in _subcommands():
        assert re.search(rf"^mmsdist (\[--tol T\] )?{command}\b", synopsis, re.M), command
    (checks,) = re.findall(r"^mmsdist check ([\w|]+)", synopsis, re.M)
    assert checks.split("|") == list(cli.CHECKS)


def test_no_private_name_is_in_the_readme():
    # a backticked identifier with a component starting with one underscore
    assert re.findall(r"`[\w.]*?\b_[^\W_]\w*", README) == []
