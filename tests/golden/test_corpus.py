"""Each corpus run prints, exits and writes exactly what tests/golden/cli.json stores."""

import shlex

import pytest

import corpus

EXPECTED = corpus.load()


@pytest.mark.parametrize("argv", corpus.cases(), ids=shlex.join)
def test_cli_run_matches_corpus(argv, tmp_path):
    assert corpus.record(argv, tmp_path) == EXPECTED.get(shlex.join(argv))
