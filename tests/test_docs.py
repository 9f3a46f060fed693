"""The README's examples run as written, and every exported name resolves."""
import re
import shlex
from pathlib import Path

import projdunkl
from projdunkl.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_after(marker: str, lang: str = "") -> str:
    """The first fenced block after marker, opened by ``` + lang."""
    start = README.index(f"```{lang}\n", README.index(marker)) + len(lang) + 4
    return README[start:README.index("```", start)]


def test_quickstart_runs_and_shows_its_exact_output():
    block = _block_after("## Quickstart", "python")
    namespace = {}
    exec(block, namespace)
    # every line commented "# exact: '...'" evaluates to that text
    shown = re.findall(r"^(.*?)#\s*exact: '([^']*)'", block, flags=re.M)
    assert [text for _, text in shown] == ["19/8*x1 + 1/8*x2"]
    for expr, text in shown:
        assert eval(expr, namespace) == text


def test_cli_examples_parse():
    lines = [line.split("#")[0] for line in _block_after("CLI equivalents").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("projdunkl ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).func), argv


def test_every_exported_name_resolves():
    assert len(set(projdunkl.__all__)) == len(projdunkl.__all__)
    assert [name for name in projdunkl.__all__ if not hasattr(projdunkl, name)] == []
