"""The README's examples run as written, and every exported name resolves and has a use."""
import ast
import re
import shlex
from pathlib import Path

import projdunkl
from projdunkl import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PACKAGE = Path(projdunkl.__file__).parent


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


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    # in a scratch directory, since one example writes report.jsonl; the
    # injected fault must fail verify, every other example succeeds
    lines = [line.split("#")[0] for line in _block_after("CLI equivalents").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("projdunkl ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == (1 if "--inject-fault" in argv else 0), argv
    assert "error:" not in capsys.readouterr().err
    assert (tmp_path / "report.jsonl").stat().st_size > 0


def test_every_exported_name_resolves():
    assert len(set(projdunkl.__all__)) == len(projdunkl.__all__)
    assert [name for name in projdunkl.__all__ if not hasattr(projdunkl, name)] == []


def test_every_exported_name_has_a_caller_in_the_package():
    # a public entry that only tests call belongs in the tests; chi_numeric
    # waits for the chi plane-wave check of the verify suites
    exempt = {"chi_numeric"}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    api = [name for name in projdunkl.__all__ if not name.startswith("__")]
    assert [name for name in api if name not in used | exempt] == []


def _sets(call: ast.Call, index, name: str) -> bool:
    """Whether call can set the parameter at position index (None for
    keyword-only) or by keyword name, unpacked arguments included."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (name, None) for k in call.keywords)
            or index is not None and len(call.args) > index)


def test_every_optional_parameter_is_passed_inside_the_package():
    # an option that no call in the package sets is a knob only tests turn;
    # main's argv is how a script or a test runs the command line
    exempt = {"cli.main(argv)"}
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args.posonlyargs + fn.args.args
            optional = list(enumerate(args))[len(args) - len(fn.args.defaults):]
            optional += [(None, a) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                         if d is not None]
            for index, arg in optional:
                if not any(_sets(call, index, arg.arg) for call in calls.get(fn.name, ())):
                    unset.append(f"{module}.{fn.name}({arg.arg})")
    assert sorted(set(unset) - exempt) == []
