"""The README quotes constants as `NAME` = value or `module.NAME` = value;
each quote must equal the attribute it names, every `module.name` or
`Class.attr` it quotes must exist, and every command of its CLI example
must run, so the docs cannot drift from the code."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import fracspec
from fracspec import KernelWindow, Series, _kernels, arfima, cli, exactops, glops, spectral

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.__name__.rpartition(".")[2]: m for m in (_kernels, arfima, cli, exactops, glops,
                                                        spectral)}
# what a backticked `owner.name` may name: the package, its modules and the
# classes whose attributes README describes
OWNERS = dict(MODULES, fracspec=fracspec, Series=Series, Taps=_kernels.Taps,
              KernelWindow=KernelWindow, BoundedCache=_kernels.BoundedCache)
# a digit group with thousands commas, then an optional fraction and exponent
QUOTE = re.compile(r"`(?:(\w+)\.)?([A-Z][A-Z0-9_]+)`\s*=\s*(\d{1,3}(?:,\d{3})*(?:\.\d+)?(?:e[-+]?\d+)?)")


def test_readme_constants_match_the_code():
    quotes = QUOTE.findall(README.read_text(encoding="utf-8"))
    assert len(quotes) >= 8
    for module, name, value in quotes:
        owners = [MODULES[module]] if module else [
            m for m in MODULES.values() if name in vars(m)]
        assert owners, f"README quotes {name}, which no module defines"
        for owner in owners:
            assert getattr(owner, name) == float(value.replace(",", "")), (name, value)


def _quoted_names(text):
    """(owner, name) of every code span of ``text`` that starts with
    `owner.name`, fenced code blocks left out; a span may break across lines."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return [m.groups() for m in map(re.compile(r"(\w+)\.(\w+)").match, spans) if m]


def test_readme_names_exist():
    names = [(owner, name) for owner, name in _quoted_names(README.read_text(encoding="utf-8"))
             if owner in OWNERS]
    assert len(names) >= 15
    missing = [f"{owner}.{name}" for owner, name in names if not hasattr(OWNERS[owner], name)]
    assert not missing, f"README names attributes that do not exist: {missing}"
    # a name that does not exist is caught, within a span that breaks lines
    assert _quoted_names("`_kernels._gone(n) ==\nn`, `Taps.x`") == [("_kernels", "_gone"),
                                                                     ("Taps", "x")]


def _cli_commands():
    """The command lines of the ``sh`` block under "## CLI", continuations
    joined and comments dropped, each split into its pipe stages."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        tokens = shlex.split(line, comments=True)
        if tokens:
            commands.append([shlex.split(stage) for stage in " ".join(tokens).split(" | ")])
    return commands


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every line in order, in one directory (later lines read the files
    # earlier ones write), each pipe stage reading the previous one's output
    monkeypatch.chdir(tmp_path)
    commands = _cli_commands()
    assert len(commands) >= 10 and sum(len(stages) > 1 for stages in commands) == 1
    for stages in commands:
        text = None
        for stage in stages:
            assert stage[0] == "fracspec", stage
            monkeypatch.setattr(sys, "stdin", io.StringIO(text or ""))
            code = cli.main(stage[1:])
            text, err = capsys.readouterr()
            assert (code, err) == (0, ""), stage
            if "-o" in stage:
                text = (tmp_path / stage[stage.index("-o") + 1]).read_text(encoding="utf-8")
            # a header and at least one row, all of one width
            rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
            assert len(rows) >= 2 and len(rows[0]) >= 2, stage
            assert all(len(row) == len(rows[0]) for row in rows), stage


# what no CLI process needs: fractions and decimal (about 4 ms of import),
# numpy.polynomial (3-7 ms; exactops freezes its Gauss-Legendre rule),
# scipy (about a second) and the tests' own mpmath and hypothesis
_HEAVY_MODULES = ["fractions", "decimal", "numpy.polynomial", "scipy", "mpmath", "hypothesis"]

_RUN_BLOCK = """
import contextlib, io, json, sys
from fracspec import cli
codes = []
for stages in json.loads(sys.argv[1]):
    text = ""
    for stage in stages:
        sys.stdin, out = io.StringIO(text), io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(cli.main(stage[1:]))
        text = out.getvalue()
print(json.dumps([codes, sorted(sys.modules)]))
"""


def test_readme_cli_block_imports_no_heavy_module(tmp_path):
    # a fresh interpreter, so what the tests import cannot hide what the
    # commands import; each one costs every CLI process its import time
    commands = _cli_commands()
    src = str(Path(fracspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _RUN_BLOCK, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    codes, modules = json.loads(run.stdout)
    assert codes == [0] * sum(map(len, commands))
    assert set(_HEAVY_MODULES).isdisjoint(modules), set(_HEAVY_MODULES) & set(modules)
