"""The README quotes constants as `NAME` = value or `module.NAME` = value;
each quote must equal the attribute it names, and every `module.name` or
`Class.attr` it quotes must exist, so the docs cannot drift from the code."""

import re
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
