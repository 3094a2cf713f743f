"""The README quotes constants as `NAME` = value or `module.NAME` = value;
each quote must equal the attribute it names, so the docs cannot drift from
the code."""

import re
from pathlib import Path

from fracspec import _kernels, arfima, cli, exactops, glops, spectral

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.__name__.rpartition(".")[2]: m for m in (_kernels, arfima, cli, exactops, glops,
                                                        spectral)}
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
