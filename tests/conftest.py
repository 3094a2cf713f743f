"""Child ``python -m fracspec`` processes import the package under test, also
when the suite runs uninstalled through pytest's ``pythonpath`` setting."""

import os
from pathlib import Path

import fracspec

_ROOT = str(Path(fracspec.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_ROOT, os.environ.get("PYTHONPATH")]))
