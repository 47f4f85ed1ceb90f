"""Test-session setup shared by every test module.

pytest's ``pythonpath`` setting puts ``src/`` on this process's
``sys.path`` only.  A test that starts ``python -m boolebell`` in a child
process needs the package on ``PYTHONPATH`` too, so the session prepends
the absolute ``src/`` there; the suite then runs from a clean checkout
with no ``PYTHONPATH`` set and no install.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
