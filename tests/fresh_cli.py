"""Running the command line in a fresh interpreter from a test."""

import os
import subprocess
import sys

from sgdtors import cli


def run_fresh_cli(argv, **kwargs):
    """``python -m sgdtors.cli *argv`` in a new interpreter that imports
    the same ``sgdtors`` as the tests; kwargs go to ``subprocess.run``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sgdtors.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, **kwargs,
    )
