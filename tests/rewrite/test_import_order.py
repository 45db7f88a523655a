"""Each package that holds transformations imports cleanly on its own.

The transformation classes live in ``repro.transforms`` and
``repro.schedule.rewrite`` and subclass ``repro.rewrite.framework``, while
``repro.rewrite.orderings`` builds pipelines from them.  A cycle among
those packages only shows when one of them is the first ``repro`` import
of a process, so each case runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize(
    "module", ["repro.transforms", "repro.rewrite", "repro.schedule", "repro.pipeline"]
)
def test_package_imported_first_resolves_the_rewrite_pipeline(module):
    script = (
        f"import {module}\n"
        "from repro.pipeline.variants import get_pipeline\n"
        "print(','.join(get_pipeline('rewrite').pass_names))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().split(",")[-2:] == ["rewrite-schedule", "estimate-area"]
