"""The package's export list and what importing it loads."""

import os
import subprocess
import sys
import types
from pathlib import Path

import topospec


def test_all_lists_every_public_name_once_in_sorted_order():
    exported = topospec.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    public = {name for name, value in vars(topospec).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(exported) == public


def test_importing_the_cli_starts_no_multiprocessing():
    # the pool's modules load on first use, not with `import topospec`
    env = dict(os.environ,
               PYTHONPATH=str(Path(topospec.__file__).resolve().parents[1]))
    code = "import sys, topospec.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
