"""The package imports nothing outside the standard library at runtime."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# modules already loaded at startup (site hooks may load third-party ones)
# are subtracted, so only what the import itself pulls in is checked
SCRIPT = """
import sys
before = set(sys.modules)
import algebroids, algebroids.cli
for name in sorted({n.partition(".")[0] for n in set(sys.modules) - before}):
    print(name)
"""


def test_import_loads_only_stdlib_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "algebroids" in out
    outside = [name for name in out
               if name != "algebroids" and name not in sys.stdlib_module_names]
    assert outside == []
