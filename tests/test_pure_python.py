import subprocess
import sys
from pathlib import Path

import dagsched

SRC = str(Path(dagsched.__file__).resolve().parent.parent)

# what importing the package and its CLI loads, on top of what the interpreter loaded at start-up
LOADED = f"""
import sys
sys.path.insert(0, {SRC!r})
before = set(sys.modules)
import dagsched, dagsched.cli
print(*sorted({{name.partition(".")[0] for name in set(sys.modules) - before}}))
"""


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, so nothing outside the standard library may load
    done = subprocess.run([sys.executable, "-c", LOADED], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "dagsched" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"dagsched"} == set()
