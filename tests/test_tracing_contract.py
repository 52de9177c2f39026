"""perfbench/tracing.py instruments omicsurv from outside the package, by
module and function name, and reads some arguments by position. These checks
fail when a refactor breaks that contract, before a traced benchmark run."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

from omicsurv import search

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Run in a fresh interpreter, so that only what omicsurv.cli imports is loaded,
# as it is when the tracer instruments a command.
RESOLVE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import omicsurv.cli
assert tracing.INSTRUMENTED
for module_name, attr, _, _ in tracing.INSTRUMENTED:
    module = sys.modules.get(module_name)
    fn = getattr(module, attr, None)
    print(module_name, attr, "ok" if callable(fn) else "MISSING")
"""


def test_every_instrumented_function_resolves_after_importing_the_cli():
    src = Path(search.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", RESOLVE, str(TRACING)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    missing = [line for line in lines if not line.endswith(" ok")]
    assert lines and not missing, missing


def test_random_search_arguments_read_by_position():
    params = list(inspect.signature(search.random_search).parameters)
    assert params[4] == "budget"
    assert params[6] == "worker_count"
