"""Child process: time importing the CLI package, building its contexts and,
optionally, one command.

Usage: python3 perfbench/probe.py [CONFIG.json ...] [-- GRIPPER-ARGS ...]
(with src on PYTHONPATH).  Prints one JSON line with import_s, context_s,
main_s (0 without a command) and the number of modules loaded by the import.
"""

import sys
import time

t0 = time.perf_counter()
import accordion_gripper.cli  # noqa: E402  (the import is what is timed)
from accordion_gripper import config  # noqa: E402

t1 = time.perf_counter()
modules = len(sys.modules)
args = sys.argv[1:]
configs, command = (args[: args.index("--")], args[args.index("--") + 1:]) if "--" in args else (args, [])
for path in configs or [None]:
    config.load_context(path)
t2 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

t3 = t4 = 0.0
if command:
    with contextlib.redirect_stdout(io.StringIO()):
        t3 = time.perf_counter()
        accordion_gripper.cli.main(command)
        t4 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "context_s": t2 - t1, "main_s": t4 - t3, "modules": modules}))
