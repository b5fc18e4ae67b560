"""Child process: run one `gripper` command with the layer tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS.json GRIPPER-ARGS...
Writes the recorded spans and counts to SPANS.json and exits with the
command's exit code.
"""

import json
import sys

import accordion_gripper.cli as cli
from tracer import Tracer

out, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer()
tracer.install()
tracer.on = True
code = 1
try:
    code = cli.main(argv)
finally:
    tracer.on = False
    with open(out, "w") as fh:
        json.dump(tracer.dump(), fh)
sys.exit(code)
