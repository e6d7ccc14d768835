"""One set-up in a fresh interpreter: import gaql, read the task from stdin,
parse and load it.  Prints the elapsed seconds.

Usage: python3 setup_child.py SRC_DIR < task.jsonl
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from gaql import cli  # noqa: E402

cli.load_task(cli.parse_task_text(sys.stdin.read()))
print(repr(time.perf_counter() - started))
