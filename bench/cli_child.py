"""Run one singscheme command the way ``python -m singscheme.cli`` does, and
report the import, parse and main times on the last stderr line.

Used only by the traced run of the cli-oneshot workload:
``python3 bench/cli_child.py <singscheme arguments>`` with ``src`` on
PYTHONPATH. Stdout and the exit code are the command's own.
"""

import json
import sys
from time import perf_counter

from spans import CHILD_MARK

t0 = perf_counter()
import singscheme.cli as cli  # noqa: E402

t1 = perf_counter()
parse_s = 0.0
_build_parser = cli.build_parser


def _timed_build_parser():
    global parse_s
    start = perf_counter()
    parser = _build_parser()
    parse_args = parser.parse_args

    def timed_parse_args(argv=None, namespace=None):
        global parse_s
        s = perf_counter()
        try:
            return parse_args(argv, namespace)
        finally:
            parse_s += perf_counter() - s

    parser.parse_args = timed_parse_args
    parse_s += perf_counter() - start
    return parser


cli.build_parser = _timed_build_parser
t2 = perf_counter()
try:
    rc = cli.main(sys.argv[1:])
finally:
    t3 = perf_counter()
    sys.stdout.flush()
    report = {"import_s": t1 - t0, "parse_s": parse_s, "main_s": t3 - t2}
    print(CHILD_MARK + json.dumps(report), file=sys.stderr)
sys.exit(rc)
