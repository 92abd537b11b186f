"""Run the ncprism CLI in this process with the benchmark's tracer installed.

Usage: ``python launcher.py SPANS_JSON OP_ID <ncprism cli arguments>``.
Standard input, output and the exit code are the CLI's own; the spans and
counts go to SPANS_JSON when the command returns.
"""

import json
import sys
import time

start = time.perf_counter()
import ncprism.cli  # noqa: E402

import_s = time.perf_counter() - start

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, op_id, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.op_id = op_id
    tracer.install()
    begin = time.perf_counter()
    code = ncprism.cli.main(argv)
    main_s = time.perf_counter() - begin
    tracer.uninstall()
    state = tracer.state()
    state.update(import_s=import_s, main_s=main_s)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
