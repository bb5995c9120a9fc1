"""Run one ``momentctl`` invocation with spans recorded, for the traced cli run.

Usage: python3 traced_cli.py SPAN_FILE ARGS...

Behaves like ``momentctl ARGS...`` (same stdout and exit code) and writes
the import time and the recorded spans as JSON to SPAN_FILE.
"""

import json
import sys
import time

from tracer import Tracer


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import matmoments.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.item = 0
    code = matmoments.cli.main(argv)
    sys.stdout.flush()
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
