"""Run the bayesfir CLI in-process under the tracer and save the span summary.

    python3 bench/traced_cli.py SUMMARY.json CLI-ARGS...

The summary is written only when the CLI exits with code 0; the exit code is
passed through.
"""

import json
import sys

from tracer import Tracer

import bayesfir.cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = bayesfir.cli.main(argv)
    finally:
        tracer.uninstall()
    if code == 0:
        with open(out, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
