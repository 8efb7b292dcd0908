"""Run one `llcent` CLI command under the outside-in tracer.

Usage: python3 bench/cli_traced.py DUMP_PATH <llcent cli arguments...>

Stdout and the exit code are the CLI's own, so they can be compared with
an untraced `python -m llcent.cli` run.  The span dump goes to DUMP_PATH.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import use_checkout_sources  # noqa: E402
from bench.tracer import Tracer  # noqa: E402


def main(dump_path, argv) -> int:
    use_checkout_sources()
    import llcent.cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span():
            code = llcent.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
