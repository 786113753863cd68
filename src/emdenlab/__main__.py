"""The process entry of the ``emdenlab`` command, for ``python -m emdenlab``
and the installed script: each command is one short process, which runs
with the cyclic collector off and freezes it before shutdown, so the exit
does not walk every object the imports made.  ``cli.main`` called in
process leaves the collector as its caller set it."""

import gc
import sys


def run() -> int:
    gc.disable()
    try:
        from .cli import main
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
