"""The qdot process: ``python -m qdot`` and the installed ``qdot`` script.

A command is one short process, and the cyclic collector never runs in it:
it is turned off before the CLI is imported and stays off. What the imports
build lives until exit, and the cyclic garbage a command leaves (mostly
argparse's parser) is a few hundred objects whatever its work, so there is
nothing for a collection to find. What is alive when the command returns is
frozen (``gc.freeze``), because the interpreter's shutdown collections run
even with the collector off. ``qdot.cli.main`` called in-process leaves the
collector as it is.
"""

import gc


def run() -> int:
    """Run the command in ``sys.argv``; return its exit code."""
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
