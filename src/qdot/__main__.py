"""The qdot process: ``python -m qdot`` and the installed ``qdot`` script.

The ~20k objects that importing numpy and qdot builds live until exit, so
the cyclic collector gains nothing by walking them: the import runs with
collections off and what it built is frozen (``gc.freeze``) before the
command runs with collections on, and what is alive when the command
returns is frozen before the interpreter's shutdown collections.
``qdot.cli.main`` called in-process leaves the collector as it is.
"""

import gc


def run() -> int:
    """Run the command in ``sys.argv``; return its exit code."""
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
