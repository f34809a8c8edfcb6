"""The qdot process: ``python -m qdot`` and the installed ``qdot`` script.

The objects that importing the CLI and numpy builds live until exit, so the
cyclic collector gains nothing by walking them: each import runs with
collections off and what it built is frozen (``gc.freeze``), and what is
alive when the command returns is frozen before the interpreter's shutdown
collections. The CLI is imported before the command runs; numpy is not part
of that import, and is imported where a command that builds a grid or calls
an oracle first needs it, so a one-point command never loads it.
``qdot.cli.main`` called in-process leaves the collector as it is.
"""

import gc
import importlib.util
import sys


class _QuietNumpy:
    """A meta path finder that runs numpy's first import with collections
    off and freezes what it built, then leaves the path."""

    def find_spec(self, name, path=None, target=None):
        if name != "numpy":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        if spec is None:
            return None
        loader, exec_module = spec.loader, spec.loader.exec_module

        def exec_quietly(module):
            gc.disable()
            try:
                exec_module(module)
            finally:
                gc.freeze()
                gc.enable()
                del loader.exec_module

        loader.exec_module = exec_quietly
        return spec


def run() -> int:
    """Run the command in ``sys.argv``; return its exit code."""
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    sys.meta_path.insert(0, _QuietNumpy())
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
