import gc
import sys

from .cli import main


def run() -> int:
    """The ``optamp`` command, for ``python -m optamp`` and the installed script.

    Freezing the objects the imports made (numpy's, most of all) spares the
    interpreter's exit-time collections a walk over every one of them.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
