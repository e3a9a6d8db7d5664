"""``python -m fiberlink``: the same command line as the ``fiberlink`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
