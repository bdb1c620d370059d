"""``python -m ndlham``: the same command-line interface as ``ndlham``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
