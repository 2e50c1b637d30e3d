"""``python -m slnoise``: the command-line interface of :mod:`slnoise.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
