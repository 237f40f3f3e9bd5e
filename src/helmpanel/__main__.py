"""``python -m helmpanel``: the command-line front end (``helmpanel.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
