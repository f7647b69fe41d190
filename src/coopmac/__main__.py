"""Run the command-line front end as ``python -m coopmac <command> ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
