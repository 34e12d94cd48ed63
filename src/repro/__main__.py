"""``python -m repro`` — run the paper's experiments from the command line."""

import sys

from repro.exceptions import ReproError
from repro.harness.runner import main

if __name__ == "__main__":
    try:
        sys.exit(main())
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
