"""``python -m bscahn``: the same command line as the ``bscahn`` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
