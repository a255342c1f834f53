"""``python -m orthosample``: the command line interface of :mod:`orthosample.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
