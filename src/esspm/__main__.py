"""``python -m esspm``: the command-line interface of :mod:`esspm.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
