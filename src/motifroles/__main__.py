"""Run the command line as ``python -m motifroles``."""

from .cli import entry

if __name__ == "__main__":
    entry()
