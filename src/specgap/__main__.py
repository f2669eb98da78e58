"""``python -m specgap``: the ``specgap`` command, runnable from a checkout
with ``PYTHONPATH=src`` and without installing."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
