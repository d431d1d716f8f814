"""Process entry of ``python -m fitsim`` and the ``fitsim`` console script."""

import gc
import os
import sys

from .cli import main


def entry() -> int:
    """Run :func:`fitsim.cli.main` as the whole process.

    The imports' objects live until exit, so they move to the permanent
    generation: no collection walks them again, the one at interpreter
    shutdown included. A reader that closes stdout early (``fitsim run |
    head -1``) ends the process as SIGPIPE would, with no ``error:`` line.
    """
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()  # raise a closed pipe here, not at shutdown
    except BrokenPipeError:
        # the flush at exit would raise again; send what is left nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a killed writer
    return code


if __name__ == "__main__":
    sys.exit(entry())
