"""The command-line entry: `python -m fmpm` and the `fmpm` script."""

import gc
import os
import sys

# fmpm makes no BLAS call, but numpy's OpenBLAS starts a thread pool per
# core when numpy is first imported; ask for one thread unless the user
# chose a number.
BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"


def main() -> None:
    os.environ.setdefault(BLAS_THREADS_ENV, "1")
    # The numpy and fmpm imports make tens of thousands of objects that live
    # until exit. Import with collections off, then move what they made to
    # the permanent generation, so no collection walks it again: not during
    # the command, and not at interpreter exit. What the command allocates
    # is still collected.
    gc.disable()
    try:
        # the first import of numpy; `from . import cli` would take the
        # package's `cli` attribute without consulting `sys.modules`
        import fmpm.cli as cli
    finally:
        gc.freeze()
        gc.enable()

    sys.exit(cli.main())


if __name__ == "__main__":
    main()
