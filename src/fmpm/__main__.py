"""The command-line entry: `python -m fmpm` and the `fmpm` script."""

import os

# fmpm makes no BLAS call, but numpy's OpenBLAS starts a thread pool per
# core when numpy is first imported; ask for one thread unless the user
# chose a number.
BLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"


def main() -> None:
    os.environ.setdefault(BLAS_THREADS_ENV, "1")
    from .cli import main_entry  # the first import of numpy

    main_entry()


if __name__ == "__main__":
    main()
