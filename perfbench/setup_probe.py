"""Import p3wkb and finish its lazy first-call set-up.

Run as a script, in a fresh interpreter, it is the unit that ``setup_s``
times; ``run.py`` calls ``prepare`` before its first timed task.
"""

import os
import sys


def prepare() -> None:
    from p3wkb import algebra, borel, geometry, numerics, series, voros, walls  # noqa: F401
    borel.laplace_oracle("G", 1.0, 1.0)     # validates the Laplace kernels once


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    prepare()
