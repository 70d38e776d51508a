"""Process-mode entity entry point: ``python -m planeprof.testbed``.

The orchestrator spawns entities through this module rather than
``-m planeprof.testbed.entity``: the package imports ``entity``, and running
an already-imported module as ``__main__`` makes ``runpy`` warn.
"""

import sys

from planeprof.testbed.entity import main

if __name__ == "__main__":
    sys.exit(main())
