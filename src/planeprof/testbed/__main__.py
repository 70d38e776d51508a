"""Process-mode entity entry point: ``python -m planeprof.testbed``.

The package ``__init__`` imports nothing, so a spawned entity loads only
``entity`` and what it imports, never the orchestrator.
"""

import sys

from planeprof.testbed.entity import main

if __name__ == "__main__":
    sys.exit(main())
