"""Process-mode entity entry point: ``python -m planeprof.testbed``.

The package ``__init__`` imports nothing, so a spawned entity loads only
``entity`` and what it imports, never the orchestrator.
"""

import os
import sys

from planeprof.testbed.entity import main

if __name__ == "__main__":
    status = main()
    # Skip interpreter teardown: by now finalize() has closed the dump and
    # the sockets, the entity registers no atexit handler, and its only
    # threads are daemons. Only the standard streams may still hold output.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)
