"""Entry point for ``python -m repro``."""

import gc
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # The process is about to exit, so the interpreter's final cyclic-GC
    # pass would only walk objects the OS reclaims anyway (about 20 ms
    # over a compiled program's heap).  Freezing moves them out of the
    # collector's reach; atexit handlers, module teardown and refcount
    # frees still run as usual.
    gc.freeze()
    sys.exit(code)
