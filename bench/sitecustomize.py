"""Worker-side tracing without touching ``src/``.

A traced real-time sample puts this directory on its children's
``PYTHONPATH`` and sets ``BENCH_TRACE_DIR``; every spawned worker then
imports this module at interpreter start, installs the same shims as
the parent (``spans.install``) and writes its aggregates to
``$BENCH_TRACE_DIR/<pid>.json`` when it exits.  Any other interpreter
that happens to start with this directory on its path — the
multiprocessing resource tracker, for one — is left alone.
"""

import os
import sys

if os.environ.get("BENCH_TRACE_DIR") and "--multiprocessing-fork" in sys.argv:
    import atexit
    import json

    import spans

    _tracer = spans.Tracer()
    spans.install(_tracer)

    def _dump() -> None:
        path = os.path.join(os.environ["BENCH_TRACE_DIR"], f"{os.getpid()}.json")
        with open(path, "w") as out:
            json.dump(_tracer.dump(), out)

    atexit.register(_dump)
