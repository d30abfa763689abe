"""Loaded at interpreter start-up by every server process of a traced run.

The benchmark puts this directory on the servers' ``PYTHONPATH`` and sets
``PERFBENCH_TRACE_DIR``; cluster workers inherit both from the router.
Without the variable nothing happens.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_spans

    perfbench_spans.install(os.environ["PERFBENCH_TRACE_DIR"])
