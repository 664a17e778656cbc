"""Run the bregman-bv command line with spans recorded around its layers.

Usage: ``python3 clitrace.py SPANS_FILE SUBCOMMAND [ARGS...]`` with the
package on ``PYTHONPATH``.  The report and exit code are those of
``python3 -m bregman_bv.cli SUBCOMMAND [ARGS...]``; the spans go to SPANS_FILE.
"""

import os
import sys


def main() -> int:
    # the CLI applies this cap itself, but the wrappers import numpy first
    cap = os.environ.get("BREGMAN_BV_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)
    import tracing

    import bregman_bv.cli
    import bregman_bv.decomposition
    import bregman_bv.oracle  # noqa: F401  (loaded so their functions can be wrapped)

    tracer = tracing.Tracer()
    code = tracer.run(0, lambda: bregman_bv.cli.main(sys.argv[2:]))
    sys.stdout.flush()
    tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
