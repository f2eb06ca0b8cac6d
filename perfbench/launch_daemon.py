"""Start the service daemon with the benchmark's tracing installed.

    python perfbench/launch_daemon.py SPANS_JSON serve [serve options]

Installs the wrappers of ``tracing.py``, then runs ``repro.cli``
with the remaining arguments. The spans are written to ``SPANS_JSON``
when the daemon exits (after a ``shutdown`` request).
"""

from __future__ import annotations

import atexit
import sys

import tracing


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    out, cli_args = argv[0], argv[1:]
    import repro.cli
    rec = tracing.Recorder()
    tracing.install(rec)
    atexit.register(rec.dump, out)
    return repro.cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
