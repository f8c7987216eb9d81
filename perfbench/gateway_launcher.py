"""Start ``metaprep gateway`` with the benchmark's layer wrappers installed.

    python gateway_launcher.py <trace_dir> gateway --spool ... --port 0

Installs the wrappers of :mod:`tracing` (``MetaPrep.run`` as
``service.run``, plus the artifact store), then hands the remaining
arguments to the program's own command-line entry point.  Only the
traced gateway runs start this way; untraced runs start the plain
``python -m repro.cli gateway``.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main() -> int:
    install(Tracer(sys.argv[1]), root="service.run", service=True)
    from repro.cli import main as cli_main

    return cli_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
