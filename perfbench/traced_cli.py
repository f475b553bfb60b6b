"""Run one `netadjust` command with the tracer installed and write its spans.

Usage: traced_cli.py SPANS_JSON -- <netadjust arguments>
Exits with the command's own exit code.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    tracer.install()
    import netadjust.cli

    try:
        code = netadjust.cli.main(argv)
    finally:
        tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
