"""Run one secsource command with its layer functions traced.

The traced cli_readme rounds call this in place of ``python -m secsource``:

    python bench/cli_shim.py SPANS.json.gz <secsource arguments...>

It wraps the same functions as the in-process traced runs, runs
``secsource.cli.main`` and writes the spans to SPANS.json.gz.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402  (after the path set-up)

import secsource.cli  # noqa: E402


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.patched():
        status = secsource.cli.main(argv)
    tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
