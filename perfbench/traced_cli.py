"""`halflearn learn` with layer spans recorded, for the traced CLI runs.

Usage: python3 perfbench/traced_cli.py SPANS_JSON learn --in ... --out ...
Writes {"spans": [...], "missing": [...]} to SPANS_JSON and exits with the
command's exit code.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install(tracing.CLI_TARGETS + tracing.LAYER_TARGETS)
    from halflearn import cli
    code = cli.main(argv)
    Path(spans_path).write_text(json.dumps({"spans": tracer.spans,
                                            "missing": tracer.missing}))
    return code


if __name__ == "__main__":
    sys.exit(main())
