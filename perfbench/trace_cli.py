"""Run one ``sataudit`` command in-process with every module traced.

    python3 perfbench/trace_cli.py SPANS.json -- audit --input ... --out ...

The ``sataudit`` package must be importable (the benchmark puts the
checkout's ``src`` on PYTHONPATH).  The command's whole ``cli.main`` call
is the root span.  Spans and counters go to SPANS.json when the command
returns; the exit code is the command's own.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_cli.py SPANS.json -- <sataudit args>",
              file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    rec = spans.Recorder()
    spans.install(rec)
    from sataudit import cli   # after install, so cli's bindings are wrapped
    code = cli.main(cli_args)
    payload = rec.to_dict()
    payload["sataudit_file"] = sys.modules["sataudit"].__file__
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
