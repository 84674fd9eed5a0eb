"""One SHA-256 over what the CLI writes for the benchmark's ops.

For every op of the benchmark's three workloads on seeds 301 and 302, 556
ops in op order, it runs in process the op's `spannerdraw draw ... -o
<drawing> --format json` call (bench/workloads.py's `Op.argv`), then `metrics <drawing> --format json` and
`verify <drawing> --s 3/2 --format json`. It hashes each call's exit code,
stdout and stderr, and the drawing file's bytes. A change that keeps every
drawing and every report byte for byte keeps the digest, and the script
checks it against RECORDED, the digest recorded below:

    python tests/output_digest.py

It prints the digest and exits 0 when it equals RECORDED. Otherwise it
prints both and exits 1; a change that alters outputs on purpose records
the new digest in RECORDED. It takes about 14 s on a 2-core host. It reads
bench/ and writes only into a temporary directory. `digest(ops)` hashes any
list of ops the same way.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The digest of the 556 ops of seeds 301 and 302.
RECORDED = "d414ab17bbb44fa13ed6e6c89bb5d33134cfa9b47d4e789c51c6e6b8b65462ba"


def _call(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    from spannerdraw import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def digest(ops) -> str:
    """The SHA-256, in hex, of the outputs of the ops' three calls each."""
    h = hashlib.sha256()

    def put(data: bytes) -> None:
        h.update(len(data).to_bytes(8, "big") + data)

    with tempfile.TemporaryDirectory() as workdir:
        graph = os.path.join(workdir, "graph.json")
        drawing = os.path.join(workdir, "drawing.json")
        for op in ops:
            with open(graph, "w", encoding="utf-8") as fh:
                fh.write(op.graph_json())
            if os.path.exists(drawing):
                os.remove(drawing)
            calls = (op.argv(graph, drawing),
                     ["metrics", drawing, "--format", "json"],
                     ["verify", drawing, "--s", "3/2", "--format", "json"])
            for argv in calls:
                rc, out, err = _call(argv)
                for text in (str(rc), out, err):
                    put(text.replace(workdir, "<dir>").encode())
                if argv[0] == "draw":
                    put(Path(drawing).read_bytes() if os.path.exists(drawing) else b"<none>")
    return h.hexdigest()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    found = digest([op
                    for seed in (301, 302)
                    for name in workloads.WORKLOADS
                    for op in workloads.build(name, seed)])
    print(found)
    if found != RECORDED:
        print(f"mismatch: recorded {RECORDED}, found {found}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
