"""Output digests recorded at a known-good motkit commit.

``sort-crowd``, ``streamline-graphs`` and ``fifo-sweep`` draw their inputs
from fixed pools; ``digests.json`` maps each pool index to the digest of the
program's output for it and a second recorded figure: the first frame's
assignment steps, which order the ``sort-crowd`` pool for stratified draws;
the float affines left after streamlining, which are checked; and the
simulated work, which orders the ``fifo-sweep`` pool. Neither ordering
figure depends on timing: the first depends on the inputs only, the second
changes only when simulated cycle counts do. Re-record only when the
expected behaviour changes on purpose:

    python3 bench/digests.py
"""

from __future__ import annotations

import json
from pathlib import Path

PATH = Path(__file__).with_name("digests.json")


def load(workload: str) -> dict:
    with open(PATH) as fh:
        return json.load(fh)[workload]


def save(doc: dict) -> None:
    """Write one pool entry per line, so re-recordings diff line by line."""
    blocks = []
    for workload in sorted(doc):
        entries = sorted(doc[workload].items(), key=lambda kv: int(kv[0]))
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries)
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    with open(PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


def main() -> None:
    import run

    run.import_motkit()
    import wl_fifo
    import wl_sort
    import wl_streamline

    save(
        {
            "sort-crowd": wl_sort.record_digests(),
            "streamline-graphs": wl_streamline.record_digests(),
            "fifo-sweep": wl_fifo.record_digests(),
        }
    )


if __name__ == "__main__":
    main()
