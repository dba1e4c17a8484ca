"""Benchmark worker: one fresh interpreter that runs a workload in-process.

Started by `run.py` with BLAS pinned to one thread through the environment
and `src/` on PYTHONPATH.  Protocol on stdin/stdout, one JSON line per
message:

1. After `piezobeam` and `piezobeam.cli` are imported the worker prints
   `{"ready": true, "package": <path of piezobeam>}`; the parent's clock from
   spawn to this line is the set-up time.
2. It then answers requests until `null` or end of input:
   `{"cmd": "load", "job": {...}}` builds the workload and warms up,
   `{"cmd": "pass", "trace": bool}` runs one pass,
   `{"cmd": "done"}` reports the counts, health figures and peak memory.

The CLI's own stdout and stderr are captured per task, so the protocol
stream carries nothing else.
"""

from __future__ import annotations

import json
import sys

import piezobeam
import piezobeam.cli


def main() -> int:
    channel = sys.stdout
    channel.write(json.dumps({"ready": True, "package": piezobeam.__file__}) + "\n")
    channel.flush()
    runner = None
    for line in iter(sys.stdin.readline, ""):
        msg = json.loads(line)
        if msg is None:
            break
        if msg["cmd"] == "load":
            from passes import WorkloadRunner  # the harness, imported after the set-up clock
            runner = WorkloadRunner(msg["job"])
            reply = {"environment": runner.env}
        elif msg["cmd"] == "pass":
            reply = runner.run(msg["trace"])
        else:
            reply = runner.finish()
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
