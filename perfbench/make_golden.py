#!/usr/bin/env python3
"""Regenerate perfbench/golden.json: the digest of the ``select`` output for
every instance in every workload's pool.

    python3 perfbench/make_golden.py            # all workloads
    python3 perfbench/make_golden.py chain      # one workload, others kept

Run it only when the CLI output is meant to change.  The recursion limit is
raised here, and only here, so instances that today fail with RecursionError
get a golden digest too: a later fix must reproduce those bytes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import run


def main(names: list[str]) -> int:
    run._import_ioselect()
    from measure import Expected, check_output, output_digest, run_select
    from workloads import WORKLOADS, set_up

    sys.setrecursionlimit(20_000)
    golden = {}
    if os.path.exists(run.GOLDEN):
        with open(run.GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    from ioselect.oracle_bench import instance_digest

    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        digests = {}
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            for spec in workload.pool:
                (path,), (system,) = set_up([spec], tmp)
                t0 = time.perf_counter()
                code, text = run_select(path, workload.select_flags)
                seconds = time.perf_counter() - t0
                digest = instance_digest(system)
                reason = check_output(
                    code, text, Expected.from_file(path, digest, None), "--exact" in workload.select_flags
                )
                if reason is not None:
                    sys.exit(f"error: {name} {spec.label}: {reason}")
                digests[digest] = output_digest(text)
                print(f"{name} {spec.label} {digest} {seconds:.3f} s")
        golden[name] = dict(sorted(digests.items()))
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
