"""Record the scores the benchmark checks its runs against.

    python3 perfbench/record_golden.py --seeds 0-20,7919

Scores every workload, full size and tiny, once per seed (tracing off)
and stores each score's ``repr`` in ``perfbench/golden.json``, merged into
what is there. Run it only on a commit whose scores are the reference: a
later run whose scores move by more than 1e-12 relative counts them as
failed operations. A seed whose scores break a workload's own invariants
is not recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import run


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20,7919")
    args = parser.parse_args()
    run._import_tcdm()
    from workloads import WORKLOADS, build

    path = os.path.join(run.HERE, "golden.json")
    with open(path) as fh:
        golden = json.load(fh)
    status = 0
    with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
        for tiny in (True, False):
            scale = "tiny" if tiny else "full"
            for name in WORKLOADS:
                workload = build(name, tiny)
                for seed in _seeds(args.seeds):
                    it = workload.iterate(workload.setup(seed, os.path.join(workdir, name)))
                    problems = workload.check(it, None)
                    if problems:
                        print(f"{scale} {name} seed {seed}: not recorded: {problems}")
                        status = 1
                        continue
                    golden.setdefault(scale, {}).setdefault(name, {})[str(seed)] = \
                        [repr(q) for q in it.qs]
                    print(f"{scale} {name} seed {seed}: {[repr(q) for q in it.qs]}", flush=True)
                    with open(path, "w") as fh:
                        json.dump(golden, fh, indent=1, sort_keys=True)
                        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
