"""Regenerate ``references/<workload>.json`` from one run of each workload.

    python3 perfbench/make_references.py [workload ...]

Run it only at a commit whose physics is trusted: the stored values are what
every later benchmark run is checked against. The references in the tree
were made with the stepped cf4 integrator, the only propagation path at the
commit that introduced the benchmark.
"""
import json
import os
import sys

import run
import verify

SEED = 0
#: ROADMAP item 2 pins any fast path to stepped cf4 at <= 1e-7
ATOL = 1e-7
#: stored digits; far below ATOL, and keeps the files small
DECIMALS = 12
#: workloads whose inputs change with --seed (noise draws, Clifford strings)
SEED_DEPENDENT = {"sequence_noise", "rb_long"}


def main(names):
    os.makedirs(run.WORK, exist_ok=True)
    os.makedirs(verify.REFERENCE_DIR, exist_ok=True)
    for workload in names or run.WORKLOADS:
        job = run.workload_job(workload, SEED)
        result = run.spawn(job, f"{workload}.reference")
        if result["code"] != 0:
            raise SystemExit(f"{workload} failed with exit code {result['code']}")
        with open(job["out"], "rb") as handle:
            values = verify.parse_output(workload, handle.read())
        os.unlink(job["out"])
        keep = [verify.MAIN_VALUE[workload], "u.im", *verify.FIDELITY_FIELDS]
        doc = {
            "workload": workload,
            "seed": SEED,
            "seed_dependent": workload in SEED_DEPENDENT,
            "atol": ATOL,
            "argv": job["argv"],
            "values": {
                name: [round(x, DECIMALS) for x in values[name]]
                for name in keep
                if name in values
            },
        }
        path = os.path.join(verify.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
