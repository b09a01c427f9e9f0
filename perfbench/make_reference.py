"""Record the correctness reference the benchmark compares against.

Run from the repository root, only on a commit whose margins are trusted:

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/<workload>.json`` for every workload: the
verdicts and normalized margins (``norm_detail``) of a fixed-seed verify
run, or of normality-dropped evaluations for the search workload.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402

import workloads as wls  # noqa: E402


def main() -> int:
    wls.OUT.mkdir(exist_ok=True)
    wls.REFERENCE_DIR.mkdir(exist_ok=True)
    api = wls.load_opineq()
    for workload in wls.WORKLOADS:
        records = wls.reference_records(api, workload)
        path = wls.reference_path(workload)
        path.write_text(json.dumps({"workload": workload, "records": records},
                                   indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.relative_to(wls.ROOT)}: {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
