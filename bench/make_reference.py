"""Record the reference verdicts and slopes that bench/run.py checks against.

    python3 bench/make_reference.py

Runs every workload once per recorded seed (0 .. 31), untimed, and rewrites
bench/reference.json.  Run it only on a commit whose rates are trusted: the
file is the definition of a correct output for every later commit.
"""

import json

from run import REFERENCE, git_commit, source_digest
from workloads import RECORDED_SEEDS, WORKLOADS, pin_blas_threads, setup

#: a sweep may move a slope this far from the reference (absolute):
#: room for rounding when an algorithm changes, far below seed-to-seed spread
SLOPE_ABS = 1e-6


def main():
    pin_blas_threads()
    out = {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "tolerance": {"slope_abs": SLOPE_ABS},
        "workloads": {},
    }
    for name in WORKLOADS:
        by_seed = out["workloads"][name] = {}
        for seed in RECORDED_SEEDS:
            sweep_name, cfg = setup(name, seed)
            import oscillat.study  # importable once setup has put src/ on the path
            report = getattr(oscillat.study, sweep_name)(cfg)
            by_seed[str(seed)] = {e.tag: {"verdict": e.verdict, "slope": e.slope}
                                  for e in report.estimates}
            print(name, seed, by_seed[str(seed)], flush=True)
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
