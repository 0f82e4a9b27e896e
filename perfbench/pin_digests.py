"""Write digests/<workload>.txt: the output digest of each of the first jobs of
the pinned seed.  Run from the root of a checkout:

    python3 perfbench/pin_digests.py

Outputs are meant to stay byte-identical across commits, so re-pin only for a
change that alters reesmult's output on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402

# about three times the jobs of a 30 s run of each workload at the commit that
# pinned them (about 5700, 255 and 240), so a faster commit stays covered
PINNED_JOBS = {"facets": 16000, "verify": 800, "cli": 800}


def main():
    root = Path.cwd()
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    jobs.DIGEST_DIR.mkdir(exist_ok=True)
    for workload, n in PINNED_JOBS.items():
        # the old pins would fail every job whose output changed on purpose
        (jobs.DIGEST_DIR / f"{workload}.txt").unlink(missing_ok=True)
        res, _ = run._worker(root, out_dir, workload, jobs.PINNED_SEED, "replay", "pin",
                              timeout=3600, jobs=n)
        bad = [r for r in res["records"] if not r["ok"]]
        if bad or len(res["records"]) != n:
            sys.exit(f"{workload}: not pinned, {len(bad)} of {len(res['records'])} jobs "
                     f"failed: {bad[:3]}")
        lines = [f"# seed {jobs.PINNED_SEED}: job index, first 16 hex digits of the "
                 "SHA-256 of its canonical output"]
        lines += [f"{r['i']} {r['digest']}" for r in res["records"]]
        (jobs.DIGEST_DIR / f"{workload}.txt").write_text("\n".join(lines) + "\n")
        print(f"{workload}: pinned {n} digests")


if __name__ == "__main__":
    main()
