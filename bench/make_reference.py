"""Regenerate the stored reference results under ``bench/reference/``.

    python3 bench/make_reference.py [workload ...]

Synthetic workloads store one digest per pool job on the default seed; the
built-in CLI stores each command's exit code, stdout and CSV text. Run it
only when a change to the library is meant to change results, and say so.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(names):
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        pool = workloads.make_pool(w, workloads.DEFAULT_SEED)
        if name == "builtin_cli":
            ref = {"outputs": w.outputs(w.call(w.build(pool[0])))}
        else:
            digests = []
            for raw in pool:
                result = w.call(w.build(raw))
                problems = w.check(raw, result)
                if problems:
                    raise SystemExit(f"{name}: {problems[:3]}")
                digests.append(w.digest(result))
            ref = {
                "seed": workloads.DEFAULT_SEED,
                "tolerance": workloads.REF_TOL,
                "digests": digests,
            }
        path = workloads.reference_path(w)
        path.write_text(json.dumps(ref) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
