"""Record the output digests every benchmark variant is checked against.

    python3 perfbench/record_refs.py

Runs each operation of each input variant once and writes
perfbench/refs.json.  Outputs with a golden file in tests/data are compared
with it here and are not recorded.  Run it only at a commit whose outputs
are known to be right: a later change must reproduce these bytes.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    os.chdir(ROOT)   # the oneshot commands use paths relative to the root
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import dctapprox
    import dctapprox.cli  # noqa: F401  (the oneshot workload drives the CLI)
    import workloads

    refs: dict = {}
    for name, cls in workloads.WORKLOADS.items():
        refs[name] = {}
        for seed in range(cls.variants):
            wl = cls(dctapprox, seed)
            ops = []
            for i in range(wl.cycle):
                wl.before(i)
                got = wl.outputs(i, wl.run(i))
                golden = wl.golden(i)
                for out, path in golden.items():
                    if got.get(out) != path.read_bytes():
                        raise SystemExit(f"{name} {wl.key} op {i}: {out} differs from {path}")
                ops.append({k: workloads.digest(v) for k, v in sorted(got.items())
                            if k not in golden})
            refs[name][wl.key] = ops
            print(f"{name} {wl.key}: {len(ops)} operations", flush=True)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
