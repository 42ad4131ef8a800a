"""Steadiness check: run the benchmark once per seed and report, per
end-to-end metric, the quartile spread as a share of the median.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workloads ties-verify chain-isom --seeds 1-10

Compare each spread with the metric's ``bound`` in BENCHMARK.json; a
spread below a third of the bound is steady.  ``host.spin_s`` of every
run is printed so a wide spread can be traced to the host's speed.
Results also go to ``.perfbench/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            argv = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            spin = next(line for line in lines if line.startswith("host.spin_s"))
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "spin": spin, **result})
            print(f"{workload} seed {seed}: {spin}; "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {workload} {name}: median {med:.5g} spread {spread:.3f} bound {bound} {flag}")
        out = ROOT / ".perfbench" / f"steady-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
