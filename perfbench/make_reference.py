"""Write perfbench/reference/<workload>.json from one `fermisim evolve` per workload.

    python3 perfbench/make_reference.py

The reference keeps the deterministic part of each result document: the
modelled op_counts and every exact value.  run.py checks each run against it,
and sampled values against the exact ones.  The files were made at the
commit that introduced the benchmark; rerun this only when a change to the
program is meant to change results, and say so in that change.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, child_env

EXACT_KEYS = ("kind", "sites", "particle", "exact", "potential", "kinetic", "total")


def reference_of(document: dict) -> dict:
    observables = []
    for obs in document["observables"]:
        entry = {k: obs[k] for k in EXACT_KEYS if k in obs}
        if "values" in obs:
            entry["values"] = [{"index": row["index"], "exact": row["exact"]}
                               for row in obs["values"]]
        observables.append(entry)
    return {"op_counts": document["op_counts"], "observables": observables}


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        output = Path(tmp) / "result.json"
        for config in sorted((HERE / "workloads").glob("*.json")):
            subprocess.run([sys.executable, "-m", "fermisim.cli", "evolve", "--config",
                            str(config), "--output", str(output)], env=child_env(), check=True)
            reference = reference_of(json.loads(output.read_text()))
            target = HERE / "reference" / config.name
            target.write_text(json.dumps(reference, indent=1) + "\n")
            print(f"wrote {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
