"""Regenerate the golden outputs under tests/golden/.

    PYTHONPATH=src python tests/make_golden.py

The goldens pin the bytes the command line writes: for each shipped config
(`configs/`, `perfbench/workloads/`, `perfbench/probes/`) the `evolve` result
document without its wall time, and its CSV; the table of each `validate`
suite; and the `antisym` document of a few label sets in both modes.
`tests/test_golden.py` regenerates them in a temporary directory and compares
bytes.  A change that moves a result on purpose regenerates them in the same
commit, so the golden diff lists what moved.  `MACHINE.txt` records the
platform they were made on, since summation order can follow the numpy build
and the CPU.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from fermisim import cli
from fermisim.validate import SUITES

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SHIPPED_CONFIGS = sorted(
    path for pattern in ("configs/*.json", "perfbench/workloads/*.json", "perfbench/probes/*.json")
    for path in REPO_ROOT.glob(pattern)
)
ANTISYM_LABELS = ("1,3,4", "2,5,7,8")
MACHINE_FILE = "MACHINE.txt"


def golden_outputs() -> dict[str, bytes]:
    """Every golden file name with the bytes this tree produces for it."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for path in SHIPPED_CONFIGS:
            name = f"evolve.{path.parent.name}.{path.stem}"
            result = tmp / "out.json"
            if cli.main(["evolve", "--config", str(path), "--output", str(result)]) != 0:
                raise RuntimeError(f"evolve failed on {path}")
            document = json.loads(result.read_text())
            del document["wall_time_s"]
            out[f"{name}.json"] = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()
            out[f"{name}.csv"] = result.with_suffix(".csv").read_bytes()
        for labels in ANTISYM_LABELS:
            for mode in ("fermi", "bose"):
                result = tmp / "map.json"
                if cli.main(["antisym", "--labels", labels, "--mode", mode,
                             "--output", str(result)]) != 0:
                    raise RuntimeError(f"antisym failed on {labels} ({mode})")
                out[f"antisym.{labels.replace(',', '-')}.{mode}.json"] = result.read_bytes()
    for suite in sorted(SUITES):
        table = io.StringIO()
        with contextlib.redirect_stdout(table):
            if cli.main(["validate", suite]) != 0:
                raise RuntimeError(f"validate {suite} failed")
        out[f"validate.{suite}.txt"] = table.getvalue().encode()
    return out


def machine_facts() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"python {platform.python_version()}\nnumpy {np.__version__}\n"
            f"cpu {cpu}\nplatform {platform.platform()}\n")


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    outputs = golden_outputs()
    for stale in GOLDEN_DIR.iterdir():
        if stale.name not in outputs and stale.name != MACHINE_FILE:
            stale.unlink()
    for name, data in outputs.items():
        (GOLDEN_DIR / name).write_bytes(data)
    (GOLDEN_DIR / MACHINE_FILE).write_text(machine_facts())
    print(f"wrote {len(outputs)} goldens and {MACHINE_FILE} to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
