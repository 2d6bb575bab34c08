"""The command line's outputs, byte for byte, against the goldens in tests/golden/.

A mismatch means a result moved.  If it moved on purpose, regenerate with
`tests/make_golden.py` in the same commit and list the moved fields; if the
platform differs from `tests/golden/MACHINE.txt`, report the new bytes rather
than widening the comparison.
"""

from make_golden import GOLDEN_DIR, MACHINE_FILE, golden_outputs


def test_outputs_match_the_goldens_byte_for_byte():
    outputs = golden_outputs()
    stored = {path.name for path in GOLDEN_DIR.iterdir()} - {MACHINE_FILE}
    assert sorted(outputs) == sorted(stored)
    moved = [name for name, data in outputs.items() if (GOLDEN_DIR / name).read_bytes() != data]
    assert moved == []
