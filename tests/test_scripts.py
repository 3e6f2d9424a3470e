import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_hashes_prints_one_row_per_combination():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_hashes.py"), "--iters", "3"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    rows = [line.split(" | ") for line in out.splitlines()[2:]]
    assert len(rows) == 24
    assert len({tuple(r[:3]) for r in rows}) == 24
    for row in rows:
        digests = [cell.strip(" |") for cell in row[3:]]
        assert len(digests) == 3 and all(len(d) == 64 for d in digests)
