"""tools/bit_identity.py runs on this tree and prints every item it promises."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bit_identity_quick_prints_one_sha256_per_item_then_the_total():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bit_identity.py"), str(ROOT / "src"), "--quick"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [name for name, _ in lines] == ["train_phases", "study_students", "eval_ce",
                                           "greedy_ids", "wide_student", "total"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, digest in lines)
