"""The scripts in `scripts/` run from any directory and print fixed output."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(cwd, name, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_galois_sweep(tmp_path):
    assert run_script(tmp_path, "galois_sweep.py", "--count", "200", "--seed", "0") == (
        "200 systems, all adjunction checks passed\n"
        "verdicts: {'safe': 173, 'unsafe': 27}\n"
        "join steps to stabilize the least chain:\n"
        "   0: 119\n"
        "   1: 47\n"
        "   2: 26\n"
        "   3: 6\n"
        "   4: 2\n"
    )


def test_hylo_census(tmp_path):
    assert run_script(tmp_path, "hylo_census.py", "--max-states", "3") == (
        "states  machines  solution counts\n"
        "     1         2  {0:1, 2:1}  (0 well-founded)\n"
        "     2        16  {0:9, 2:6, 4:1}  (0 well-founded)\n"
        "     3       216  {0:129, 2:68, 4:18, 8:1}  (0 well-founded)\n"
    )


def test_render_carpet(tmp_path):
    out = run_script(
        tmp_path, "render_carpet.py", "--depth", "2", "--res", "27", "--out", "carpet.pgm"
    )
    assert out == (
        "wrote carpet.pgm (27x27, depth 2)\n"
        "depth     inside   fraction    (8/9)^d\n"
        "    0        729   1.000000   1.000000\n"
        "    1        648   0.888889   0.888889\n"
        "    2        576   0.790123   0.790123\n"
    )
    raw = (tmp_path / "carpet.pgm").read_bytes()
    header = b"P5\n27 27\n255\n"
    assert raw.startswith(header) and len(raw) == len(header) + 27 * 27
    assert raw[len(header):].count(0) == 576
    assert hashlib.sha256(raw).hexdigest() == (
        "50891858912a51dc22aa503f3fad92f5b49a6fd90d10c7eabeb05c2219bb302e"
    )
