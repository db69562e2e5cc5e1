"""Classify a coarse (M, B) grid and render it as an ASCII chart plus SVG.

The attracting-fixed-point region sits between the fold curve below and the
flip / circle-birth curves above; everything below the fold diverges.
"""

import sys
import tempfile
from pathlib import Path

from ghmlab import curve_L_minus, curve_L_plus, sweep
from ghmlab.atlas_cli import main as cli

R = 0.05
NX, NY = 72, 24

grid = sweep(-2.0, 4.0, -1.5, 1.5, NX, NY, R)

GLYPH = {"divergent": ".", "sink": "#", "chaotic": "*", "circle": "o", "undecided": "?"}
print(f"R = {R}: M in [-2, 4] left to right, B in [-1.5, 1.5] bottom to top")
for j in reversed(range(NY)):
    row = "".join(GLYPH[grid.cells[j * NX + i].verdict] for i in range(NX))
    print(row)

counts: dict[str, int] = {}
for c in grid.cells:
    counts[c.verdict] = counts.get(c.verdict, 0) + 1
print()
for k in sorted(counts):
    print(f"{k:>10}: {counts[k]:4d} cells")

# cross-check two cells against the closed-form boundaries
p = grid.params_at(NX // 2, NY // 2)
lo, hi = curve_L_plus(p.B, R), curve_L_minus(p.B, R)
print(f"\ncentre cell ({p.M:.3f}, {p.B:.3f}): fold at M={lo:.3f}, flip at M={hi:.3f}")

# same rectangle through the command line, with the SVG overlay of the
# curves; the files go to a temporary directory that is removed on exit
with tempfile.TemporaryDirectory() as tmp:
    rc = cli(
        [
            "sweep", "--m-min", "-2", "--m-max", "4", "--b-min", "-1.5", "--b-max", "1.5",
            "--nx", "72", "--ny", "24", "--R", str(R),
            "--out", str(Path(tmp, "sweep_demo.csv")), "--svg", str(Path(tmp, "sweep_demo.svg")),
        ]
    )
print(f"\ncli sweep exit {rc}; wrote sweep_demo.csv and sweep_demo.svg to a temporary directory")
sys.exit(rc)
