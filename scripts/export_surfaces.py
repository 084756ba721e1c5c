#!/usr/bin/env python3
"""Export the four catalog surfaces as OBJ meshes (plus CSV point clouds)."""

import pathlib
import sys

from solitonlab.cli import Parser, main as cli_main
from solitonlab.weierstrass import SURFACE_NAMES

GRIDS = {
    "lorentzian_helicoid": "-2:2:-2:2:41:41",
    "lorentzian_catenoid": "-2:2:-2:2:41:41",
    "scherk_first_kind": "-2:2:-2:2:41:41",
    "helicoid_second_kind": "-2:2:-2:2:41:41",
}


def main() -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--out-dir", default="surfaces")
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rc = 0
    for name in SURFACE_NAMES:
        for ext in ("obj", "csv"):
            dest = out / f"{name}.{ext}"
            code = cli_main(["surface", "sample", "--name", name,
                             "--grid", GRIDS[name], "--format", ext,
                             "--out", str(dest)])
            rc = max(rc, code)
            print(f"wrote {dest}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
