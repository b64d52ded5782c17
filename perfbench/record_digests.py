"""Record the triangle-det reference digests into digests.json.

Run once from the repository root, on a commit whose det route is trusted:

    python3 perfbench/record_digests.py

Every polynomial of the P/Q/G/H triangles up to the full triangle-det size
is computed by det_route.  Where lgv_det_route is cheap (m <= 10) the same
polynomial is also computed by that independent route, and recording stops
if the two disagree.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from qfaulhaber import coeffs, lgv  # noqa: E402
from workloads import FAMILIES, SIZES, poly_digest  # noqa: E402

LGV_CONFIRM_MAX_M = 10


def main() -> int:
    max_m = SIZES["full"]["triangle_max_m"]
    digests = {}
    confirmed = 0
    for f in FAMILIES:
        for m in range(1, max_m + 1):
            for k in range(m):
                poly = coeffs.det_route(f, m, k)
                if m <= LGV_CONFIRM_MAX_M:
                    if lgv.lgv_det_route(f, m, k) != poly:
                        print(f"det and lgv-det routes disagree at {f}({m},{k})",
                              file=sys.stderr)
                        return 1
                    confirmed += 1
                digests[f"{f}({m},{k})"] = poly_digest(poly)
    record = {
        "about": "sha256 prefix of 'min_exp:c0,c1,...' for det_route(family, m, k)",
        "lgv_confirmed_max_m": LGV_CONFIRM_MAX_M,
        "lgv_confirmed": confirmed,
        "digests": digests,
    }
    (HERE / "digests.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"recorded {len(digests)} digests, {confirmed} confirmed by lgv_det_route")
    return 0


if __name__ == "__main__":
    sys.exit(main())
