#!/usr/bin/env python3
"""Check that a model file written by `analyze` holds each covariance as bands.

    python3 scripts/check_model_file.py OUT/fits.json

Exits 1 unless the file has `"format": 3` and every stratum stores a
`precision_band`, a `border` of len(beta) rows of m numbers, and no dense
`cov`.
"""

import json
import sys


def banded(stratum: dict, m: int) -> bool:
    """Whether a stratum holds a precision band and a len(beta) x m border, and no dense cov."""
    border = stratum.get("border")
    return (
        "cov" not in stratum
        and "precision_band" in stratum
        and isinstance(border, list)
        and len(border) == len(stratum["beta"])
        and all(len(row) == m for row in border)
    )


def main(argv=None) -> int:
    (path,) = sys.argv[1:] if argv is None else argv
    with open(path, encoding="utf-8") as fh:
        model = json.load(fh)
    fmt = model.get("format")
    bad = [i for i, s in enumerate(model["strata"]) if not banded(s, model["basis"]["m"])]
    if fmt != 3 or bad:
        print(f"{path}: format {fmt!r}, strata not stored as a band and a border {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
