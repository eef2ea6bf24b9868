#!/usr/bin/env python3
"""Check that a model file written by `analyze` stores precision bands.

    python3 scripts/check_model_file.py OUT/fits.json

Exits 1 unless the file has `"format": 2` and no stratum without fixed
effects holds a dense `cov` (only fixed-effect strata keep one).
"""

import json
import sys


def main(argv=None) -> int:
    (path,) = sys.argv[1:] if argv is None else argv
    with open(path, encoding="utf-8") as fh:
        model = json.load(fh)
    fmt = model.get("format")
    dense = [i for i, s in enumerate(model["strata"]) if "cov" in s and not s["beta"]]
    if fmt != 2 or dense:
        print(f"{path}: format {fmt!r}, dense cov in strata without fixed effects {dense}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
