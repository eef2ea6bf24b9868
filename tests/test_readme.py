"""README's *Library* example runs as written, on synthetic strata."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python code block of README's *Library* section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_finds_the_planted_difference(capsys):
    rng = np.random.default_rng(3)
    z1, z2 = rng.uniform(0.0, 10.0, 800), rng.uniform(0.0, 10.0, 800)
    y1 = np.sin(z1) + rng.normal(0.0, 0.3, z1.size)
    y2 = np.sin(z2) + 1.5 * (np.abs(z2 - 5.0) < 1.5) + rng.normal(0.0, 0.3, z2.size)
    namespace = {"y1": y1, "z1": z1, "y2": y2, "z2": z2}
    exec(compile(library_example(), str(README), "exec"), namespace)
    spec, report = namespace["spec"], namespace["report"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [[str(rec.tau), str(rec.bound)] for rec in report.records]
    for line, rec in zip(lines, report.records):
        intervals = spec.window_intervals(rec.windows)
        assert line.endswith(str(intervals))
        assert all(0.0 <= lo < hi <= 10.0 for lo, hi in intervals)
    # the loosest threshold's region covers the middle of the planted step
    assert any(lo <= 5.0 <= hi for lo, hi in spec.window_intervals(report.records[-1].windows))
