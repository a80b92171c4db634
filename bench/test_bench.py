"""The benchmark's own test: every workload at reduced size, both modes,
reports every declared metric with its declared unit and passes its
output checks."""

import run


def test_smoke():
    assert run.main(["--smoke"]) == 0
