"""Guards on the bench harness's hold on the program: a traced bench run
(`bench/run.py --trace 1`) dereferences program names when it builds its
patch table, and every pass calls the program through `bench/pipeline.py`,
so a change that drops or breaks one of them fails here first."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_run_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    table = spans._patch_table()
    before = [owner.__dict__.get(attr) for owner, attr, _name, _after in table]
    with spans.patched(spans.Tracer()):
        pass
    assert [owner.__dict__.get(attr) for owner, attr, _name, _after in table] == before


@pytest.mark.parametrize("name", ["train-long-traj", "wide-catalog-eval"])
def test_one_pass_per_workload(monkeypatch, tmp_path, name):
    # one pass of each workload, every stage once, on the log of seed 1
    monkeypatch.syspath_prepend(str(BENCH))
    import pipeline
    import rawlog

    wl = pipeline.WORKLOADS[name]
    raw = tmp_path / "checkins.tsv"
    n_good = rawlog.write_log(raw, wl.shape, 1)
    checks = pipeline.Checks()
    result = pipeline.run_pass(wl, raw, n_good, tmp_path / "pass", checks, repeats=False)
    assert checks.failed == 0, checks.notes
    assert checks.attempted > 0 and result.test_ranks
