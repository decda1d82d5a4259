"""Guards on the bench harness's hold on the program: a traced bench run
(`bench/run.py --trace 1`) dereferences program names when it builds its
patch table, so a change that drops one of them fails here first."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_run_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    table = spans._patch_table()
    before = [owner.__dict__.get(attr) for owner, attr, _name, _after in table]
    with spans.patched(spans.Tracer()):
        pass
    assert [owner.__dict__.get(attr) for owner, attr, _name, _after in table] == before
