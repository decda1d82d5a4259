"""poirec benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload train-long-traj --seed 1 --seconds 55 --trace 0

Runs one warm-up pipeline pass (see pipeline.py) on the log of the fixed
QUALITY_SEED, which gives the quality metrics and the peak memory, then
repeats the pass on the log of --seed for about --seconds (it stops at the
pass end nearest to that time) and reports the median of each stage's timed
calls over the passes. Metric names and units come from BENCHMARK.json. With
--trace 1 every second timed pass runs with spans on, the per-layer metrics
are the medians over the traced passes, and the passes between them give the
tracing overhead. BLAS runs on one thread.
Scratch files live under .bench_work/ at the repository root; the span log of
a traced run is kept there. See NOTES.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
QUALITY_SEED = 0


def _import_program():
    """Import poirec from this checkout's src/, never from anywhere else."""
    if not (SRC / "poirec" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'poirec'} not found; run from a poirec checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import poirec
    if Path(poirec.__file__).resolve().parent != SRC / "poirec":
        sys.exit(f"error: imported poirec from {poirec.__file__}, not {SRC}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import pipeline
    import rawlog
    import spans

    if args.workload not in pipeline.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(pipeline.WORKLOADS)}")
    wl = pipeline.WORKLOADS[args.workload]
    run_dir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    checks = pipeline.Checks()
    warmup, passes, traced = None, [], []  # traced: (pass index, Tracer)
    try:
        # Warm-up pass on the fixed quality input: it pays the one-time costs
        # of a fresh process and gives val_hr10 / val_ndcg10, so that quality
        # compares exactly between commits instead of varying with --seed.
        raw = run_dir / "quality.tsv"
        n_good = rawlog.write_log(raw, wl.shape, QUALITY_SEED)
        warmup = pipeline.run_pass(wl, raw, n_good, run_dir / "warmup", checks,
                                   repeats=False)
        # peak memory of a fresh process through one pass of the fixed input
        # (memory can creep with the number of passes a run fits in)
        warmup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        raw = run_dir / "checkins.tsv"
        n_good = rawlog.write_log(raw, wl.shape, args.seed)
        start = time.perf_counter()
        pass_s = 0.0  # how long the last pass took
        # start another pass while its end lies nearer to --seconds than now
        while not passes or (args.trace and not traced) or \
                time.perf_counter() - start + pass_s / 2 < args.seconds:
            began = time.perf_counter()
            tracer = spans.Tracer() if args.trace and len(passes) % 2 == 1 else None
            work = run_dir / f"pass{len(passes)}"
            if tracer is None:
                res = pipeline.run_pass(wl, raw, n_good, work, checks)
            else:
                with spans.patched(tracer):
                    res = pipeline.run_pass(wl, raw, n_good, work, checks, tracer)
                traced.append((len(passes), tracer))
            if passes:
                checks.check(res.test_ranks == passes[0].test_ranks,
                             "test ranks differ between passes on the same input",
                             n=len(res.test_ranks))
            passes.append(res)
            shutil.rmtree(work)
            pass_s = time.perf_counter() - began
    except Exception:  # report the failure as a failed operation, then exit 1
        traceback.print_exc()
        checks.check(False, "a pipeline stage raised")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    def median(values):
        values = list(values)
        return statistics.median(values) if values else float("nan")

    def samples(name):
        return [t for p in passes for t in p.stages.get(name, ())]

    if args.trace:
        values = [spans.layer_values(tr) for _i, tr in traced]
        metrics = {m["name"]: {"value": median(v.get(m["name"], 0) for v in values),
                               "unit": m["unit"]} for m in spec["per_layer"]}
        spanned = {i for i, _tr in traced}
        plain = [p.wall for i, p in enumerate(passes) if i not in spanned]
        on = [p.wall for i, p in enumerate(passes) if i in spanned]
        if plain and on:
            overhead = median(on) / median(plain) - 1
            print(f"tracing overhead: {overhead:+.2%} of pass wall time "
                  f"({len(on)} traced vs {len(plain)} untraced passes)")
        if traced:
            traced[-1][1].write(WORK / f"trace-{wl.name}-{args.seed}.jsonl",
                                {"workload": wl.name, "seed": args.seed})
        for name, m in metrics.items():
            print(f"{name:34s} {m['value']:14.6f} {m['unit']}")
    else:
        values = {
            "setup_s": median(samples("setup")),
            "preprocess_s": median(samples("preprocess")),
            "pretrain_s": median(samples("pretrain")),
            "epoch_s": median(samples("epoch")),
            "eval_pairs_per_s": median(r for p in passes for r in p.eval_rates),
            "pipeline_s": median(p.wall for p in passes),
            "peak_rss_mb": warmup_rss_mb if warmup else float("nan"),
            "val_hr10": warmup.val_hr10 if warmup else float("nan"),
            "val_ndcg10": warmup.val_ndcg10 if warmup else float("nan"),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, m in metrics.items():
            print(f"{name:18s} {m['value']:14.6f} {m['unit']}")
    for note in checks.notes:
        print(f"check failed: {note}", file=sys.stderr)
    correct = checks.failed == 0 and bool(passes) and all(
        math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():  # keep the result line valid JSON after a failure
        if not math.isfinite(m["value"]):
            m["value"] = None
    print(f"{len(passes)} pass(es), {checks.attempted} operations, {checks.failed} failed")
    print(json.dumps({"correct": correct, "attempted": max(1, checks.attempted),
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
