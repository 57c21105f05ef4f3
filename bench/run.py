"""gasketfif benchmark: one workload, one process, a closed loop of calls.

    python3 bench/run.py --workload points|grids|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up (import, model or config build, one warm-up pass) is
timed first, then passes run back to back for ``--seconds``, then the
oracles check every pass's outputs.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: set-up builds per run; the median is reported
BUILD_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("points", "grids", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _null_span(name):
    return contextlib.nullcontext()


def _median(xs):
    return float(statistics.median(xs))


def _tally(results, check):
    """Attempted/failed over every pass.  Only the last pass keeps its
    outputs, and the oracles check those; an earlier pass shares its verdict
    when its outputs were bit-identical, otherwise all of its ops count as
    failed (the program is deterministic for fixed inputs)."""
    last = results[-1]
    verdict = check(last.outputs)
    attempted = failed = mismatched = 0
    for r in results:
        attempted += verdict.attempted
        if r.sha == last.sha:
            failed += verdict.failed
        else:
            failed += verdict.attempted
            mismatched += 1
    return verdict, attempted, failed, mismatched


def run(workload, seed, seconds, trace, sizes=None, before_check=None, out=None):
    """Run one workload and print its report; returns the exit code.

    ``sizes`` overrides ``workloads.SIZES`` and ``before_check(wl)`` runs
    just before the oracles; both exist for bench/selftest.py."""
    out = out or sys.stdout
    if not (SRC / "gasketfif" / "__init__.py").is_file():
        print(f"error: no gasketfif sources under {SRC}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gasketfif  # noqa: F401
    import gasketfif.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import provenance
    import tracing
    from refloop import ReferenceLoop
    from workloads import SIZES, WORKLOADS, known_defects

    prov = provenance.collect(ROOT, seed, load_at_start)
    prov.update(workload=workload, seconds=seconds, trace=trace)
    WORK.mkdir(exist_ok=True)
    sizes = sizes or SIZES
    wl = WORKLOADS[workload](seed, sizes[workload], str(WORK))
    try:
        build_s = []
        for _ in range(BUILD_REPEATS):
            t = time.perf_counter()
            wl.build()
            build_s.append(time.perf_counter() - t)
        wl.make_inputs()
        t = time.perf_counter()
        wl.run_pass(_null_span)  # warm-up: fills process caches
        warm_s = time.perf_counter() - t
        setup_s = import_s + _median(build_s) + warm_s
        # set-up plus one pass is a fixed amount of work, so the peak does
        # not depend on how many passes fit in the run
        peak_rss_mb = provenance.peak_rss_mb()
        ref = None if trace else ReferenceLoop(wl.REFERENCE)
        # the benchmark's own inputs should not add to the cyclic GC's work
        gc.collect()
        gc.freeze()

        results, untraced, traced = [], [], []
        tracer = tracing.Tracer() if trace else None
        ref_s = [] if trace else [ref()]
        started = time.perf_counter()
        while True:
            gc.collect()  # every pass starts from the same heap state
            pid = len(results)
            if trace:
                # alternate untraced and traced cycles (build + pass) so the
                # overhead is measured on like work
                t = time.perf_counter()
                if pid % 2:
                    tracer.begin_pass(pid)
                    with tracing.patched(tracer):
                        wl.build()
                        r = wl.run_pass(tracer.span)
                    for k, v in r.counters.items():
                        tracer.count(k, v)
                    tracer.end_pass()
                    traced.append(time.perf_counter() - t)
                else:
                    wl.build()
                    r = wl.run_pass(_null_span)
                    untraced.append(time.perf_counter() - t)
            else:
                r = wl.run_pass(_null_span)
                ref_s.append(ref())
                r.ref_ratio = r.wall / ((ref_s[-2] + ref_s[-1]) / 2)
            r.seal()
            if results:
                results[-1].outputs = None  # keep memory flat across passes
            results.append(r)
            # stop when one more pass (a pair of cycles when tracing) would
            # overrun the run length
            if trace:
                if pid % 2 and time.perf_counter() - started + untraced[-1] + traced[-1] > seconds:
                    break
            elif time.perf_counter() - started + _median([x.wall + ref_s[-1] for x in results]) > seconds:
                break

        if before_check is not None:
            before_check(wl)
        verdict, attempted, failed, mismatched = _tally(results, wl.check)
        defects = known_defects(seed, sizes["defects"])
        for name, d in defects.items():
            if d["failed"]:
                print(f"known defect {name}, not counted as failed ops: {d['failed']} of "
                      f"{d['checked']} checked; {d['cause']}; first: {d['first']}",
                      file=sys.stderr)
        report = {
            "provenance": prov,
            "passes": len(results),
            "ops": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "nondeterministic_passes": mismatched,
            "failures": {g: {"attempted": a, "failed": f, "first": why}
                         for g, (a, f, why) in verdict.groups.items() if f},
            "known_defects": defects,
        }
        if trace:
            metrics = _layer_metrics(tracer, verdict, defects, untraced, traced)
            path = WORK / f"trace-{workload}-seed{seed}.npz"
            tracer.save(path, prov)
            report["trace_file"] = str(path.relative_to(ROOT))
            report["cycle_s"] = {"untraced": untraced, "traced": traced}
        else:
            walls = [r.wall for r in results]
            stages = {k: _median([r.stages[k] for r in results]) for k in results[0].stages}
            metrics = {
                "setup_s": (setup_s, "s"),
                "pass_ref_ratio": (_median([r.ref_ratio for r in results]), "ratio"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            report["metrics"] = {
                **{k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "wall_s": {"value": _median(walls), "unit": "s"},
                "ref_loop_s": {"value": _median(ref_s), "unit": "s"},
                **{k: {"value": v, "unit": u} for k, (v, u) in wl.metrics(stages).items()},
                "fail_frac": {"value": failed / attempted, "unit": "ratio"},
                "ops": {"value": attempted, "unit": "count"},
            }
            report["pass_wall_s"] = walls
            report["ref_loop_s"] = ref_s
            report["pass_stages_s"] = {k: [r.stages[k] for r in results] for k in stages}
            report["setup_parts_s"] = {"import": import_s, "build_median": _median(build_s),
                                       "warm_up_pass": warm_s}
            for k, v in report["metrics"].items():
                print(f"{workload} {k} = {v['value']:.6g} {v['unit']}", file=out)
        print("report " + json.dumps(report, sort_keys=True), file=out)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }), file=out)
        return 0
    finally:
        gc.unfreeze()
        wl.close()


def _layer_metrics(tracer, verdict, defects, untraced, traced):
    passes = list(tracer.passes.values())
    metrics = {}
    for name in tracer.names:
        calls = [p["spans"][name][0] for p in passes]
        self_s = [p["spans"][name][1] for p in passes]
        errors = [p["spans"][name][2] for p in passes]
        metrics[f"{name}.calls"] = (statistics.median_low(calls), "count")
        metrics[f"{name}.self_s"] = (_median(self_s), "s")
        metrics[f"{name}.errors"] = (statistics.median_low(errors), "count")
    import numpy as np
    import tracing

    lat = tracer.durations("evaluator.eval_approx") * 1e6
    checks = verdict.bound_checks
    metrics["evaluator.eval_approx.bound_violations"] = (verdict.bound_violations, "count")
    metrics["evaluator.eval_approx.certified_ratio"] = (
        (checks - verdict.bound_violations) / checks if checks else 0.0, "ratio")
    metrics["evaluator.eval_approx.p50_us"] = (
        float(np.percentile(lat, 50)) if len(lat) else 0.0, "us")
    metrics["evaluator.eval_approx.p99_us"] = (
        float(np.percentile(lat, 99)) if len(lat) else 0.0, "us")
    for counter in (*(c for c, _ in tracing.COUNTERS.values()), "cli.bytes_written"):
        vals = [p["counters"].get(counter, 0) for p in passes]
        metrics[counter] = (statistics.median_low(vals), "count" if counter != "cli.bytes_written"
                            else "bytes")
    metrics["evaluator.eval_approx.n3_k12_bound_violations"] = (
        defects["eval_approx_n3_k12"]["failed"], "count")
    metrics["analysis.holder_fit.n2_rule_failures"] = (defects["holder_fit_n2"]["failed"], "count")
    metrics["tracing.overhead_frac"] = (_median(traced) / _median(untraced) - 1.0, "ratio")
    return metrics


def main(argv=None):
    args = _parse(argv)
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
