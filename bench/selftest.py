"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 bench/selftest.py

Checks that every metric is printed with its unit, that the traced run
puts the work in the right layers, that an injected wrong result raises
``fail_frac`` (so the oracles bite), and that the benchmark refuses to run
without the library sources.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "points": {"evals": 60, "k": {1: 12, 3: 4}, "chaos": 3000, "chaos_checked": 100,
               "cloud_level": 3},
    "grids": {"depth": 3, "dim_levels": (2, 4), "holder_levels": (2, 3), "fp_tol": 1e-12,
              "checked": 40},
    "cli": {"grid_depth": 2, "chaos": 500, "dim_levels": (2, 4), "holder_levels": (2, 3)},
    "defects": {"points": 20, "k": 12, "holder_levels": (2, 3)},
}

#: metrics the report line must carry on each workload, with their units
REPORTED = {
    "points": {"eval_points_per_s": "1/s", "chaos_samples_per_s": "1/s",
               "cloud_samples_per_s": "1/s"},
    "grids": {"grid_values_per_s": "1/s", "dim_s": "s", "holder_s": "s", "fixed_point_s": "s"},
    "cli": {"chaos_samples_per_s": "1/s", "grid_values_per_s": "1/s", "dim_s": "s",
            "holder_s": "s", "check_s": "s"},
}
COMMON = {"setup_s": "s", "pass_ref_ratio": "ratio", "wall_s": "s", "ref_loop_s": "s",
          "peak_rss_mb": "MB", "fail_frac": "ratio", "ops": "count"}

failures = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload, trace, before_check=None):
    buf = io.StringIO()
    code = run.run(workload, seed=3, seconds=0, trace=trace, sizes=TINY,
                   before_check=before_check, out=buf)
    lines = buf.getvalue().splitlines()
    report = next(json.loads(x[len("report "):]) for x in lines if x.startswith("report "))
    return code, lines, report, json.loads(lines[-1])


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def check_output(workload, trace, code, lines, report, final):
    tag = f"{workload} trace={trace}"
    expect(code == 0, f"{tag}: exit code 0")
    expect(set(final) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(final["attempted"] >= 1 and final["correct"] == (final["failed"] == 0),
           f"{tag}: attempted/failed/correct consistent")
    want = units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in final["metrics"].items()}
    expect(got == want, f"{tag}: result metrics are exactly those of BENCHMARK.json, units match")
    expect(all(isinstance(v["value"], (int, float)) for v in final["metrics"].values()),
           f"{tag}: metric values are numbers")
    prov = report["provenance"]
    expect({"nproc", "cpu_model", "loadavg_start", "python", "numpy", "scipy",
            "blas_thread_env", "git_commit", "seed"} <= set(prov), f"{tag}: provenance block")
    if not trace:
        named = {**COMMON, **REPORTED[workload]}
        printed = {k: v["unit"] for k, v in report["metrics"].items()}
        expect(printed == named, f"{tag}: report names every end-to-end metric with its unit")
        for k, u in named.items():
            expect(any(x.startswith(f"{workload} {k} = ") and x.endswith(f" {u}") for x in lines),
                   f"{tag}: prints '{k} ... {u}'")


def corrupt_oracle(wl):
    from gasketfif.model import perturb_shift

    for n, m in wl.oracle.items():
        w = "1" * n
        wl.oracle[n] = perturb_shift(m, w, w, 2, 2, 0.5)


def tamper_csv(wl):
    path = wl.path["grid.csv"]
    rows = Path(path).read_text().splitlines()
    cells = rows[-1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1.0)
    rows[-1] = ",".join(cells)
    Path(path).write_text("\n".join(rows) + "\n")


def main():
    layer = {}
    for workload in ("points", "grids", "cli"):
        for trace in (0, 1):
            code, lines, report, final = bench(workload, trace)
            check_output(workload, trace, code, lines, report, final)
            if trace:
                layer[workload] = {k: v["value"] for k, v in final["metrics"].items()}
            else:
                clean = final
        inject = tamper_csv if workload == "cli" else corrupt_oracle
        _, _, report, final = bench(workload, 0, before_check=inject)
        expect(final["failed"] > clean["failed"] and report["fail_frac"] > 0,
               f"{workload}: injected wrong result raises fail_frac "
               f"({clean['failed']} -> {final['failed']} failed)")

    pts, grd = layer["points"], layer["grids"]
    expect(pts["gasket.locate.self_s"] > 0 and pts["evaluator.eval_approx.self_s"] > 0,
           "points: locate and eval_approx self time non-zero")
    expect(all(v == 0 for k, v in pts.items() if k.startswith("grids.") and k.endswith(".calls")),
           "points: grids.* never called")
    expect(grd["gasket.locate.calls"] == 0, "grids: locate never called")
    expect(layer["cli"]["cli.bytes_written"] > 0, "cli: bytes written counted")

    saved = run.SRC
    run.SRC = run.ROOT / "no-such-dir"
    try:
        buf = io.StringIO()
        code = run.run("points", 1, 0, 0, out=buf)
    finally:
        run.SRC = saved
    expect(code != 0 and not buf.getvalue(), "no sources: non-zero exit, no result printed")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
