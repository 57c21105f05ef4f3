
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import config_dict, write_config
from oracles import check_lines_oracle, grid_csv_oracle

import gasketfif as gf
from gasketfif import cli, evaluator, grids
from gasketfif.cli import build_from_config, main
from gasketfif.evaluator import address_letters, eval_exact


def zero_data(n=1):
    ds = gf.DataSet.zeros(n)
    return [
        {"first": str(k.first), "second": str(k.second), "z": 0.0}
        for k in ds.entries
    ]


def random_config(n, seed, alpha):
    data = [
        {"first": str(k.first), "second": str(k.second), "z": z}
        for k, z in gf.random_dataset(n, seed).entries.items()
    ]
    return config_dict(n=n, alpha=alpha, data=data)


#: two skewed gaskets far apart, one per factor
SKEWED = ([[0.3, -1.2], [2.7, 0.4], [0.9, 3.1]], [[10.0, 5.0], [11.0, 5.2], [10.1, 6.3]])


class TestBuild:
    def test_bump_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        assert main(["build", "-c", cfg]) == 0
        out = capsys.readouterr().out
        fields = dict(
            line.split("=", 1) for line in out.replace(" ", "\n").splitlines() if "=" in line
        )
        assert float(fields["alphaSup"]) == 0.3
        assert fields["n"] == "1"
        assert float(fields["a"]) == 0.5
        assert "compatibilityMax" in fields

    def test_zero_config_flat_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict(data=zero_data()))
        assert main(["build", "-c", cfg]) == 0
        assert "fSupBound=0" in capsys.readouterr().out

    def test_missing_vertex_exit_code(self, tmp_path, capsys):
        raw = config_dict()
        raw["data"] = raw["data"][:-1]
        cfg = write_config(tmp_path, raw)
        assert main(["build", "-c", cfg]) == 2
        err = capsys.readouterr().err
        assert "missing" in err

    def test_boundary_nonzero_exit_code(self, tmp_path, capsys):
        raw = config_dict()
        for d in raw["data"]:
            if d["first"].startswith("@"):
                d["z"] = 0.7
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 2
        assert "boundary vertex" in capsys.readouterr().err

    @pytest.mark.parametrize("address", [5, [1, 2], None])
    def test_non_string_address_exit_code(self, tmp_path, capsys, address):
        raw = config_dict()
        raw["data"][3]["first"] = address
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 7
        assert "data[3]: addresses must be" in capsys.readouterr().err

    def test_short_data_refused_before_allocating(self, tmp_path, capsys):
        # V_5 x V_5 has 133956 product vertices; an empty list is refused
        # before the 9^5-entry scaling field or the required-vertex set
        raw = config_dict()
        raw["n"] = 5
        raw["data"] = []
        cfg = write_config(tmp_path, raw)
        tracemalloc.start()
        try:
            code = main(["build", "-c", cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "missing" in capsys.readouterr().err
        assert peak < 2 * 2**20

    def test_noncontractive_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, config_dict(alpha=1.0))
        assert main(["build", "-c", cfg]) == 3

    @pytest.mark.parametrize("field", ["z", "constant"])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, field):
        raw = random_config(1, 0, 0.3)
        if field == "z":
            interior = next(d for d in raw["data"] if "@" not in (d["first"][0], d["second"][0]))
            interior["z"] = float("nan")
        else:
            raw["scaling"]["constant"] = float("nan")
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("corner", [[float("nan"), 0.0], [float("inf"), 0.0], [1e308, 0.0]])
    def test_non_finite_gasket_exit_code(self, tmp_path, capsys, corner):
        raw = config_dict()
        raw["gasket1"] = [[-1e308, 0.0], corner, [0.0, 1.0]]
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 7
        assert "gasket1" in capsys.readouterr().err

    @pytest.mark.parametrize("site", ["z", "constant", "cell", "tensor", "corner"])
    def test_integer_too_large_for_a_float_exit_code(self, tmp_path, capsys, site):
        # json reads a 401-digit literal as an int, and float() of it
        # raises OverflowError
        big = 10**400
        raw = config_dict()
        cells = {f"{a}|{b}": 0.3 for a in "123" for b in "123"}
        if site == "z":
            raw["data"][3]["z"] = big
        elif site == "constant":
            raw["scaling"]["constant"] = big
        elif site in ("cell", "tensor"):
            cells["2|3"] = big if site == "cell" else [[0.1, 0.1, 0.1], [0.1, big, 0.1], [0.1] * 3]
            raw["scaling"] = {"cells": cells}
        else:
            raw["gasket1"] = [[0, 0], [big, 0], [0, 1]]
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 7
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert len([line for line in out.err.splitlines() if line.startswith("error:")]) == 1

    @pytest.mark.parametrize(
        "site, value",
        [
            ("z", "0.5"),
            ("z", True),
            ("constant", "0.3"),
            ("constant", True),
            ("cell", "0.2"),
            ("cell", False),
            ("tensor", "0.1"),
            ("tensor", True),
            ("corner", "1"),
            ("corner", True),
        ],
    )
    def test_string_or_bool_for_a_number_exit_code(self, tmp_path, capsys, site, value):
        # float() reads "0.5" and True: JSON numbers only
        raw = config_dict()
        cells = {f"{a}|{b}": 0.3 for a in "123" for b in "123"}
        if site == "z":
            raw["data"][3]["z"] = value
        elif site == "constant":
            raw["scaling"]["constant"] = value
        elif site in ("cell", "tensor"):
            cells["2|3"] = value if site == "cell" else [[0.1] * 3, [0.1, value, 0.1], [0.1] * 3]
            raw["scaling"] = {"cells": cells}
        else:
            raw["gasket1"] = [[0, 0], [value, 0], [0, 1]]
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 7
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        errors = [line for line in out.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].endswith(f"must be a number, not {value!r}")

    @pytest.mark.parametrize("corner", [{}, {"x": 0}, "10", 5, None, [1.0, 0.0, 0.0], [1.0]])
    def test_corner_that_is_no_pair_exit_code(self, tmp_path, capsys, corner):
        # an object as a corner raised KeyError through to a traceback, and
        # a third coordinate was dropped unread
        raw = config_dict()
        raw["gasket1"] = [[0, 0], corner, [0, 1]]
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 7
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        errors = [line for line in out.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: gasket1: ")

    @pytest.mark.parametrize("n", [1.5, 1.0, True, "1", None, [1]])
    def test_n_that_is_no_json_integer_exit_code(self, tmp_path, capsys, n):
        raw = config_dict()
        raw["n"] = n
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 7
        assert "error: 'n' must be an integer" in capsys.readouterr().err

    def test_malformed_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["build", "-c", str(path)]) == 7

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["build", "-c", str(tmp_path / "nope.json")]) == 7

    def test_scaling_cells_not_an_object(self, tmp_path, capsys):
        raw = config_dict()
        raw["scaling"] = {"cells": [0.3, 0.3]}
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 7
        assert "scaling.cells" in capsys.readouterr().err

    def test_scaling_cell_not_a_number(self, tmp_path):
        raw = config_dict()
        raw["scaling"] = {"cells": {"1|1": "x"}}
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 7

    @pytest.mark.parametrize("verb", ["build", "check"])
    def test_unknown_scaling_key_exit_code(self, tmp_path, capsys, verb):
        # the nine cell-pairs of N=1 and two keys that name none of them
        raw = config_dict()
        cells = {f"{a}|{b}": 0.3 for a in "123" for b in "123"}
        raw["scaling"] = {"cells": {**cells, "4|1": 5.0, "12|3": 0.99}}
        assert main([verb, "-c", write_config(tmp_path, raw)]) == 2
        out = capsys.readouterr()
        assert "scaling key 4|1 is not a cell-pair of length 1" in out.err
        assert out.out == ""

    def test_depth_above_enumeration_limit(self, tmp_path, capsys):
        # refused before the 9^n-entry scaling field is built
        raw = config_dict()
        raw["n"] = 9
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 5
        assert "N=9" in capsys.readouterr().err

    def test_negative_depth(self, tmp_path):
        raw = config_dict()
        raw["n"] = -1
        assert main(["build", "-c", write_config(tmp_path, raw)]) == 2

    def test_custom_gaskets(self, tmp_path, capsys):
        raw = config_dict()
        raw["gasket1"] = [[0, 0], [2, 0], [1, 1.8]]
        raw["gasket2"] = [[0, 0], [1, 0], [0.5, 0.9]]
        cfg = write_config(tmp_path, raw)
        assert main(["build", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert float(out.split("alphaSup=")[1].splitlines()[0]) == 0.3


class TestEval:
    def test_address_at_data_vertex(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        assert main(["eval", "-c", cfg, "--address", "1@2", "1@2"]) == 0
        assert "= 0.5" in capsys.readouterr().out

    def test_point_with_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        code = main(
            ["eval", "-c", cfg, "--point", "0.25", "0", "0.5", "0", "--depth", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "errorBound" in out

    def test_point_n3_default_depth(self, tmp_path, capsys):
        # 12 blocks of 3 letters: 36 letters, within the descent limit
        cfg = write_config(tmp_path, config_dict(n=3))
        assert main(["eval", "-c", cfg, "--point", "0.3", "0", "0.25", "0"]) == 0
        assert "errorBound" in capsys.readouterr().out

    def test_point_beyond_descent_limit(self, tmp_path):
        cfg = write_config(tmp_path, config_dict(n=3))
        code = main(["eval", "-c", cfg, "--point", "0.3", "0", "0.25", "0", "--depth", "15"])
        assert code == 6

    def test_point_outside_domain(self, tmp_path):
        cfg = write_config(tmp_path, config_dict())
        assert main(["eval", "-c", cfg, "--point", "9", "9", "0", "0"]) == 4

    @pytest.mark.parametrize(
        "point, code",
        [
            # the centroid of the unit triangle, a hole, on both factors
            (["0.5", "0.28867513459481287"] * 2, 4),
            # a touching point of two cells on both factors
            (["0.5", "0"] * 2, 0),
        ],
    )
    def test_point_exit_codes(self, tmp_path, capsys, point, code):
        cfg = write_config(tmp_path, config_dict())
        assert main(["eval", "-c", cfg, "--point", *point]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert main(["eval", "-c", cfg, "--point", *point, "--depth", "45"]) == 6

    def test_neither_selector(self, tmp_path):
        cfg = write_config(tmp_path, config_dict())
        assert main(["eval", "-c", cfg]) == 6

    @pytest.mark.parametrize(
        "address",
        [
            ["14@3", "1@2"],  # a letter outside 1..3
            ["1@x", "1@2"],  # a corner that is no integer
            ["1@2", "1@4"],  # a corner outside 1..3
            ["1@2", "12"],  # no corner at all
            ["1@2", "1@"],
        ],
    )
    def test_malformed_address_exit_code(self, tmp_path, capsys, address):
        cfg = write_config(tmp_path, config_dict())
        assert main(["eval", "-c", cfg, "--address", *address]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if not line.startswith("# run")]
        assert len(errors) == 1 and errors[0].startswith("error: ")

    def test_negative_exponent_form_reaches_the_evaluator(self, tmp_path, capsys):
        # just below the base edge: the same refusal as the plain decimal form
        cfg = write_config(tmp_path, config_dict())
        for y in ("-1e-10", "-0.0000000001"):
            assert main(["eval", "-c", cfg, "--point", "0.25", y, "0.25", "0"]) == 4
            err = capsys.readouterr().err
            assert "not on the gasket at depth 1" in err and "Traceback" not in err
        # -0e0 is -0.0, on the gasket, in every position
        outs = []
        for zero in ("-0.0", "-0e0", "-0E+00"):
            assert main(["eval", "-c", cfg, "--point", "0.5", zero, "0.5", zero]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "-c", "model.json", "--bogus"], "unrecognized arguments: --bogus"),
            (["eval", "--point", "0", "0", "0", "0"], "the following arguments are required"),
            (["grid", "-c", "model.json", "--depth", "x", "-o", "a.csv"], "invalid int value"),
            (["eval", "-c", "model.json", "--point", "0", "0"], "expected 4 arguments"),
            (["nope"], "invalid choice"),
            ([], "the following arguments are required"),
        ],
    )
    def test_exit_6_with_the_message_on_stderr(self, capsys, argv, message):
        # 2 is the code of config validation errors
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: gasketfif") and ": error: " in err and message in err

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"], ["check", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gasketfif")


class TestGrid:
    def test_depth_one_row_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "g.csv"
        assert main(["grid", "-c", cfg, "--depth", "1", "-o", str(out)]) == 0
        assert "wrote 36 rows" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 37
        assert lines[0] == "t_x,t_y,s_x,s_y,f"

    def test_depth_two_row_count(self, tmp_path):
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "g.csv"
        assert main(["grid", "-c", cfg, "--depth", "2", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 226

    def test_values_roundtrip_exactly(self, tmp_path, ref03):
        # 17-digit output must reproduce the evaluator bit for bit
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "g.csv"
        main(["grid", "-c", cfg, "--depth", "1", "-o", str(out)])
        verts = gf.enumerate_vertices(1)
        rows = out.read_text().splitlines()[1:]
        k = 0
        for a in verts:
            for b in verts:
                got = float(rows[k].split(",")[4])
                assert got == eval_exact(ref03, a, b)
                k += 1

    def test_ppm_output(self, tmp_path):
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "g.csv"
        ppm = tmp_path / "g.ppm"
        code = main(
            ["grid", "-c", cfg, "--depth", "1", "-o", str(out), "--ppm", str(ppm)]
        )
        assert code == 0
        blob = ppm.read_bytes()
        assert blob.startswith(b"P6\n6 6\n255\n")
        assert len(blob) == len(b"P6\n6 6\n255\n") + 6 * 6 * 3

    def test_bad_depth(self, tmp_path):
        cfg = write_config(tmp_path, config_dict())
        assert main(["grid", "-c", cfg, "--depth", "0", "-o", "x.csv"]) == 6

    def test_runs_without_the_scalar_evaluator(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid must not call eval_exact")

        monkeypatch.setattr(evaluator, "eval_exact", refuse)
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "g.csv"
        assert main(["grid", "-c", cfg, "--depth", "2", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 226

    @pytest.mark.parametrize("n", [1, 2])
    def test_rows_match_scalar_oracle_on_skewed_gaskets(self, tmp_path, n):
        corners1, corners2 = SKEWED
        ds = gf.random_dataset(n, 11 + n)
        raw = config_dict(n=n, data=[
            {"first": str(k.first), "second": str(k.second), "z": z}
            for k, z in ds.entries.items()
        ])
        raw["gasket1"], raw["gasket2"] = corners1, corners2
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "g.csv"
        assert main(["grid", "-c", cfg, "--depth", "4", "-o", str(out)]) == 0
        model = build_from_config(cfg)
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        # rows run over enumerate_vertices pairs, the first factor outside
        verts = gf.enumerate_vertices(4)
        nv = len(verts)
        assert rows.shape == (nv * nv, 5)
        (lt, ct), (a, b) = address_letters(verts), np.divmod(np.arange(nv * nv), nv)
        exact = eval_exact(model, (lt[a], ct[a]), (lt[b], ct[b]))
        assert np.all(np.abs(rows[:, 4] - exact) <= 1e-14 * (1.0 + np.abs(exact)))
        pts1 = np.array([gf.address_point(model.gasket1, a) for a in verts])
        pts2 = np.array([gf.address_point(model.gasket2, b) for b in verts])
        assert np.max(np.abs(rows[:, 0:2] - np.repeat(pts1, nv, axis=0))) <= 1e-14 * np.max(
            np.abs(corners1)
        )
        assert np.max(np.abs(rows[:, 2:4] - np.tile(pts2, (nv, 1)))) <= 1e-14 * np.max(
            np.abs(corners2)
        )

    @pytest.mark.parametrize(
        "n, depth, case",
        [(1, 4, "unit"), (2, 3, "unit"), (1, 4, "skewed"), (2, 4, "skewed"), (1, 4, "mixed")],
    )
    def test_csv_bytes_equal_percent_text(self, tmp_path, n, depth, case):
        # the coordinates' slots, filled once and gathered by row, and the
        # values formatted per row write what '%' writes row by row
        raw = random_config(n, 11 + n, 0.3)
        if case == "skewed":
            raw["gasket1"], raw["gasket2"] = SKEWED
        elif case == "mixed":
            tensor = [[0.1, -0.2, 0.3], [0.2, 0.1, -0.1], [0.0, 0.25, 0.15]]
            raw["scaling"] = {"cells": {
                f"{a}|{b}": tensor if a == b else 0.2 for a in "123" for b in "123"
            }}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "g.csv"
        assert main(["grid", "-c", cfg, "--depth", str(depth), "-o", str(out)]) == 0
        assert out.read_bytes() == grid_csv_oracle(build_from_config(cfg), depth)

    def test_depth_not_a_multiple_of_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path, random_config(2, 0, 0.2))
        out = tmp_path / "g.csv"
        assert main(["grid", "-c", cfg, "--depth", "3", "-o", str(out)]) == 0
        assert "wrote 1764 rows" in capsys.readouterr().out
        model = build_from_config(cfg)
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        verts = gf.enumerate_vertices(3)
        exact = np.array([eval_exact(model, a, b) for a in verts for b in verts])
        assert np.all(np.abs(rows[:, 4] - exact) <= 1e-14 * (1.0 + np.abs(exact)))

    def test_depth_below_n_writes_the_data(self, tmp_path):
        cfg = write_config(tmp_path, random_config(2, 0, 0.2))
        out = tmp_path / "g.csv"
        assert main(["grid", "-c", cfg, "--depth", "1", "-o", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        data = gf.random_dataset(2, 0).entries
        verts = gf.enumerate_vertices(1)
        # L_w(p_c) = L_wc(p_c) names the same vertex at level 2
        deep = [gf.canonicalize(gf.Address(a.word + str(a.corner), a.corner)) for a in verts]
        want = [data[gf.ProductVertex(a, b)] for a in deep for b in deep]
        assert rows[:, 4].tolist() == want

    def test_depth_beyond_enumeration_refused_before_building(self, tmp_path):
        cfg = write_config(tmp_path, config_dict())
        tracemalloc.start()
        try:
            code = main(["grid", "-c", cfg, "--depth", "9", "-o", str(tmp_path / "g.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 5
        assert peak < 2**20
        assert not (tmp_path / "g.csv").exists()


class TestChaos:
    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, config_dict())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code = main(
                ["chaos", "-c", cfg, "--points", "500", "--seed", "42", "-o", str(out)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 501

    def test_bad_count(self, tmp_path):
        cfg = write_config(tmp_path, config_dict())
        assert main(["chaos", "-c", cfg, "--points", "0", "-o", "x.csv"]) == 6

    def test_count_over_the_byte_budget(self, tmp_path, capsys):
        # 146 TiB of sample arrays used to reach numpy as a MemoryError
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "c.csv"
        assert main(["chaos", "-c", cfg, "--points", "10000000000000", "-o", str(out)]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            "error: 10000000000000 chaos samples need 400000000000000 bytes, over 268435456"
        ]
        assert not out.exists()

    def test_run_line_lists_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "c.csv"
        assert main(["chaos", "-c", cfg, "--points", "50", "-o", str(out)]) == 0
        run_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert run_line.startswith("# run command=chaos")
        assert f"outputs=[{out}]" in run_line


class TestDim:
    def test_subcritical_sandwich(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        code = main(["dim", "-c", cfg, "--min-level", "2", "--max-level", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sandwich: PASS" in out
        assert "level,delta,count" in out

    def test_supercritical_warns_without_bounds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict(alpha=0.6))
        code = main(["dim", "-c", cfg, "--min-level", "2", "--max-level", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert "sandwich" not in out

    def test_refused_over_the_byte_budget(self, tmp_path):
        # a million samples per cell refine level 2 to the depth-8 grid
        cfg = write_config(tmp_path, config_dict())
        argv = ["dim", "-c", cfg, "--min-level", "2", "--max-level", "4",
                "--samples-per-cell", "1000000"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 5
        assert peak < 2**20

    def test_refused_run_writes_nothing_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, random_config(2, 0, 0.2))
        argv = ["dim", "-c", cfg, "--min-level", "2", "--max-level", "4",
                "--samples-per-cell", "1000000"]
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bytes" in captured.err

    def test_count_past_int64_refused(self, tmp_path, capsys):
        # data of 1e300: every stack of boxes passes int64, where the sum
        # used to wrap to a negative count and fail in log()
        data = [
            {"first": str(k.first), "second": str(k.second), "z": z}
            for k, z in gf.random_dataset(1, 0, scale=1e300).entries.items()
        ]
        cfg = write_config(tmp_path, config_dict(data=data))
        assert main(["dim", "-c", cfg, "--min-level", "2", "--max-level", "5"]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == ["error: the level 2 box count does not fit in 64 bits"]

    def test_too_few_levels(self, tmp_path):
        cfg = write_config(tmp_path, config_dict())
        assert main(["dim", "-c", cfg, "--min-level", "2", "--max-level", "3"]) == 6


class TestHolder:
    def test_subcritical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        code = main(["holder", "-c", cfg, "--min-level", "3", "--max-level", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "case = 1" in out
        assert "one-sided verdict: PASS" in out

    def test_zero_data_degenerate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict(data=zero_data()))
        code = main(["holder", "-c", cfg, "--min-level", "2", "--max-level", "4"])
        assert code == 0
        assert "inf" in capsys.readouterr().out

    def test_two_levels(self, tmp_path, capsys):
        # two points lie on their line: a zero standard error, not n - 2 = 0
        # in a denominator
        cfg = write_config(tmp_path, random_config(1, 1, 0.3))
        code = main(["holder", "-c", cfg, "--min-level", "3", "--max-level", "4"])
        assert code == 0
        assert "empiricalExponent = 0.925689 +- 0.000000" in capsys.readouterr().out


def spy_factor_grids(monkeypatch) -> list:
    """The depths of the FactorGrids built from now on, in order."""
    built = []
    init = grids.FactorGrid.__init__

    def spy(fg, depth):
        built.append(depth)
        init(fg, depth)

    monkeypatch.setattr(grids.FactorGrid, "__init__", spy)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ["build"],
        ["check"],
        ["eval", "--address", "1@2", "2@3"],
        ["eval", "--point", "0.25", "0", "0.5", "0"],
        ["grid", "--depth", "3", "-o", "{tmp}/grid.csv"],
        ["chaos", "--points", "100", "-o", "{tmp}/chaos.csv"],
        ["dim", "--min-level", "2", "--max-level", "5"],
        ["holder", "--min-level", "2", "--max-level", "5"],
    ],
    ids=["build", "check", "eval-address", "eval-point", "grid", "chaos", "dim", "holder"],
)
def test_every_verb_builds_the_data_grid_once(tmp_path, capsys, monkeypatch, argv):
    # FactorGrid(1) is the data set's grid, read by build_model,
    # check_compatibility and check; a verb's deeper grids are its own
    cfg = write_config(tmp_path, config_dict(n=1))
    built = spy_factor_grids(monkeypatch)
    main([argv[0], "-c", cfg] + [a.format(tmp=tmp_path) for a in argv[1:]])
    capsys.readouterr()
    assert built.count(1) == 1 and built[0] == 1


class TestCheck:
    def test_valid_model_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        assert main(["check", "-c", cfg]) == 0
        out = capsys.readouterr().out
        for name in (
            "compatibility",
            "interpolation",
            "functional-equation",
            "boundary-vanishing",
            "contraction",
        ):
            assert f"PASS {name}" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("n", [1, 2])
    def test_contraction_test_builds_one_grid(self, tmp_path, capsys, monkeypatch, n):
        # its ten grid functions share one FactorGrid(N): the data set's,
        # the only grid the whole run builds
        cfg = write_config(tmp_path, config_dict(n=n))
        built = spy_factor_grids(monkeypatch)
        assert main(["check", "-c", cfg]) == 0
        assert "PASS contraction" in capsys.readouterr().out
        assert built == [n]

    def test_corrupted_model_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        assert main(["check", "-c", cfg, "--corrupt", "1|2|2|1|0.1"]) == 1
        assert "FAIL compatibility" in capsys.readouterr().out

    def test_junction_off_by_1e_6_fails(self, tmp_path, capsys):
        # far above the round-off of a built model, which reads 0
        cfg = write_config(tmp_path, config_dict())
        assert main(["check", "-c", cfg, "--corrupt", "1|2|2|1|1e-6"]) == 1
        assert "FAIL compatibility (max discrepancy 1.000e-06" in capsys.readouterr().out

    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
    def test_non_finite_corner_fails(self, tmp_path, capsys, delta):
        # a NaN is never > tol and max() drops it: each line must test <= tol
        cfg = write_config(tmp_path, config_dict())
        assert main(["check", "-c", cfg, "--corrupt", f"1|2|2|1|{delta}"]) == 1
        assert "FAIL compatibility" in capsys.readouterr().out

    @pytest.mark.parametrize("corner", ["0|1", "4|1", "-1|1", "1|0", "1|4", "1|-1"])
    def test_corner_out_of_range_is_a_usage_error(self, tmp_path, capsys, corner):
        # 0 and -1 would index a corner from the end, 4 past it
        cfg = write_config(tmp_path, config_dict())
        assert main(["check", "-c", cfg, "--corrupt", f"1|2|{corner}|0.1"]) == 6
        err = capsys.readouterr().err
        assert "bad --corrupt spec" in err and "Traceback" not in err

    def test_non_finite_corner_warns_nothing(self, tmp_path):
        # 0 * inf is NaN in the bilinear forms; the FAIL lines report it
        cfg = write_config(tmp_path, config_dict())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "-c", cfg, "--corrupt", "1|2|2|1|inf"]) == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_functional_equation_exact_on_a_far_skinny_gasket(self, tmp_path, capsys, n):
        # both sides come from exact barycentrics, so the residual is the
        # recursion's alone; a round trip through these plane points gave
        # about 1e-11.  The lines are those of the scalar loops, as in
        # test_lines_equal_the_scalar_loops, on this moved gasket too
        raw = random_config(n, 0, 0.3)
        raw["gasket1"] = [[1000.15625, -1000], [997.375, -997.25], [1000, -999]]
        cfg = write_config(tmp_path, raw)
        assert main(["check", "-c", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        line = next(x for x in lines if "functional-equation" in x)
        assert float(re.search(r"residual (\S+)\)", line).group(1)) <= 1e-14
        assert lines[1:4] == check_lines_oracle(build_from_config(cfg))


    @pytest.mark.parametrize("n", [1, 2])
    def test_evaluates_in_five_array_calls(self, tmp_path, capsys, monkeypatch, n):
        # interpolation on every vertex pair; both sides of the functional
        # equation at 200 pairs; f next to a corner, on either side, at 100
        sizes = []
        exact = evaluator._exact
        monkeypatch.setattr(
            evaluator, "_exact", lambda m, t, s: sizes.append(len(t[1])) or exact(m, t, s)
        )
        assert main(["check", "-c", write_config(tmp_path, random_config(n, 0, 0.3))]) == 0
        nv = gf.gasket.vertex_count(n)
        assert sizes == [nv * nv, 200, 200, 100, 100]

    @pytest.mark.parametrize(
        "n, scaling, corrupt",
        [
            (1, 0.3, None),
            (2, -0.3, None),
            (3, 0.05, None),
            (2, "mixed", None),
            (1, 0.3, "1|2|2|1|0.1"),
            # a shift corner at p1 moved: f no longer vanishes next to the
            # gasket corner, so the boundary line reads the drawn pairs
            (1, 0.3, "1|2|1|1|0.1"),
            (2, 0.2, "11|23|2|1|nan"),
            (1, "mixed", "1|2|2|1|inf"),
            (2, "mixed", "22|13|1|3|-1e-3"),
        ],
    )
    def test_lines_equal_the_scalar_loops(self, tmp_path, capsys, n, scaling, corrupt):
        raw = random_config(n, 3, 0.3)
        if scaling == "mixed":
            rng = np.random.default_rng(n)
            words = gf.gasket.words_of_length(n)
            raw["scaling"] = {"cells": {
                f"{a}|{b}": rng.uniform(-0.3, 0.3, (3, 3)).tolist() if a[0] == b[0] else -0.2
                for a in words for b in words
            }}
        else:
            raw["scaling"]["constant"] = scaling
        cfg = write_config(tmp_path, raw)
        main(["check", "-c", cfg] + (["--corrupt", corrupt] if corrupt else []))
        lines = capsys.readouterr().out.splitlines()
        model = build_from_config(cfg)
        if corrupt:
            omega, eta, i, j, delta = corrupt.split("|")
            model = gf.perturb_shift(model, omega, eta, int(i), int(j), float(delta))
        with np.errstate(invalid="ignore", over="ignore"):
            assert lines[1:4] == check_lines_oracle(model)

    @pytest.mark.parametrize("n", [1, 2])
    def test_draws_each_field_in_one_call(self, tmp_path, monkeypatch, n):
        # the 200 and 100 random samples cost no Generator call each: one
        # call per field, then two per contraction trial
        cfg = write_config(tmp_path, random_config(n, 0, 0.3))
        calls = []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                method = getattr(self.rng, name)
                return lambda *a, **k: calls.append(name) or method(*a, **k)

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: Counting(default_rng(*a)))
        assert main(["check", "-c", cfg]) == 0
        assert calls == ["integers"] * 6 + ["standard_normal"] * 10


def error_lines(err: str) -> list:
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


class TestRefusedArguments:
    """Arguments that used to end in a traceback with exit 1: each exits
    with a code of the --help epilog and one error line."""

    @pytest.mark.parametrize(
        "verb",
        [
            ["grid", "--depth", "5000", "-o", "g.csv"],
            ["grid", "--depth", "100000000000", "-o", "g.csv"],
            ["dim", "--min-level", "2", "--max-level", "1000000"],
            ["dim", "--min-level", "2", "--max-level", "100000000000"],
            ["holder", "--min-level", "2", "--max-level", "1000000"],
            ["holder", "--min-level", "2", "--max-level", "100000000000"],
        ],
    )
    def test_over_deep_refused_before_any_work(self, tmp_path, capsys, monkeypatch, verb):
        # V(depth) is past Python's 4300-digit limit for formatting, 3^depth
        # takes minutes, and a list of the levels may not fit in memory
        cfg = write_config(tmp_path, random_config(1, 0, 0.3))
        monkeypatch.chdir(tmp_path)
        tracemalloc.start()
        try:
            code = main([verb[0], "-c", cfg, *verb[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 5
        assert peak < 2**20
        captured = capsys.readouterr()
        err = error_lines(captured.err)
        assert len(err) == 1 and "depth 7 is the deepest that fits" in err[0]
        assert captured.out == ""
        assert not (tmp_path / "g.csv").exists()

    def test_negative_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "c.csv"
        assert main(["chaos", "-c", cfg, "--points", "10", "--seed", "-1", "-o", str(out)]) == 6
        assert error_lines(capsys.readouterr().err) == ["error: seed must be non-negative"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb",
        [
            ["chaos", "--points", "10", "-o", "missing/x.csv"],
            ["grid", "--depth", "1", "-o", "missing/x.csv"],
            ["grid", "--depth", "1", "-o", "g.csv", "--ppm", "missing/x.ppm"],
        ],
    )
    def test_output_in_a_missing_directory(self, tmp_path, capsys, monkeypatch, verb):
        cfg = write_config(tmp_path, config_dict())
        monkeypatch.chdir(tmp_path)
        assert main([verb[0], "-c", cfg, *verb[1:]]) == 6
        err = error_lines(capsys.readouterr().err)
        assert err == [f"error: cannot write missing/{verb[-1][8:]}: No such file or directory"]
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("existing", [None, b"old rows\n"], ids=["absent", "present"])
    def test_refused_ppm_leaves_no_csv(self, tmp_path, monkeypatch, existing):
        # both outputs are opened before either is written, and neither
        # temp is left behind
        cfg = write_config(tmp_path, config_dict())
        monkeypatch.chdir(tmp_path)
        if existing is not None:
            (tmp_path / "x.csv").write_bytes(existing)
        argv = ["grid", "-c", cfg, "--depth", "2", "-o", "x.csv", "--ppm", "missing/x.ppm"]
        assert main(argv) == 6
        left = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "model.json"}
        assert left == ({} if existing is None else {"x.csv": existing})

    @pytest.mark.parametrize(
        "n, spec, word",
        [
            (1, "12|1|1|1|0.5", "12"),
            (1, "4|1|1|1|0.5", "4"),
            (1, "|1|1|1|0.5", ""),
            (1, "1|12|1|1|0.5", "12"),
            (2, "1|11|1|1|0.5", "1"),
            (2, "11|1|1|1|0.5", "1"),
        ],
    )
    def test_corrupt_word_not_of_length_n(self, tmp_path, capsys, n, spec, word):
        # a wrong-length word must not name another row
        cfg = write_config(tmp_path, random_config(n, 0, 0.3))
        assert main(["check", "-c", cfg, "--corrupt", spec]) == 6
        captured = capsys.readouterr()
        assert error_lines(captured.err) == [f"error: bad --corrupt spec: {word!r}"]
        assert captured.out == ""


class TestParser:
    def test_built_once_per_process(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, config_dict())
        assert main(["build", "-c", cfg]) == 0
        made = []
        init = cli._Parser.__init__
        monkeypatch.setattr(
            cli._Parser, "__init__", lambda self, *a, **k: made.append(1) or init(self, *a, **k)
        )
        for argv in (["build", "-c", cfg], ["check", "-c", cfg], ["eval", "--help"]):
            try:
                main(argv)
            except SystemExit:
                pass
        assert made == []

    def test_dispatch_reaches_a_patched_verb(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, config_dict())
        assert main(["build", "-c", cfg]) == 0  # the parser exists before the patch
        seen = []
        monkeypatch.setattr(cli, "cmd_build", lambda args: seen.append(args.config) or 3)
        assert main(["build", "-c", cfg]) == 3
        assert seen == [cfg]


class TestColdStart:
    def test_cli_import_loads_nothing_but_numpy(self):
        # a fresh interpreter: the CLI may import the standard library and
        # numpy, and no heavy dependency that every run would pay for
        src = Path(gf.__file__).resolve().parents[1]
        code = (
            "import json, sys; before = set(sys.modules); import gasketfif.cli; "
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
        )
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        loaded = set(json.loads(out))
        assert "gasketfif" in loaded
        # _sysconfigdata_<platform> is the standard library's, unlisted
        extra = loaded - set(sys.stdlib_module_names) - {"gasketfif", "numpy"}
        assert not {m for m in extra if not m.startswith("_sysconfigdata")}


#: arbitrary JSON, as a malformed config may hold it: nested lists and
#: objects, strings, bools, null, huge integers, +-1e308 and the NaN and
#: Infinity literals that Python's json reads and writes
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([10**400, -(10**400), 1e308, -1e308, "0.5", "1@2", "@1", 0, -0.0, 0.99]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _config_fields(raw):
    """The paths of a config's fields, the root's keys and every nested
    list entry and object value below them, data entries only as far as
    the first three."""
    paths = []

    def walk(node, path):
        paths.append(path)
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (key,))
        elif isinstance(node, list):
            for i, value in enumerate(node[:3]):
                walk(value, path + (i,))

    for key, value in raw.items():
        walk(value, (key,))
    return paths + [("scaling", "constant"), ("unknown",)]


def _fuzz_bases():
    corners = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]]
    constant = random_config(1, 0, 0.3)
    constant["gasket2"] = corners
    cells = random_config(1, 1, 0.3)
    cells["gasket1"] = corners
    tensor = [[0.1, -0.2, 0.3], [0.2, 0.1, -0.1], [0.0, 0.25, 0.15]]
    cells["scaling"] = {"cells": {f"{a}|{b}": tensor if a == b else 0.2 for a in "123" for b in "123"}}
    return constant, cells


FUZZ_BASES = _fuzz_bases()


class TestConfigFuzz:
    """One field of a valid N=1 config replaced with arbitrary JSON: build,
    grid and check exit with a documented code and never a traceback; a
    refusal prints one error line, and a refused build nothing on stdout."""

    @settings(max_examples=150, deadline=None)
    @given(base=st.sampled_from(FUZZ_BASES), data=st.data(), value=json_values)
    def test_any_field_any_json(self, tmp_path_factory, base, data, value):
        raw = json.loads(json.dumps(base))
        path = data.draw(st.sampled_from(_config_fields(raw)), label="path")
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        folder = tmp_path_factory.mktemp("fuzz")
        cfg = write_config(folder, raw)
        for verb in (["build"], ["grid", "--depth", "2", "-o", str(folder / "g.csv")], ["check"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*verb, "-c", cfg])
            assert 0 <= code <= 7
            assert "Traceback" not in err.getvalue()
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert len(errors) == (code >= 2)
            if verb == ["build"] and code >= 2:
                assert out.getvalue() == ""
