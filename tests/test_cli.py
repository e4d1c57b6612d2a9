import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import oracle
from graphsteering import (
    Bipartition,
    cli,
    cloner,
    dirichlet_gamma,
    disturbance_entropy,
    graphstate,
    make_star,
    noise_threshold,
    shared_information,
)
from graphsteering import verify as verify_module
from graphsteering.cli import (
    FIG4_BYTES_PER_ROW,
    GRAPH_BYTES_PER_ELEMENT,
    MEMORY_LIMIT_BYTES,
    NOSHARING_BYTES_PER_ENTRY,
    QSS_BYTES_PER_ROUND,
    TABLE_BYTES_PER_ENTRY,
    main,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


class Reached(Exception):
    """Raised by a patched stage to show that a command got past its size bound."""


def reached(*args, **kwargs):
    raise Reached


def patch_package(monkeypatch, names):
    """Make each named function raise in every graphsteering module namespace that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "graphsteering" or name.startswith("graphsteering."):
            for attr in names:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, reached)


# An odd cycle, and a cut that no edge crosses: the refusals every command keeps.
REFUSALS = [
    ('{"n": 3, "d": 2, "edges": [[1, 2], [2, 3], [3, 1]]}', "1", 2, "NotTwoColorable"),
    ('{"n": 4, "d": 3, "edges": [[1, 2], [3, 4]]}', "1,2", 3, "NoCorrelationForm"),
]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def star3_file(tmp_path):
    path = tmp_path / "star3.json"
    path.write_text('{"n":3,"d":2,"edges":[[1,2],[1,3]]}')
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text('{"n":3,"d":2,"edges":[[1,2],[2,3],[3,1]]}')
    return str(path)


# VmHWM, not ru_maxrss: Linux starts a child's ru_maxrss at its parent's peak RSS.
CHILD = (
    "import sys\n"
    "from graphsteering.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "finally:\n"
    "    status = open('/proc/self/status').read()\n"
    "    print(*(status.split(key)[1].split()[0] for key in ('VmHWM:', 'VmPeak:')), file=sys.stderr)\n"
)


def run_child(args, address_space=None):
    """One command in a fresh interpreter, stdout discarded; its stderr ends with its peak RSS and VM.

    With ``address_space``, the child's RLIMIT_AS is set to that many bytes
    before it starts.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-c", CHILD, *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, preexec_fn=limit if address_space else None,
    )


def peaks(proc):
    """(peak RSS, peak VM) of a finished child, in bytes: it reports both in KiB on Linux."""
    return [int(kib) * 1024 for kib in proc.stderr.split()[-2:]]


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return manifest, header, rows


class TestCertify:
    def test_ideal_star3(self, runner, star3_file):
        res = runner.invoke(main, ["certify", star3_file, "--partition", "1", "--p", "0"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert abs(payload["i_total"] - 2.0) < 1e-9
        assert payload["steerable"] is True
        assert payload["manifest"]["command"] == "certify"

    def test_fully_noisy_not_steerable(self, runner, star3_file):
        res = runner.invoke(main, ["certify", star3_file, "--p", "1"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert abs(payload["i_total"]) < 1e-9
        assert payload["steerable"] is False

    def test_triangle_exit_2(self, runner, triangle_file):
        res = runner.invoke(main, ["certify", triangle_file])
        assert res.exit_code == 2
        assert "NotTwoColorable" in res.stderr

    def test_malformed_file_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = runner.invoke(main, ["certify", str(bad)])
        assert res.exit_code == 2

    def test_missing_file_exit_2(self, runner):
        res = runner.invoke(main, ["certify", "/nonexistent/graph.json"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: FileNotFoundError")

    def test_odd_cycle_refused_before_state_build(self, runner, tmp_path, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("state built for a graph that has no settings")

        monkeypatch.setattr(graphstate, "build_graph_state", must_not_run)
        path = tmp_path / "cycle21.json"
        path.write_text(json.dumps({"n": 21, "d": 2, "edges": [[k, k % 21 + 1] for k in range(1, 22)]}))
        res = runner.invoke(main, ["certify", str(path)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: NotTwoColorable")

    def test_bad_partition_exit_2(self, runner, star3_file):
        res = runner.invoke(main, ["certify", star3_file, "--partition", "1,2,3"])
        assert res.exit_code == 2

    def test_bad_noise_exit_2(self, runner, star3_file):
        res = runner.invoke(main, ["certify", star3_file, "--p", "1.5"])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"n": true, "d": 2, "edges": []}', "field 'n'"),
            ('{"n": 3, "d": 2, "edges": [[true, 2], [1, 3]]}', "edges[0]"),
        ],
    )
    def test_boolean_field_exit_2(self, runner, tmp_path, text, field):
        path = tmp_path / "bool.json"
        path.write_text(text)
        res = runner.invoke(main, ["certify", str(path)])
        assert res.exit_code == 2
        assert field in res.stderr

    def test_oversized_register_exit_2(self, runner, tmp_path):
        # a 2^64-amplitude state vector: no command builds one, so star(64) is certified
        path = tmp_path / "star64.json"
        path.write_text(json.dumps({"n": 64, "d": 2, "edges": [[1, k] for k in range(2, 65)]}))
        res = runner.invoke(main, ["certify", str(path)])
        assert res.exit_code == 0
        assert abs(json.loads(res.output)["i_total"] - 2.0) < 1e-9

    def test_long_register_refused_before_partition(self, runner, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 100000000, "d": 2, "edges": [[1, 2]]}')
        res = runner.invoke(main, ["certify", str(path)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: graph n + |E| 100000001 needs")

    @pytest.mark.parametrize(
        "doc, partition",
        [
            # for m=2 a product element here has surjective forms and I = 0
            ('{"n": 7, "d": %d, "edges": [[1, 2], [1, 4], [1, 5], [1, 7], [2, 3], [5, 6]]}', "4,5,6,7"),
            # a Bell pair across the cut, and one idle qudit on each side
            ('{"n": 4, "d": %d, "edges": [[3, 4]]}', "1,3"),
        ],
    )
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_informative_forms(self, runner, tmp_path, doc, partition, d):
        path = tmp_path / "g.json"
        path.write_text(doc % d)
        res = runner.invoke(main, ["certify", str(path), "--partition", partition, "--p", "0"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert abs(payload["i_total"] - 2 * np.log2(d)) < 1e-9
        assert payload["steerable"] is True

    @pytest.mark.parametrize(
        "doc, partition, reason",
        [
            ('{"n": 2, "d": 3, "edges": []}', "1", "no Fourier-measured vertex has a neighbour"),
            # vertex 3 is isolated, so no edge crosses the cut
            ('{"n": 3, "d": 2, "edges": [[1, 2]]}', "3", "no edge crosses"),
            # each edge lies inside one side: the state is a product across the cut
            ('{"n": 4, "d": 2, "edges": [[1, 2], [3, 4]]}', "1,2", "no edge crosses"),
        ],
    )
    def test_no_correlation_form_exit_3(self, runner, tmp_path, doc, partition, reason):
        path = tmp_path / "g.json"
        path.write_text(doc)
        res = runner.invoke(main, ["certify", str(path), "--partition", partition])
        assert res.exit_code == 3
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: NoCorrelationForm")
        assert reason in lines[0]

    def test_csv_format(self, runner, star3_file):
        res = runner.invoke(main, ["certify", star3_file, "--format", "csv"])
        assert res.exit_code == 0
        manifest, header, rows = parse_csv(res.output)
        assert header == [
            "i_setting_1", "i_setting_2", "i_total", "threshold", "steerable", "margin",
        ]
        assert len(rows) == 1
        assert abs(float(rows[0][2]) - 2.0) < 1e-9

    def test_json_keys_in_report_order(self, runner, star3_file):
        res = runner.invoke(main, ["certify", star3_file])
        assert list(json.loads(res.output)) == [
            "i_per_setting", "i_total", "threshold", "steerable", "margin", "manifest",
        ]

    @pytest.mark.parametrize("p, row", [
        ("0", "1.0,1.0,2.0,1.0,True,1.0"),
        ("1", "0.0,0.0,0.0,1.0,False,-1.0"),
    ])
    def test_csv_row_text(self, runner, star3_file, p, row):
        res = runner.invoke(main, ["certify", star3_file, "--p", p, "--format", "csv"])
        assert res.output.splitlines()[2] == row

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_csv_is_the_json_record(self, runner, star3_file, p):
        # a field added to SteeringReport must reach both formats, in the record's order
        record = json.loads(runner.invoke(main, ["certify", star3_file, "--p", p]).output)
        fields = []
        for key, value in record.items():
            if key == "i_per_setting":
                fields += [("i_setting_1", value[0]), ("i_setting_2", value[1])]
            elif key != "manifest":
                fields.append((key, value))
        res = runner.invoke(main, ["certify", star3_file, "--p", p, "--format", "csv"])
        _, header, rows = parse_csv(res.output)
        assert header == [key for key, _ in fields]
        assert rows == [[str(value) for _, value in fields]]

    def test_out_file_written_atomically(self, runner, star3_file, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["certify", star3_file, "--out", str(out)])
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["i_total"] - 2.0) < 1e-9
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []


class TestOneTableModel:
    """Every command reads the Bell-diagonal closed form; the stabilizer DFT is left to verify and the tests."""

    @pytest.fixture(autouse=True)
    def dft_raises(self, monkeypatch):
        patch_package(monkeypatch, ("stabilizer_table", "characteristic_table"))

    @pytest.mark.parametrize("args", [
        ["certify", "STAR3", "--p", "0.1"],
        ["fig4", "--steps", "3"],
        ["fig5"],
        ["qss", "--rounds", "2000"],
        ["qss", "--rounds", "2000", "--disturbance", "0.1"],
    ])
    def test_commands_never_reach_the_dft(self, runner, star3_file, args):
        res = runner.invoke(main, [star3_file if a == "STAR3" else a for a in args])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("command", [["certify"], ["qss", "--rounds", "2000", "--graph-file"]])
    @pytest.mark.parametrize("doc, partition, code, error", REFUSALS)
    def test_refusals_unchanged(self, runner, tmp_path, command, doc, partition, code, error):
        path = tmp_path / "g.json"
        path.write_text(doc)
        res = runner.invoke(main, [*command, str(path), "--partition", partition])
        assert res.exit_code == code
        assert res.stderr.startswith(f"error: {error}")


class TestNoTableForTheInformation:
    """certify, fig4 and fig5 read the information in closed form; only qss builds d x d tables."""

    @pytest.fixture(autouse=True)
    def tables_raise(self, monkeypatch):
        patch_package(monkeypatch, ("pair_tables", "mutual_information", "mix_white_noise"))

    @pytest.mark.parametrize("args", [["certify", "STAR3", "--p", "0.1"], ["fig4", "--steps", "3"], ["fig5"]])
    def test_commands_build_no_table(self, runner, star3_file, args):
        res = runner.invoke(main, [star3_file if a == "STAR3" else a for a in args])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("doc, partition, code, error", REFUSALS)
    def test_refusals_unchanged(self, runner, tmp_path, doc, partition, code, error):
        path = tmp_path / "g.json"
        path.write_text(doc)
        res = runner.invoke(main, ["certify", str(path), "--partition", partition])
        assert res.exit_code == code
        assert res.stderr.startswith(f"error: {error}")


class TestNoGraphForTheCurves:
    """fig4 and fig5 are functions of d and p alone: they build, color and cut no graph."""

    @pytest.fixture(autouse=True)
    def graphs_raise(self, monkeypatch):
        patch_package(monkeypatch, ("make_star", "derive_both_settings", "two_color"))

    @pytest.mark.parametrize("args", [
        ["fig4", "--d", "2,3,5", "--steps", "21"],
        ["fig5", "--d", "2,3,5"],
    ])
    def test_curves_exit_0(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output


WIDE_DIMENSIONS = [1449, 10 ** 6, 2 ** 64 - 1]


class TestWideDimensions:
    """certify, fig4 and fig5 take any d below 2**64: they build no d x d table."""

    @pytest.mark.parametrize("d", WIDE_DIMENSIONS)
    def test_certify_closed_form(self, runner, tmp_path, d):
        p = 0.1
        res = runner.invoke(main, [*table_command("certify", d, tmp_path), "--p", str(p)])
        assert res.exit_code == 0, res.output
        D = p * (d - 1) / d
        h = -(1 - D) * math.log2(1 - D) - D * math.log2(D / (d - 1))
        assert abs(json.loads(res.output)["i_total"] - 2 * (math.log2(d) - h)) < 1e-9

    @pytest.mark.parametrize("d", WIDE_DIMENSIONS)
    def test_fig5_equals_noise_threshold(self, runner, d):
        res = runner.invoke(main, ["fig5", "--d", str(d)])
        assert res.exit_code == 0, res.output
        g = make_star(3)
        [[_, p_noise]] = parse_csv(res.output)[2]
        assert p_noise == repr(noise_threshold(g, d, Bipartition.from_side_a(g, {1})))

    @pytest.mark.parametrize("d", WIDE_DIMENSIONS)
    def test_fig4_rows(self, runner, d):
        res = runner.invoke(main, ["fig4", "--d", str(d), "--steps", "3"])
        assert res.exit_code == 0, res.output
        _, _, rows = parse_csv(res.output)
        assert float(rows[0][4]) == float(np.log2(d)) and float(rows[-1][4]) == 0.0


class TestOutPathErrors:
    """An unwritable --out exits 2 naming the given path, and leaves no temp file behind."""

    @pytest.mark.parametrize("command", [["certify", "STAR3"], ["fig4", "--steps", "3"], ["qss", "--rounds", "2000"]])
    @pytest.mark.parametrize("target", ["missing/out.txt", "existing-dir"])
    def test_message_names_the_path(self, runner, star3_file, tmp_path, command, target):
        (tmp_path / "existing-dir").mkdir()
        out = str(tmp_path / target)
        args = [star3_file if a == "STAR3" else a for a in command]
        res = runner.invoke(main, [*args, "--out", out])
        assert res.exit_code == 2
        assert out in res.stderr and ".tmp-" not in res.stderr
        leftovers = [p for p in tmp_path.rglob(".tmp-*")]
        assert leftovers == []


class TestFig4:
    def test_single_point(self, runner):
        res = runner.invoke(main, ["fig4", "--d", "2", "--n", "3", "--p-max", "0", "--steps", "1"])
        assert res.exit_code == 0
        _, header, rows = parse_csv(res.output)
        assert header == ["d", "N", "p", "i_total", "r_lower"]
        assert len(rows) == 1
        assert abs(float(rows[0][4]) - 1.0) < 1e-9

    def test_full_grid_monotone(self, runner):
        res = runner.invoke(main, ["fig4", "--d", "2,3,5", "--n", "3", "--steps", "61"])
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.output)
        assert len(rows) == 183
        for d in ("2", "3", "5"):
            r_vals = [float(r[4]) for r in rows if r[0] == d]
            assert all(x >= y - 1e-12 for x, y in zip(r_vals, r_vals[1:]))

    def test_threshold_crossing(self, runner):
        res = runner.invoke(main, ["fig4", "--d", "2", "--n", "3", "--p-max", "0.44", "--steps", "3"])
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.output)
        at_threshold = [r for r in rows if abs(float(r[2]) - 0.22) < 1e-9]
        assert len(at_threshold) == 1
        assert float(at_threshold[0][4]) <= 1e-3

    def test_n_independence_of_rates(self, runner):
        outputs = []
        for n in ("2", "3", "4"):
            res = runner.invoke(main, ["fig4", "--d", "2", "--n", n, "--steps", "11"])
            assert res.exit_code == 0
            _, _, rows = parse_csv(res.output)
            outputs.append([float(r[4]) for r in rows])
        for other in outputs[1:]:
            assert max(abs(a - b) for a, b in zip(outputs[0], other)) < 1e-9

    def test_oversized_register_exit_2(self, runner):
        # the rows of star(64) are those of star(3): no state vector is built
        res = runner.invoke(main, ["fig4", "--d", "2", "--n", "64", "--steps", "2"])
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.output)
        assert [r[1] for r in rows] == ["64", "64"] and abs(float(rows[0][3]) - 2.0) < 1e-9

    def test_oversized_star_never_built(self, runner, monkeypatch):
        # --n only labels the N column: the rows are functions of d and p
        monkeypatch.setattr(cli, "make_star", reached)
        res = runner.invoke(main, ["fig4", "--d", "2", "--n", "100000000", "--steps", "2"])
        assert res.exit_code == 0, res.output
        _, _, rows = parse_csv(res.output)
        assert [r[1] for r in rows] == ["100000000", "100000000"]

    def test_oversized_grid_exit_2(self, runner):
        res = runner.invoke(main, ["fig4", "--d", "2", "--steps", "10000000000"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: --steps")

    @pytest.mark.parametrize("d_list", ["2", "2,3,5"])
    def test_steps_bound_at_boundary(self, runner, monkeypatch, d_list):
        # steps x dimensions output rows, FIG4_BYTES_PER_ROW each, fit in MEMORY_LIMIT_BYTES
        monkeypatch.setattr(cli, "key_rate_curve", reached)
        dims = len(d_list.split(","))
        largest = MEMORY_LIMIT_BYTES // (FIG4_BYTES_PER_ROW * dims)
        res = runner.invoke(main, ["fig4", "--d", d_list, "--steps", str(largest)])
        assert isinstance(res.exception, Reached)
        res = runner.invoke(main, ["fig4", "--d", d_list, "--steps", str(largest + 1)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: --steps")

    def test_measured_peak_per_row_within_bound(self):
        # the peak-RSS slope of `fig4 --d 2` between two step counts, one output row a step
        small, large = (2 ** 17, 2 ** 19)
        rss = [peaks(run_child(["fig4", "--d", "2", "--steps", str(steps)]))[0] for steps in (small, large)]
        slope = (rss[1] - rss[0]) / (large - small)
        assert slope <= FIG4_BYTES_PER_ROW

    def test_bad_ranges_exit_2(self, runner):
        res = runner.invoke(main, ["fig4", "--n", "1"])
        assert res.exit_code == 2
        res = runner.invoke(main, ["fig4", "--d", "2,x"])
        assert res.exit_code == 2


class TestFig5AndDc:
    def test_fig5_values(self, runner):
        res = runner.invoke(main, ["fig5", "--d", "2,3"])
        assert res.exit_code == 0
        _, header, rows = parse_csv(res.output)
        assert header == ["d", "p_noise"]
        assert abs(float(rows[0][1]) - 0.2200) < 1e-3
        assert float(rows[1][1]) > float(rows[0][1])

    def test_dc_values(self, runner):
        res = runner.invoke(main, ["dc", "--d", "2,3"])
        assert res.exit_code == 0
        _, header, rows = parse_csv(res.output)
        assert header == ["d", "D_c"]
        assert abs(float(rows[0][1]) - 0.1100) < 5e-4
        assert abs(float(rows[1][1]) - 0.1595) < 5e-4

    def test_fig5_oversized_register_exit_2(self, runner):
        # star(3) at d=1000 needs no 16 * 1000^3-byte state, nor any table
        res = runner.invoke(main, ["fig5", "--d", "1000"])
        assert res.exit_code == 0
        _, _, rows = parse_csv(res.output)
        assert abs(float(rows[0][1]) - 0.4029) < 1e-4

    @pytest.mark.parametrize("command", ["dc", "fig5", "fig4", "certify", "qss", "nosharing"])
    @pytest.mark.parametrize("d", [2 ** 64, 10 ** 400], ids=["2**64", "10**400"])
    def test_dimension_beyond_64_bits_exit_2(self, runner, tmp_path, command, d):
        if command in ("certify", "qss"):  # d from a graph file
            args, option = table_command(command, d, tmp_path), "d"
        elif command == "nosharing":  # one d
            args, option = ["nosharing", "--d", str(d)], "--d"
        else:
            args, option = [command, "--d", f"2,{d}"], "--d"
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.stderr == f"error: {option} {d} is not below 2**64\n"

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 16, 1448, 10 ** 6])
    def test_commands_flip_at_the_printed_thresholds(self, runner, tmp_path, d):
        # certify and fig4 steer a relative 1e-14 below fig5's p_noise and not as far above; the
        # D_c inequality holds and fails the same way around dc's D_c
        graph = tmp_path / "star3.json"
        graph.write_text(json.dumps({"n": 3, "d": d, "edges": [[1, 2], [1, 3]]}))
        [[_, p_noise]] = parse_csv(runner.invoke(main, ["fig5", "--d", str(d)]).output)[2]
        for p, steers in ((float(p_noise) * (1 - 1e-14), True), (float(p_noise) * (1 + 1e-14), False)):
            res = runner.invoke(main, ["certify", str(graph), "--p", repr(p)])
            assert json.loads(res.output)["steerable"] is steers, f"p={p!r}"
            res = runner.invoke(main, ["fig4", "--d", str(d), "--p-max", repr(p), "--steps", "2"])
            _, _, rows = parse_csv(res.output)
            r_lower = float(rows[-1][4])
            assert r_lower > 0.0 if steers else r_lower == 0.0, f"p={p!r}: r_lower {r_lower}"
        [[_, d_c]] = parse_csv(runner.invoke(main, ["dc", "--d", str(d)]).output)[2]
        log_d = np.log2(d)
        for D, holds in ((float(d_c) * (1 - 1e-14), True), (float(d_c) * (1 + 1e-14), False)):
            assert (2 * (log_d - disturbance_entropy(D, d)) > log_d) == holds, f"D={D!r}"

    def test_consistency_between_commands(self, runner):
        res_dc = runner.invoke(main, ["dc", "--d", "2,3"])
        res_f5 = runner.invoke(main, ["fig5", "--d", "2,3"])
        _, _, dc_rows = parse_csv(res_dc.output)
        _, _, f5_rows = parse_csv(res_f5.output)
        for (d, dc_val), (_, p_val) in zip(dc_rows, f5_rows):
            d = int(d)
            assert abs(float(p_val) * (d - 1) / d - float(dc_val)) < 1e-6


class TestNoSharing:
    def test_clean_run(self, runner):
        res = runner.invoke(main, ["nosharing", "--d", "3", "--samples", "200", "--seed", "42"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["violations"] == 0
        assert payload["max_total"] <= 2 * np.log2(3) + 1e-9
        assert payload["manifest"]["seed"] == 42

    def test_max_total_is_the_largest_shared_information(self, runner):
        res = runner.invoke(main, ["nosharing", "--d", "2", "--samples", "200", "--seed", "5"])
        rng = np.random.default_rng(5)
        totals = [sum(shared_information(dirichlet_gamma(2, rng))) for _ in range(200)]
        payload = json.loads(res.output)
        assert payload["max_total"] == max(totals) < payload["bound"] - 0.01

    @pytest.mark.parametrize("informations, violations, code", [((1.5, 1.5), 3, 1), ((1.5, 0.4), 0, 0)])
    def test_violation_needs_both_copies_to_steer(self, runner, monkeypatch, informations, violations, code):
        monkeypatch.setattr(cloner, "shared_information", lambda g: informations)
        res = runner.invoke(main, ["nosharing", "--d", "2", "--samples", "3"])
        assert res.exit_code == code
        assert json.loads(res.output)["violations"] == violations

    def test_reproducible_payload(self, runner):
        args = ["nosharing", "--d", "2", "--samples", "50", "--seed", "7"]
        a = json.loads(runner.invoke(main, args).output)
        b = json.loads(runner.invoke(main, args).output)
        a.pop("manifest")
        b.pop("manifest")
        assert a == b

    def test_bad_samples_exit_2(self, runner):
        res = runner.invoke(main, ["nosharing", "--samples", "0"])
        assert res.exit_code == 2

    def test_negative_seed_exit_2(self, runner):
        res = runner.invoke(main, ["nosharing", "--samples", "1", "--seed", "-1"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: --seed -1")

    def test_oversized_gamma_table_exit_2(self, runner):
        res = runner.invoke(main, ["nosharing", "--d", "100000", "--samples", "1"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: --d")


class TestQss:
    def test_default_run(self, runner):
        res = runner.invoke(main, ["qss", "--rounds", "20000", "--seed", "1"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert abs(payload["i_hat_total"] - 2.0) < 0.05
        assert 2.0 - 0.05 < payload["i_lower_total"] < payload["i_hat_total"]
        assert payload["steerable_hat"] is True

    def test_supercritical_disturbance(self, runner):
        res = runner.invoke(
            main, ["qss", "--rounds", "20000", "--seed", "1", "--disturbance", "0.2"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["r_hat_lower"] == 0.0

    def test_transcript_file(self, runner, tmp_path):
        out = tmp_path / "transcript.jsonl"
        res = runner.invoke(
            main, ["qss", "--rounds", "100", "--seed", "3", "--out", str(out)]
        )
        assert res.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 100
        rec = json.loads(lines[0])
        assert set(rec) == {"round", "ma", "mb", "a", "b", "sifted"}

    def test_deterministic_given_seed(self, runner, tmp_path):
        args = ["qss", "--rounds", "5000", "--seed", "11"]
        a = json.loads(runner.invoke(main, args).output)
        b = json.loads(runner.invoke(main, args).output)
        assert a["i_hat_total"] == b["i_hat_total"]
        assert a["sifted_rounds"] == b["sifted_rounds"]

    def test_json_keys_in_estimate_order(self, runner):
        res = runner.invoke(main, ["qss", "--rounds", "2000"])
        assert list(json.loads(res.output)) == [
            "i_hat_total", "i_lower_total", "r_hat_lower", "sifted_rounds", "steerable_hat", "manifest",
        ]

    def test_bad_disturbance_exit_2(self, runner):
        res = runner.invoke(main, ["qss", "--disturbance", "0.9"])
        assert res.exit_code == 2

    def test_negative_seed_exit_2(self, runner):
        res = runner.invoke(main, ["qss", "--rounds", "10", "--seed", "-1"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: --seed -1")

    def test_too_few_rounds_exit_2(self, runner):
        # one round cannot sift both settings
        res = runner.invoke(main, ["qss", "--rounds", "1"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: InsufficientData")

    def test_odd_cycle_exit_2(self, runner, triangle_file):
        res = runner.invoke(main, ["qss", "--graph-file", triangle_file, "--rounds", "10"])
        assert res.exit_code == 2
        assert "NotTwoColorable" in res.stderr

    def test_odd_cycle_with_disturbance_exit_2(self, runner, triangle_file):
        res = runner.invoke(
            main,
            ["qss", "--graph-file", triangle_file, "--disturbance", "0.1", "--rounds", "10"],
        )
        assert res.exit_code == 2
        assert "NotTwoColorable" in res.stderr

    @pytest.mark.parametrize("attack", [[], ["--disturbance", "0.05"]], ids=["unattacked", "attacked"])
    def test_product_cut_exit_3(self, runner, tmp_path, attack):
        # each edge lies inside one side: refused as certify refuses it, with or without the cloner
        path = tmp_path / "g.json"
        path.write_text('{"n": 4, "d": 2, "edges": [[1, 2], [3, 4]]}')
        res = runner.invoke(main, ["qss", "--graph-file", str(path), "--partition", "1,2", "--rounds", "1000", *attack])
        assert res.exit_code == 3
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: NoCorrelationForm")
        assert "no edge crosses" in lines[0]

    def test_zero_disturbance_is_no_attack(self, runner, tmp_path):
        (tmp_path / "g.json").write_text('{"n": 4, "d": 3, "edges": [[1, 2], [2, 3], [3, 4]]}')
        base = ["qss", "--graph-file", str(tmp_path / "g.json"), "--p", "0.1", "--seed", "5", "--rounds", "20000"]
        for name, extra in (("none", []), ("zero", ["--disturbance", "0"])):
            assert runner.invoke(main, base + ["--out", str(tmp_path / name)] + extra).exit_code == 0
        assert (tmp_path / "none").read_bytes() == (tmp_path / "zero").read_bytes()

    def test_long_register_refused_before_partition(self, runner, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 100000000, "d": 2, "edges": [[1, 2]]}')
        res = runner.invoke(main, ["qss", "--graph-file", str(path), "--rounds", "10"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: graph n + |E| 100000001 needs")

    def test_long_register_with_disturbance_refused(self, runner, tmp_path):
        # the cloner model never lists the graph's vertices, but the graph-size bound still runs
        path = tmp_path / "huge.json"
        path.write_text('{"n": 100000000, "d": 2, "edges": [[1, 2]]}')
        res = runner.invoke(
            main, ["qss", "--graph-file", str(path), "--disturbance", "0.1", "--rounds", "10"]
        )
        assert res.exit_code == 2
        assert res.stderr.startswith("error: graph n + |E| 100000001 needs")

    def test_oversized_round_arrays_exit_2(self, runner):
        res = runner.invoke(main, ["qss", "--rounds", "10000000000"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: --rounds")

    def test_rounds_bound_at_boundary(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "run_protocol", reached)
        largest = MEMORY_LIMIT_BYTES // QSS_BYTES_PER_ROUND
        res = runner.invoke(main, ["qss", "--rounds", str(largest)])
        assert isinstance(res.exception, Reached)
        res = runner.invoke(main, ["qss", "--rounds", str(largest + 1)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: --rounds")

    @pytest.mark.parametrize("graph", [None, '{"n":3,"d":257,"edges":[[1,2],[1,3]]}'], ids=["d2", "d257"])
    def test_measured_peak_per_round_within_bound(self, tmp_path, graph):
        # the peak-RSS slope of `qss --out` between two round counts, on the default star(3) at d=2
        # and on star(3) at d=257, whose outcomes take two bytes
        args = []
        if graph is not None:
            path = tmp_path / "star3.json"
            path.write_text(graph)
            args = ["--graph-file", str(path)]
        rss = {}
        for rounds in (2 ** 18, 2 ** 20):
            out = tmp_path / f"{rounds}.jsonl"
            proc = run_child(["qss", *args, "--p", "0.05", "--rounds", str(rounds), "--out", str(out)])
            assert proc.returncode == 0, proc.stderr
            rss[rounds] = peaks(proc)[0]
            out.unlink()
        slope = (rss[2 ** 20] - rss[2 ** 18]) / (2 ** 20 - 2 ** 18)
        assert slope <= QSS_BYTES_PER_ROUND

    @pytest.mark.parametrize(
        "graph, digest",
        [
            (None, "89840360abf7fd61b27ec3a7606e7cf737cceadf7e0b13763bdff0c222af3a2a"),
            (
                '{"n":4,"d":3,"edges":[[1,2],[2,3],[3,4]]}',
                "9273bdb5f62ead2c0735383fdc91eabf9ea7165f7bf6dc0acf67fe0624ab9b0b",
            ),
        ],
    )
    def test_pinned_transcript_sha256(self, runner, tmp_path, graph, digest):
        args = ["qss", "--seed", "7", "--rounds", "30000", "--out", str(tmp_path / "t.jsonl")]
        if graph is not None:
            (tmp_path / "g.json").write_text(graph)
            args += ["--graph-file", str(tmp_path / "g.json")]
        assert runner.invoke(main, args).exit_code == 0
        assert hashlib.sha256((tmp_path / "t.jsonl").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "graph, digest",
        [
            (None, "7dd19b77fe5986198e00179aa531870d03b2b07f1608489dc53aceb77003a1c3"),
            (
                '{"n":4,"d":3,"edges":[[1,2],[2,3],[3,4]]}',
                "f4df979c5a4bd9ab2868224f0eab4e117fc50349e56c545aa85bf883264f26ce",
            ),
        ],
    )
    def test_pinned_attacked_transcript_sha256(self, runner, tmp_path, graph, digest):
        args = ["qss", "--seed", "7", "--rounds", "30000", "--disturbance", "0.1", "--out", str(tmp_path / "t.jsonl")]
        if graph is not None:
            (tmp_path / "g.json").write_text(graph)
            args += ["--graph-file", str(tmp_path / "g.json")]
        assert runner.invoke(main, args).exit_code == 0
        assert hashlib.sha256((tmp_path / "t.jsonl").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("d", [1000, 10 ** 6])
    def test_oversized_cloner_register_exit_2(self, runner, tmp_path, d):
        # the attacked tables take O(d^2): the table bound admits d = 1000 on three qudits,
        # whose register would need 16 * 1000^3 bytes, and refuses d = 10^6
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 3, "d": d, "edges": [[1, 2], [1, 3]]}))
        res = runner.invoke(
            main, ["qss", "--graph-file", str(path), "--disturbance", "0.1", "--rounds", "1000"]
        )
        if d == 1000:
            # about 500 sifted rounds a setting over 10^6 cells certify nothing
            assert res.exit_code == 0, res.output
            assert json.loads(res.output)["steerable_hat"] is False
        else:
            assert res.exit_code == 2
            assert res.stderr.startswith(f"error: d {d} needs")

    def test_graph_file_with_d3(self, runner, tmp_path):
        path = tmp_path / "chain4d3.json"
        path.write_text('{"n":4,"d":3,"edges":[[1,2],[2,3],[3,4]]}')
        res = runner.invoke(
            main, ["qss", "--graph-file", str(path), "--rounds", "20000", "--seed", "5"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert abs(payload["i_hat_total"] - 2 * np.log2(3)) < 0.05


# Commands whose d x d joint tables are bounded, with how many tables each holds:
# certify, fig4 and fig5 build none, and take any d below 2**64.
TABLE_COMMANDS = [("qss", 4)]


def largest_table_d(tables):
    """The largest d whose ``tables`` joint tables, TABLE_BYTES_PER_ENTRY an entry, fit in MEMORY_LIMIT_BYTES."""
    return math.isqrt(MEMORY_LIMIT_BYTES // (TABLE_BYTES_PER_ENTRY * tables))


# The largest d whose attack table, NOSHARING_BYTES_PER_ENTRY an entry, fits in MEMORY_LIMIT_BYTES.
LARGEST_NOSHARING_D = math.isqrt(MEMORY_LIMIT_BYTES // NOSHARING_BYTES_PER_ENTRY)

# The largest star whose n + |E| = 2n - 1 elements, GRAPH_BYTES_PER_ELEMENT each, fit in MEMORY_LIMIT_BYTES.
LARGEST_STAR = (MEMORY_LIMIT_BYTES // GRAPH_BYTES_PER_ELEMENT + 1) // 2


def star_command(command, n, directory):
    """Arguments of ``command`` on star(n) at d=2, from a graph file."""
    path = directory / f"star{n}.json"
    path.write_text(json.dumps({"n": n, "d": 2, "edges": [[1, k] for k in range(2, n + 1)]}))
    return [command, str(path)] if command == "certify" else ["qss", "--graph-file", str(path), "--rounds", "1000"]


def table_command(command, d, directory):
    """Arguments of ``command`` at dimension d on a two-qudit graph (one edge)."""
    if command in ("fig4", "fig5"):
        return [command, "--d", str(d)] + (["--n", "2", "--steps", "2"] if command == "fig4" else [])
    path = directory / "pair.json"
    path.write_text(json.dumps({"n": 2, "d": d, "edges": [[1, 2]]}))
    if command == "certify":
        return ["certify", str(path)]
    return ["qss", "--graph-file", str(path), "--rounds", "1000"]


class TestLargestAcceptedSizes:
    """The largest size each bound accepts runs in MEMORY_LIMIT_BYTES of address space over a small run's."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return peaks(run_child(["fig4", "--d", "2", "--steps", "1"]))[1]

    LARGEST_QSS = ["qss", "--rounds", str(MEMORY_LIMIT_BYTES // QSS_BYTES_PER_ROUND)]
    LARGEST_FIG4 = ["fig4", "--d", "2", "--steps", str(MEMORY_LIMIT_BYTES // FIG4_BYTES_PER_ROW)]

    def test_largest_qss_rounds(self, baseline):
        proc = run_child(self.LARGEST_QSS, baseline + MEMORY_LIMIT_BYTES)
        assert proc.returncode == 0, proc.stderr

    def test_largest_fig4_steps(self, baseline):
        # about 5.6 million rows: 12-21 s on a 2-CPU VM, nearly all of it float formatting
        proc = run_child(self.LARGEST_FIG4, baseline + MEMORY_LIMIT_BYTES)
        assert proc.returncode == 0, proc.stderr

    def test_limit_binds(self, baseline):
        # the largest qss run needs about half of MEMORY_LIMIT_BYTES, so a quarter stops it
        proc = run_child(self.LARGEST_QSS, baseline + MEMORY_LIMIT_BYTES // 4)
        assert proc.returncode != 0

    @pytest.mark.parametrize("command, tables", TABLE_COMMANDS)
    def test_largest_table_dimension(self, baseline, tmp_path, command, tables):
        # d = 1024 for qss's four tables; about 1 s
        d = largest_table_d(tables)
        proc = run_child(table_command(command, d, tmp_path), baseline + MEMORY_LIMIT_BYTES)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["certify", "fig4", "fig5"])
    def test_widest_dimension(self, baseline, tmp_path, command):
        # the closed form takes any d below 2**64 in a small run's memory
        proc = run_child(table_command(command, 2 ** 64 - 1, tmp_path), baseline + MEMORY_LIMIT_BYTES)
        assert proc.returncode == 0, proc.stderr

    def test_largest_attacked_qss_dimension(self, baseline, tmp_path):
        # the cloning attack's tables are closed forms of O(d^2) too: about 0.5 s at d = 1024
        d = largest_table_d(4)
        proc = run_child(table_command("qss", d, tmp_path) + ["--disturbance", "0.1"], baseline + MEMORY_LIMIT_BYTES)
        assert proc.returncode == 0, proc.stderr

    def test_largest_nosharing_dimension(self, baseline):
        # d = 2048: a Dirichlet draw and the clone's two FFTs a sample, about 1 s for two
        proc = run_child(["nosharing", "--d", str(LARGEST_NOSHARING_D), "--samples", "2"], baseline + MEMORY_LIMIT_BYTES)
        assert proc.returncode == 0, proc.stderr

    def test_nosharing_bound_at_boundary(self, runner, monkeypatch):
        # the next d is refused before any attack is drawn
        monkeypatch.setattr(cli, "no_sharing_scan", reached)
        res = runner.invoke(main, ["nosharing", "--d", str(LARGEST_NOSHARING_D), "--samples", "1"])
        assert isinstance(res.exception, Reached)
        res = runner.invoke(main, ["nosharing", "--d", str(LARGEST_NOSHARING_D + 1), "--samples", "1"])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: --d {LARGEST_NOSHARING_D + 1} needs")

    def test_largest_star(self, baseline, tmp_path):
        # star(262144) at d=2: about 3 s on a 2-CPU VM
        proc = run_child(star_command("certify", LARGEST_STAR, tmp_path), baseline + MEMORY_LIMIT_BYTES)
        assert proc.returncode == 0, proc.stderr

    def test_chain_refused_before_decoding(self, baseline, tmp_path):
        # chain(1.5M) is a 28 MB file within the file bound; json.loads of it ran out of memory here
        n = 1_500_000
        path = tmp_path / "chain.json"
        path.write_text('{"n": %d, "d": 2, "edges": [%s]}' % (n, ", ".join(f"[{k}, {k + 1}]" for k in range(1, n))))
        proc = run_child(["certify", str(path)], baseline + MEMORY_LIMIT_BYTES)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: graph |E| of at most {n - 1} needs")

    def test_file_over_the_limit_refused_before_reading(self, baseline, tmp_path):
        path = tmp_path / "large.json"
        with open(path, "wb") as handle:  # sparse: one byte past the limit, no data written before it
            handle.seek(MEMORY_LIMIT_BYTES)
            handle.write(b" ")
        proc = run_child(["certify", str(path)], baseline + MEMORY_LIMIT_BYTES)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: graph file {path} has {MEMORY_LIMIT_BYTES + 1} bytes, over the")

    @pytest.mark.parametrize("command", ["certify", "qss"])
    def test_graph_bound_at_boundary(self, runner, monkeypatch, tmp_path, command):
        # the next star is refused before its vertices are listed or the star is built
        for stage in ("make_star", "derive_both_settings", "run_protocol"):
            monkeypatch.setattr(cli, stage, reached)
        monkeypatch.setattr(cli.Bipartition, "from_side_a", reached)
        res = runner.invoke(main, star_command(command, LARGEST_STAR, tmp_path))
        assert isinstance(res.exception, Reached)
        res = runner.invoke(main, star_command(command, LARGEST_STAR + 1, tmp_path))
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: graph n + |E| {2 * LARGEST_STAR + 1} needs")

    @pytest.mark.parametrize("command, tables", TABLE_COMMANDS)
    def test_table_bound_at_boundary(self, runner, monkeypatch, tmp_path, command, tables):
        # the next d is refused before any table, setting or star is built
        d = largest_table_d(tables)
        for stage in ("make_star", "derive_both_settings", "run_protocol"):
            monkeypatch.setattr(cli, stage, reached)
        res = runner.invoke(main, table_command(command, d, tmp_path))
        assert isinstance(res.exception, Reached)
        res = runner.invoke(main, table_command(command, d + 1, tmp_path))
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: d {d + 1} needs")



class TestVerify:
    def test_all_checks_pass(self, runner):
        res = runner.invoke(main, ["verify"])
        assert res.exit_code == 0
        assert "FAIL" not in res.output
        assert "invariant checks passed" in res.output

    @pytest.mark.parametrize("shift", [-1e-12, 1e-12])
    def test_threshold_off_its_float_boundary_fails(self, runner, monkeypatch, shift):
        for name in ("critical_disturbance", "critical_noise"):
            monkeypatch.setattr(verify_module, name, lambda d, f=getattr(verify_module, name): f(d) + shift)
        res = runner.invoke(main, ["verify"])
        assert res.exit_code == 1
        assert "[FAIL] critical-disturbance" in res.output
        assert "[FAIL] noise-threshold-consistency" in res.output

    def test_builds_no_dense_state(self, runner, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify built a dense state")

        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "graphsteering"]
        for module in package:
            for attr in ("PureState", "DensityOperator"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
        res = runner.invoke(main, ["verify"])
        assert res.exit_code == 0, res.output
        assert "FAIL" not in res.output


class TestNoStateVector:
    """Every production command runs with the d^N state builders and the dense registers made to raise."""

    @pytest.fixture(autouse=True)
    def refuse_state_vectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a production path built the d^N state vector")

        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "graphsteering"]
        for module in package + [oracle]:
            for attr in ("build_graph_state", "outcome_table", "QuditRegister", "cloner_output", "PureState", "DensityOperator"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)

    @pytest.mark.parametrize(
        "args",
        [
            ["certify", "GRAPH", "--p", "0.1"],
            ["certify", "CHAIN4_D3", "--partition", "1,2"],
            ["fig4", "--d", "2,3", "--steps", "3"],
            ["fig5", "--d", "2,3"],
            ["qss", "--rounds", "2000"],
            ["qss", "--rounds", "2000", "--disturbance", "0.05"],
            ["qss", "--graph-file", "CHAIN4_D3", "--rounds", "2000", "--p", "0.1"],
            ["verify"],
            # refused by the d^N register limit before: 16 * 2^64 and 16 * 3^100 bytes
            ["certify", "STAR64"],
            ["qss", "--graph-file", "CHAIN100_D3", "--rounds", "2000"],
        ],
    )
    def test_exits_0(self, runner, star3_file, tmp_path, args):
        chain = tmp_path / "chain4d3.json"
        chain.write_text('{"n":4,"d":3,"edges":[[1,2],[2,3],[3,4]]}')
        star64 = tmp_path / "star64.json"
        star64.write_text(json.dumps({"n": 64, "d": 2, "edges": [[1, k] for k in range(2, 65)]}))
        chain100 = tmp_path / "chain100d3.json"
        chain100.write_text(json.dumps({"n": 100, "d": 3, "edges": [[k, k + 1] for k in range(1, 100)]}))
        files = {"GRAPH": star3_file, "CHAIN4_D3": str(chain), "STAR64": str(star64), "CHAIN100_D3": str(chain100)}
        res = runner.invoke(main, [files.get(a, a) for a in args])
        assert res.exit_code == 0, res.output
        if "STAR64" in args:
            assert abs(json.loads(res.output)["i_total"] - 2.0) < 1e-9


@pytest.mark.parametrize(
    "args",
    [
        ["certify", "GRAPH"],
        ["fig4", "--d", "2", "--steps", "1"],
        ["fig5", "--d", "2"],
        ["dc", "--d", "2"],
        ["nosharing", "--samples", "1"],
        ["qss", "--rounds", "100"],
    ],
)
def test_unwritable_out_exit_2(runner, star3_file, tmp_path, args):
    args = [star3_file if a == "GRAPH" else a for a in args]
    res = runner.invoke(main, args + ["--out", str(tmp_path / "missing" / "x.out")])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: FileNotFoundError")


@pytest.mark.parametrize(
    "args, code",
    [
        (["certify", "GRAPH"], 0),
        (["certify", "GRAPH", "--format", "csv"], 0),
        (["certify", "GRAPH", "--p", "2"], 2),
        (["qss", "--rounds", "100"], 0),
        (["fig4", "--steps", "3"], 0),
        (["fig5"], 0),
        (["dc"], 0),
        (["nosharing", "--samples", "3"], 0),
        (["verify"], 0),
    ],
    ids=["certify-json", "certify-csv", "refusal", "qss", "fig4", "fig5", "dc", "nosharing", "verify"],
)
def test_in_process_call_keeps_no_stream(star3_file, args, code):
    # an embedding program's redirected stdout and stderr die with their last reference
    args = [star3_file if a == "GRAPH" else a for a in args]
    out, err = io.StringIO(), io.StringIO()
    refs = weakref.ref(out), weakref.ref(err)
    exit_code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="graphsteering")
        except SystemExit as exc:
            exit_code = exc.code
    assert exit_code == code
    assert out.getvalue() or err.getvalue()
    del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
