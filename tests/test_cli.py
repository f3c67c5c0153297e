import json

import pytest

from dagsched.cli import main

from conftest import REF_EDGES, REF_WORKS


def write_ref_dag(path):
    doc = {
        "tasks": [{"id": f"t{i}", "name": f"job{i}", "work": REF_WORKS[i - 1]}
                  for i in range(1, 11)],
        "edges": [{"src": f"t{a}", "dst": f"t{b}", "bytes": 2} for a, b in REF_EDGES],
    }
    path.write_text(json.dumps(doc))


def write_platform(path, n=2):
    doc = {
        "machines": [{"id": f"m{i}", "name": f"Machine{i}", "speed": 1} for i in range(1, n + 1)],
        "default_link": {"bandwidth": 10, "latency": 0},
    }
    path.write_text(json.dumps(doc))


@pytest.fixture
def ref_paths(tmp_path):
    dag = tmp_path / "dag.json"
    plt = tmp_path / "platform.json"
    write_ref_dag(dag)
    write_platform(plt)
    return str(dag), str(plt)


class TestValidate:
    def test_ok(self, ref_paths, capsys):
        assert main(["validate", *ref_paths]) == 0
        out = capsys.readouterr().out
        assert "10 tasks, 2 machines, entry=job1, exit=job10" in out

    def test_cycle_reported(self, tmp_path, capsys):
        dag = tmp_path / "bad.json"
        dag.write_text(json.dumps({
            "tasks": [{"id": "a", "work": 1}, {"id": "b", "work": 1}],
            "edges": [{"src": "a", "dst": "b"}, {"src": "b", "dst": "a"}],
        }))
        plt = tmp_path / "p.json"
        write_platform(plt)
        assert main(["validate", str(dag), str(plt)]) != 0
        assert "cycle" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        plt = tmp_path / "p.json"
        write_platform(plt)
        missing = str(tmp_path / "nope.json")
        assert main(["validate", missing, str(plt)]) != 0
        assert "nope.json" in capsys.readouterr().err


class TestHeights:
    def test_reference_table(self, ref_paths, capsys):
        assert main(["heights", ref_paths[0]]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [int(h) for _, h in rows] == [1, 2, 2, 2, 4, 3, 4, 3, 5, 6]

    def test_single_task(self, tmp_path, capsys):
        dag = tmp_path / "one.json"
        dag.write_text(json.dumps({"tasks": [{"id": "a", "name": "solo", "work": 3}]}))
        assert main(["heights", str(dag)]) == 0
        assert capsys.readouterr().out == "solo\t1\n"


class TestSchedule:
    def test_minmin_single_task(self, tmp_path, capsys):
        dag = tmp_path / "one.json"
        dag.write_text(json.dumps({"tasks": [{"id": "a", "name": "job1", "work": 3}]}))
        plt = tmp_path / "p.json"
        write_platform(plt, n=1)
        log = tmp_path / "out.log"
        assert main(["schedule", str(dag), str(plt), "--alg", "minmin", "--out", str(log)]) == 0
        assert log.read_text() == "Schedule job1 on Machine1\nSimulation Time: 3.000000\n"

    def test_ga_deterministic_logs(self, ref_paths, tmp_path, capsys):
        logs = []
        for name in ("a.log", "b.log"):
            log = tmp_path / name
            args = ["schedule", *ref_paths, "--alg", "ga", "--seed", "7",
                    "--pop", "20", "--iters", "10", "--out", str(log)]
            assert main(args) == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]

    def test_ga_beats_or_ties_minmin_on_oracle_instance(self, ref_paths, tmp_path, capsys):
        log = tmp_path / "x.log"
        makespans = {}
        for alg in ("ga", "minmin"):
            assert main(["schedule", *ref_paths, "--alg", alg, "--seed", "1",
                         "--out", str(log)]) == 0
            out = capsys.readouterr().out
            makespans[alg] = float(out.splitlines()[0].split(":")[1])
        assert makespans["ga"] <= makespans["minmin"] + 1e-9


class TestBench:
    def test_single_cell(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        args = ["bench", "--shapes", "10x2", "--seeds", "1", "--out", str(out_csv)]
        assert main(args) == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("instance,")
        summary = capsys.readouterr().out
        assert "GA <= min-min on" in summary

    def test_bad_shape(self, tmp_path, capsys):
        assert main(["bench", "--shapes", "10by2", "--out", str(tmp_path / "b.csv")]) != 0

    def test_seed_flag_rejected(self, tmp_path, capsys):
        # every cell is seeded from the grid, so a --seed would have no effect
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--shapes", "10x2", "--seed", "3", "--out", str(tmp_path / "b.csv")])
        assert exc.value.code == 2


class TestErrorsReported:
    """Bad input ends in a one-line `error:` on stderr and exit status 1."""

    def assert_one_line_error(self, capsys, argv, fragment):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err

    def test_duplicate_machine_id(self, ref_paths, tmp_path, capsys):
        plt = tmp_path / "dup.json"
        plt.write_text(json.dumps({"machines": [{"id": "m1", "speed": 1}, {"id": "m1", "speed": 2}]}))
        self.assert_one_line_error(capsys, ["validate", ref_paths[0], str(plt)],
                                   "duplicate machine id 'm1'")

    def test_population_of_one(self, ref_paths, capsys):
        self.assert_one_line_error(capsys, ["schedule", *ref_paths, "--pop", "1"], "pop_size must be >= 2")

    def test_out_in_missing_directory(self, ref_paths, tmp_path, capsys):
        log = tmp_path / "missing_dir" / "x.log"
        self.assert_one_line_error(capsys, ["schedule", *ref_paths, "--alg", "minmin", "--out", str(log)],
                                   "cannot write")
        assert not log.parent.exists()


class TestGen:
    def test_task_count(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert main(["gen", "--tasks", "25", "--width", "10", "--seed", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["tasks"]) == 25

    def test_deterministic(self, tmp_path, capsys):
        files = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["gen", "--tasks", "25", "--width", "10", "--seed", "3",
                         "--out", str(out)]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_single_task(self, tmp_path, capsys):
        out = tmp_path / "one.json"
        assert main(["gen", "--tasks", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["tasks"]) == 1 and doc["edges"] == []
