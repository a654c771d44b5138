"""CLI tests."""

import pytest

from repro.cli import build_parser, main, EXPERIMENTS


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["compare", "aes", "--scale", "0.05"])
    assert args.circuit == "aes"
    assert args.scale == 0.05


def test_experiment_ids_cover_every_table_and_figure():
    tables = [f"table{i}" for i in range(1, 18)]
    figures = ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
               "fig11"]
    for key in tables + figures:
        assert key in EXPERIMENTS


def test_experiment_modules_import():
    import importlib
    for module_name in EXPERIMENTS.values():
        module = importlib.import_module(
            f"repro.experiments.{module_name}")
        assert hasattr(module, "run")
        assert hasattr(module, "reference")


def test_unknown_experiment_id(capsys):
    rc = main(["experiment", "table99"])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cells_command(capsys):
    rc = main(["cells", "--node", "45nm", "--style", "2d"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "INV_X1" in out
    assert "66 cells" in out


def test_cheap_experiment_command(capsys):
    rc = main(["experiment", "table10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "measured" in out and "paper" in out


def test_export_lib(tmp_path, capsys):
    path = tmp_path / "out.lib"
    rc = main(["export-lib", str(path)])
    assert rc == 0
    assert path.read_text().startswith("library")


def test_export_verilog(tmp_path):
    path = tmp_path / "fpu.v"
    rc = main(["export-verilog", "fpu", str(path), "--scale", "0.06"])
    assert rc == 0
    assert "module" in path.read_text()


def test_export_layout(tmp_path):
    import json
    from repro.cli import main as cli_main
    path = tmp_path / "fpu.json"
    rc = cli_main(["export-layout", "fpu", str(path), "--scale", "0.08"])
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["circuit"] == "fpu"


# -- store maintenance / whatif / bench --report ---------------------------

def test_store_fsck_exit_codes(tmp_path, capsys):
    from repro.runtime.checkpoint import CheckpointStore

    store_dir = str(tmp_path / "store")
    store = CheckpointStore(store_dir)
    store.store("good", {"value": 1})
    assert main(["--checkpoint-dir", store_dir, "store", "fsck"]) == 0
    assert "store is clean" in capsys.readouterr().out

    # Plant a torn entry: fsck quarantines it and reports non-clean.
    (store.path_for("bad")).write_bytes(b"torn garbage")
    assert main(["--checkpoint-dir", store_dir, "store", "fsck"]) == 1
    # The quarantined file still pends until purged.
    assert main(["--checkpoint-dir", store_dir, "store", "fsck"]) == 1
    assert main(["--checkpoint-dir", store_dir, "store", "fsck",
                 "--purge-corrupt"]) == 1
    assert main(["--checkpoint-dir", store_dir, "store", "fsck"]) == 0
    assert store.load("good") == {"value": 1}


def test_store_stats_command(tmp_path, capsys):
    from repro.runtime.checkpoint import CheckpointStore

    store_dir = str(tmp_path / "store")
    CheckpointStore(store_dir).store("k", {"value": 1})
    assert main(["--checkpoint-dir", store_dir, "store", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "orphaned_tmp_files" in out
    assert "reclaimable" in out


def test_store_gc_command(tmp_path, capsys):
    from repro.runtime.checkpoint import CheckpointStore

    store_dir = str(tmp_path / "store")
    store = CheckpointStore(store_dir)
    for i in range(3):
        store.store(f"k{i}", {"value": i})
    assert main(["--checkpoint-dir", store_dir, "store", "gc",
                 "--max-entries", "1"]) == 0
    assert "evicted 2" in capsys.readouterr().out
    assert store.stats()["entries"] == 1


def test_whatif_command(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    rc = main(["--checkpoint-dir", store_dir, "whatif", "fpu",
               "--scale", "0.06", "--set", "router_detour_coeff=0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "reuse" in out and "recompute" in out
    assert "3 stage(s) reused, 5 recomputed" in out


def test_whatif_rejects_unknown_field(tmp_path, capsys):
    rc = main(["--checkpoint-dir", str(tmp_path), "whatif", "fpu",
               "--set", "no_such_knob=1"])
    assert rc == 2
    assert "bad --set" in capsys.readouterr().err


def test_bench_report_creates_parent_dirs(tmp_path, capsys):
    import json

    report = tmp_path / "deep" / "nested" / "report.json"
    rc = main(["bench", "table10", "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert "row_digests" in payload and "table10" in payload["row_digests"]


def test_whatif_list_prints_the_sweep_registry(capsys):
    rc = main(["whatif", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pin_cap_scale" in out
    assert "invalidates" in out
    assert "repro dse" in out


def test_whatif_without_circuit_or_list_is_usage_error(capsys):
    rc = main(["whatif"])
    assert rc == 2
    assert "name a circuit" in capsys.readouterr().err


def test_dse_requires_a_circuit_or_space(capsys):
    rc = main(["dse"])
    assert rc == 2
    assert "name a circuit" in capsys.readouterr().err


def test_dse_requires_an_axis(capsys):
    rc = main(["dse", "fpu"])
    assert rc == 2
    assert "--set" in capsys.readouterr().err


def test_dse_rejects_unknown_axis(capsys):
    rc = main(["dse", "fpu", "--set", "no_such_knob=1,2"])
    assert rc == 1
    assert "not a registered flow input" in capsys.readouterr().err


def test_dse_rejects_bad_weight(capsys):
    rc = main(["dse", "fpu", "--set", "pi_activity=0.1,0.2",
               "--weight", "power"])
    assert rc == 2
    assert "bad --weight" in capsys.readouterr().err


def test_dse_tiny_sweep_emits_deterministic_frontier(tmp_path, capsys):
    import json

    from repro.experiments import runner

    args = ["dse", "fpu", "--scale", "0.06",
            "--set", "pi_activity=0.1,0.3",
            "--objectives", "power,leakage"]
    path_one = tmp_path / "one.json"
    rc = main(args + ["--json", str(path_one)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "frontier" in out and "stage checkpoint hit(s)" in out
    document = json.loads(path_one.read_text())
    assert document["evaluations"] == 2
    assert document["cache_hits"] > 0
    assert document["frontier"]["indices"]
    for row in document["provenance"]:
        assert row["replay_ok"]
    # Same sweep, cold caches: byte-identical report.
    runner.clear_caches()
    path_two = tmp_path / "two.json"
    rc = main(args + ["--json", str(path_two)])
    assert rc == 0
    assert path_one.read_bytes() == path_two.read_bytes()


def test_main_runs_in_a_session_of_its_own(fresh_session, tmp_path):
    """An in-process ``main()`` binds its store and keep-going policy to
    a session of its own; the caller's session comes back untouched."""
    from repro.experiments import runner
    from repro.runtime.session import current_session

    sentinel = object()
    fresh_session.flows["caller-key"] = sentinel
    rc = main(["--keep-going", "--resume", "--checkpoint-dir",
               str(tmp_path / "store"), "experiment", "table10"])
    assert rc == 0
    assert current_session() is fresh_session
    assert not runner.keep_going_enabled()
    assert runner.persistent_store() is None
    assert fresh_session.flows == {"caller-key": sentinel}
