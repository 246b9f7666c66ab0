"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph import load_graph, load_hierarchy, save_graph


@pytest.fixture()
def artifacts(tmp_path, small_road, small_road_ch):
    from repro.graph import save_hierarchy

    gpath = tmp_path / "g.npz"
    cpath = tmp_path / "g.ch.npz"
    save_graph(small_road, gpath)
    save_hierarchy(small_road_ch, cpath)
    return gpath, cpath


def test_generate(tmp_path, capsys):
    out = tmp_path / "map.npz"
    rc = main(
        ["generate", "--kind", "europe", "--scale", "8", "-o", str(out)]
    )
    assert rc == 0
    g = load_graph(out)
    assert g.n == 64
    assert "64 vertices" in capsys.readouterr().out


def test_generate_usa_distance(tmp_path):
    out = tmp_path / "map.npz"
    assert (
        main(
            [
                "generate", "--kind", "usa", "--scale", "6",
                "--metric", "distance", "--layout", "input",
                "-o", str(out),
            ]
        )
        == 0
    )
    assert load_graph(out).n == 6 * (int(6 * 1.33) + 1)


def test_preprocess_and_tree(tmp_path, artifacts, capsys):
    gpath, _ = artifacts
    cpath = tmp_path / "new.ch.npz"
    assert main(["preprocess", str(gpath), "-o", str(cpath)]) == 0
    load_hierarchy(cpath).validate()
    out = tmp_path / "dist.npz"
    assert main(
        ["tree", str(gpath), str(cpath), "--source", "0", "-o", str(out)]
    ) == 0
    with np.load(out) as data:
        from repro.sssp import dijkstra

        g = load_graph(gpath)
        assert np.array_equal(
            data["dist"], dijkstra(g, 0, with_parents=False).dist
        )


def test_library_contraction_is_the_cli_pipeline(tmp_path, artifacts, capsys):
    """``contract_graph(g)`` with no params writes exactly the arrays
    ``repro preprocess`` writes, and reports the pipeline's rounds."""
    from repro.ch import contract_graph
    from repro.graph import save_hierarchy

    gpath, _ = artifacts
    cli_path = tmp_path / "cli.ch.npz"
    lib_path = tmp_path / "lib.ch.npz"
    assert main(["preprocess", str(gpath), "-o", str(cli_path)]) == 0
    ch = contract_graph(load_graph(gpath))
    save_hierarchy(ch, lib_path)
    with np.load(cli_path) as cli, np.load(lib_path) as lib:
        assert set(cli.files) == set(lib.files)
        for key in cli.files:
            assert np.array_equal(cli[key], lib[key]), key
    stats = ch.preprocessing_stats
    assert stats["rounds"] == len(stats["round_log"]) > 0
    assert f"({stats['rounds']} rounds)" in capsys.readouterr().out


def test_batch(tmp_path, artifacts, small_road, capsys):
    gpath, cpath = artifacts
    out = tmp_path / "mat.npz"
    rc = main(
        [
            "batch", str(gpath), str(cpath),
            "--sources", "0,5,9", "--sweep-k", "2",
            "--force-pool", "--workers", "2", "-o", str(out),
        ]
    )
    assert rc == 0
    assert "trees/s" in capsys.readouterr().out
    with np.load(out) as data:
        from repro.sssp import dijkstra

        assert data["sources"].tolist() == [0, 5, 9]
        for i, s in enumerate((0, 5, 9)):
            assert np.array_equal(
                data["dist"][i],
                dijkstra(small_road, s, with_parents=False).dist,
            )


def test_batch_random_sources(artifacts, capsys):
    gpath, cpath = artifacts
    assert main(["batch", str(gpath), str(cpath), "--count", "6"]) == 0
    assert "6 trees" in capsys.readouterr().out


def test_query(artifacts, capsys):
    gpath, cpath = artifacts
    rc = main(
        ["query", str(cpath), "--source", "0", "--target", "5", "--path"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "distance" in out
    assert "->" in out


def test_query_stall(artifacts):
    _, cpath = artifacts
    assert (
        main(
            ["query", str(cpath), "--source", "0", "--target", "63", "--stall"]
        )
        == 0
    )


def test_query_unreachable(tmp_path, capsys):
    from repro.ch import contract_graph
    from repro.graph import StaticGraph, save_hierarchy

    g = StaticGraph(3, [0], [1], [1])
    cpath = tmp_path / "c.npz"
    save_hierarchy(contract_graph(g), cpath)
    rc = main(["query", str(cpath), "--source", "0", "--target", "2"])
    assert rc == 1
    assert "unreachable" in capsys.readouterr().out


def test_stats(artifacts, capsys):
    gpath, cpath = artifacts
    assert main(["stats", str(gpath), str(cpath)]) == 0
    out = capsys.readouterr().out
    assert "graph:" in out and "hierarchy:" in out


def test_convert_gr_roundtrip(tmp_path, artifacts):
    gpath, _ = artifacts
    grpath = tmp_path / "g.gr"
    back = tmp_path / "g2.npz"
    assert main(["convert", str(gpath), "-o", str(grpath)]) == 0
    assert main(["convert", str(grpath), "-o", str(back)]) == 0
    assert load_graph(back) == load_graph(gpath)


def test_unknown_command_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# -- error paths: every operational failure is rc 2 + one error: line --------


def _fails(argv, capsys, *, needle=None):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, (argv, err)
    assert err.startswith("error:"), (argv, err)
    if needle is not None:
        assert needle in err, (argv, err)
    return err


def test_query_missing_file(capsys):
    _fails(
        ["query", "/nope/ch.npz", "--source", "0", "--target", "1"], capsys
    )


def test_tree_missing_files(tmp_path, artifacts, capsys):
    gpath, cpath = artifacts
    _fails(["tree", str(tmp_path / "no.npz"), str(cpath), "--source", "0"],
           capsys)
    _fails(["tree", str(gpath), str(tmp_path / "no.ch.npz"), "--source", "0"],
           capsys)


def test_batch_missing_file(artifacts, capsys):
    gpath, _ = artifacts
    _fails(["batch", str(gpath), "/nope/ch.npz", "--count", "2"], capsys)


def test_serve_missing_file(capsys):
    _fails(["serve", "/nope/g.npz", "/nope/ch.npz"], capsys)


def test_query_source_out_of_range(artifacts, capsys):
    _, cpath = artifacts
    _fails(["query", str(cpath), "--source", "64", "--target", "0"],
           capsys, needle="source")
    _fails(["query", str(cpath), "--source", "-1", "--target", "0"],
           capsys, needle="source")
    _fails(["query", str(cpath), "--source", "0", "--target", "9999"],
           capsys, needle="target")


def test_tree_source_out_of_range(artifacts, capsys):
    gpath, cpath = artifacts
    _fails(["tree", str(gpath), str(cpath), "--source", "64"],
           capsys, needle="source")


def test_batch_bad_sources(artifacts, capsys):
    gpath, cpath = artifacts
    _fails(["batch", str(gpath), str(cpath), "--sources", "0,x,2"],
           capsys, needle="comma-separated")
    _fails(["batch", str(gpath), str(cpath), "--sources", "0,9999"],
           capsys, needle="source")


def test_batch_bad_sweep_k(artifacts, capsys):
    gpath, cpath = artifacts
    _fails(["batch", str(gpath), str(cpath), "--count", "2",
            "--sweep-k", "0"], capsys)


def test_serve_mismatched_graph_and_hierarchy(tmp_path, artifacts, capsys):
    from repro.ch import contract_graph
    from repro.graph import RoadNetworkParams, road_network, save_hierarchy

    gpath, _ = artifacts
    other = road_network(RoadNetworkParams(rows=3, cols=3, seed=0))
    cpath = tmp_path / "other.ch.npz"
    save_hierarchy(contract_graph(other), cpath)
    _fails(["serve", str(gpath), str(cpath)], capsys, needle="vertices")


def test_serve_stale_artifact(tmp_path, artifacts, capsys):
    import numpy as np

    gpath, cpath = artifacts
    stale = tmp_path / "stale.ch.npz"
    with np.load(cpath, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files if k != "magic"}
    np.savez_compressed(stale, magic=np.array("repro-ch-v0"), **arrays)
    _fails(["serve", str(gpath), str(stale)], capsys, needle="version")


def test_client_connection_refused(capsys):
    _fails(["client", "--port", "1", "--op", "ping"], capsys)


def test_client_missing_op_args(capsys):
    _fails(["client", "--port", "1", "--op", "query"], capsys)


def test_doctor_lists_and_reaps_orphans(capsys):
    """Orphaned pool segments are reported then reaped; live ones kept."""
    import json
    import os
    import subprocess
    import sys

    # A verifiably dead pid: a child that has already exited.
    proc = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True,
    )
    dead_pid = int(proc.stdout)
    orphan = f"/dev/shm/repro-{dead_pid}-cafe0001"
    live = f"/dev/shm/repro-{os.getpid()}-cafe0002"
    unattributed = "/dev/shm/repro-garbage"
    try:
        for path in (orphan, live, unattributed):
            with open(path, "wb") as fh:
                fh.write(b"\0" * 16)
        rc = main(["doctor", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        by_name = {seg["name"]: seg for seg in report["segments"]}
        assert by_name[os.path.basename(orphan)]["orphaned"] is True
        assert by_name[os.path.basename(live)]["orphaned"] is False
        assert by_name[os.path.basename(unattributed)]["orphaned"] is False

        assert main(["doctor", "--unlink"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert not os.path.exists(orphan)
        assert os.path.exists(live)          # owner alive: untouched
        assert os.path.exists(unattributed)  # unattributable: untouched
    finally:
        for path in (orphan, live, unattributed):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
