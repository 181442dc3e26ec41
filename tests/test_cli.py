"""Command-line interface."""

import pytest

from repro.cli import main


class TestInfoCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in ("Fugaku", "Ookami", "Summit", "Piz Daint", "Perlmutter"):
            assert name in out

    def test_manifest(self, capsys):
        assert main(["manifest"]) == 0
        out = capsys.readouterr().out
        assert "hpx" in out and "kokkos" in out


class TestScale:
    def test_scale_rotating_star(self, capsys):
        code = main(
            ["scale", "--scenario", "rotating_star", "--level", "5",
             "--machine", "Fugaku", "--nodes", "1", "4", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cells/s" in out
        assert out.count("\n") >= 5

    def test_scale_with_gpus(self, capsys):
        code = main(
            ["scale", "--scenario", "dwd", "--level", "12",
             "--machine", "Perlmutter", "--nodes", "1", "8", "--gpus"]
        )
        assert code == 0

    def test_scale_flags(self, capsys):
        code = main(
            ["scale", "--level", "5", "--machine", "Ookami",
             "--nodes", "64", "--no-simd", "--multipole-tasks", "16"]
        )
        assert code == 0

    def test_unknown_machine_raises(self):
        with pytest.raises(KeyError):
            main(["scale", "--machine", "Frontier", "--nodes", "1"])


@pytest.mark.slow
class TestRun:
    def test_run_and_checkpoint(self, capsys, tmp_path):
        chk = tmp_path / "state"
        code = main(
            ["run", "--scenario", "rotating_star", "--level", "2",
             "--steps", "1", "--nodes", "2", "--checkpoint", str(chk)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mass drift" in out
        assert (tmp_path / "state.npz").exists()
        from repro.ioutil import load_checkpoint

        mesh, meta = load_checkpoint(tmp_path / "state.npz")
        assert meta["step"] == 1


class TestRunBoundaries:
    """Bad ``run`` arguments fail at the parser with a usage error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--steps", "-1"],
            ["run", "--level", "0"],
            ["run", "--array-backend", "pyjit", "--backend", "process"],
        ],
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_backend_help_describes_one_pool(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "far-field M2L" not in out
        assert "FMM near field in one pool" in out
