import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gabor_recover.cli import build_parser, main
from gabor_recover.signal import GridDims, Signal2D, signal_from_json, signal_to_json

INV_SQRT_12 = 0.2886751345948129


def delta_signal_json():
    vals = np.zeros((3, 4), dtype=complex)
    vals[0, 0] = 1.0
    return signal_to_json(Signal2D(dims=GridDims(n=4, t=3), values=vals))


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        assert "mmax-sweep" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transform", "--input", "x", "--kind", "nope"])


class TestExperimentCommands:
    def test_flags_only_run(self, tmp_path, capsys):
        code = main([
            "mmax-sweep", "--n", "16", "--t", "4", "--theta", "0.1",
            "--e-max", "2", "--trials", "50", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MmaxSweep n=16 t=4" in out
        assert (tmp_path / "mmax_sweep_n16_trials.csv").exists()
        summary = json.loads((tmp_path / "mmax_sweep_n16_summary.json").read_text())
        assert summary["trials"] == 50
        assert summary["base_seed"] == 0

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 16, "t": 2, "theta": 0.05, "e_max_target": 2,
            "trials": 3, "base_seed": 7,
        }))
        out_dir = tmp_path / "artifacts"
        code = main(["row-recovery", "--config", str(cfg),
                     "--trials", "5", "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "row_recovery_n16_summary.json").read_text())
        assert summary["trials"] == 5          # flag wins
        assert summary["base_seed"] == 7       # config survives
        csv_lines = (out_dir / "row_recovery_n16_trials.csv").read_text().splitlines()
        assert len(csv_lines) == 6

    def test_sweep_flag_emits_per_width(self, tmp_path, capsys):
        code = main([
            "mmin-sweep", "--n", "8", "--t", "4", "--theta", "0.4",
            "--e-max", "2", "--trials", "10", "--sweep", "8,16",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "mmin_sweep_n8_summary.json").exists()
        assert (tmp_path / "mmin_sweep_n16_summary.json").exists()
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_tail_bounds_writes_table(self, tmp_path):
        code = main(["tail-bounds", "--n", "64", "--t", "8", "--theta", "0.05",
                     "--e-max", "2", "--out", str(tmp_path)])
        assert code == 0
        table = tmp_path / "tail_bounds_n64_table.csv"
        assert table.exists()
        assert table.read_text().splitlines()[0].startswith("n,t,theta,")

    def test_infeasible_config_exits_one(self, tmp_path, capsys):
        code = main(["row-recovery", "--n", "4", "--t", "2", "--theta", "0.1",
                     "--e-max", "9", "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_tol_exits_one_without_summary(self, tmp_path, capsys):
        code = main(["row-recovery", "--n", "8", "--t", "2", "--theta", "0.1",
                     "--e-max", "1", "--tol", "nan", "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("*summary.json"))

    def test_missing_required_field_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "t": 2}))
        code = main(["row-recovery", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "missing required field" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"tol": None}, {"n": [16]}, {"sweep": 16},
                                     {"output_path": 5}, {"n": 16.9}, {"trials": True},
                                     {"sweep": [8, 16.5]}, {"theta": True}, {"theta": "0.1"},
                                     {"tol": True}, {"sweep": "16"}, {"--sweep": "8,a"}],
                             ids=["null-tol", "list-n", "number-sweep", "number-output-path",
                                  "fractional-n", "bool-trials", "fractional-sweep",
                                  "bool-theta", "string-theta", "bool-tol", "string-sweep",
                                  "bad-sweep-flag"])
    def test_malformed_config_value_exits_one(self, tmp_path, monkeypatch, capsys, bad):
        # a key starting with "--" is a command-line flag instead of a config field
        monkeypatch.chdir(tmp_path)  # the default output directory
        ((field, value),) = bad.items()
        flags = [field, value] if field.startswith("--") else []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 16, "t": 2, "theta": 0.1, "e_max_target": 2,
                                   **({} if flags else bad)}))
        code = main(["row-recovery", "--config", str(cfg), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert err.startswith(f"error: {field} "), err  # the message names the field
        if flags:
            assert "'a'" in err, err  # and the bad token
        assert not list(tmp_path.glob("*summary.json"))

    def test_negative_seed_names_the_field(self, tmp_path, capsys):
        code = main(["mmax-sweep", "--n", "8", "--t", "2", "--theta", "0.1",
                     "--e-max", "1", "--seed", "-1", "--out", str(tmp_path)])
        assert code == 1
        assert "base_seed must be non-negative" in capsys.readouterr().err
        assert not list(tmp_path.glob("*summary.json"))

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        code = main(["row-recovery", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"n": 16, "t": 2, "theta": 0.1, "e_max_target": 2}]))
        code = main(["row-recovery", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "must hold a JSON object" in capsys.readouterr().err
        assert not list(tmp_path.glob("*summary.json"))


class TestTransformCommand:
    def test_flat_spectrum_to_stdout(self, tmp_path, capsys):
        src = tmp_path / "sig.json"
        src.write_text(delta_signal_json())
        code = main(["transform", "--input", str(src), "--kind", "fourier2d"])
        assert code == 0
        out = signal_from_json(capsys.readouterr().out.strip())
        assert np.allclose(out.values, INV_SQRT_12, atol=1e-15)

    def test_roundtrip_through_files(self, tmp_path):
        src = tmp_path / "sig.json"
        mid = tmp_path / "mid.json"
        back = tmp_path / "back.json"
        src.write_text(delta_signal_json())
        assert main(["transform", "--input", str(src), "--kind", "gabor-row",
                     "--out", str(mid)]) == 0
        assert main(["transform", "--input", str(mid), "--kind", "gabor-row",
                     "--inverse", "--out", str(back)]) == 0
        orig = signal_from_json(src.read_text())
        restored = signal_from_json(back.read_text())
        assert np.allclose(restored.values, orig.values, atol=1e-12)

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = main(["transform", "--input", str(tmp_path / "none.json"),
                     "--kind", "gabor-col"])
        assert code == 2
        assert "cannot read signal" in capsys.readouterr().err

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        src = tmp_path / "sig.json"
        src.write_text(delta_signal_json())
        code = main(["transform", "--input", str(src), "--kind", "fourier2d",
                     "--out", str(tmp_path / "missing_dir" / "x.json")])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_malformed_signal_exits_one(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"n": 2, "t": 2, "re": [1], "im": [0]}))
        code = main(["transform", "--input", str(src), "--kind", "fourier2d"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_integral_dims_exit_one(self, tmp_path, capsys):
        # n=2.9 must not load as a 2-wide signal
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"n": 2.9, "t": 1, "re": [1, 0], "im": [0, 0]}))
        code = main(["transform", "--input", str(src), "--kind", "fourier2d"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    src = tmp_path / "sig.json"
    src.write_text(delta_signal_json())
    # the subprocess imports the package from this checkout, installed or not
    checkout_src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=checkout_src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "gabor_recover", "transform",
         "--input", str(src), "--kind", "fourier2d"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    out = signal_from_json(proc.stdout.strip())
    assert np.allclose(out.values, INV_SQRT_12, atol=1e-15)
