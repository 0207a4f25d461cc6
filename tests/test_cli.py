import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import concolic_dnn
from concolic_dnn.cli import main
from concolic_dnn.network import forward, save_model

from conftest import dense_net


@pytest.fixture
def workspace(tmp_path):
    """Model + refs + seed files ready for a CLI run."""
    net = dense_net([4, 8, 8, 3], seed=1)
    model = tmp_path / "model.json"
    save_model(net, str(model))
    rng = np.random.default_rng(2)
    inputs = rng.uniform(0, 1, (300, 4))
    labels = np.array([forward(net, x).label for x in inputs])
    refs = tmp_path / "refs"
    refs.mkdir()
    np.save(refs / "inputs.npy", inputs)
    np.save(refs / "labels.npy", labels)
    seeds = tmp_path / "seeds.npy"
    np.save(seeds, rng.uniform(0, 1, 4))
    return {"net": net, "model": model, "refs": refs, "seeds": seeds, "dir": tmp_path}


def base_args(ws, out, extra=()):
    return [
        "--model", str(ws["model"]),
        "--criterion", "nc",
        "--seeds", str(ws["seeds"]),
        "--refs", str(ws["refs"]),
        "--out", str(out),
        "--rng-seed", "3",
        *extra,
    ]


class TestRunCommand:
    def test_full_run_produces_artifacts(self, workspace, capsys):
        out = workspace["dir"] / "out"
        code = main(base_args(workspace, out))
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "suite" / "manifest.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["criterion"] == "nc"
        printed = capsys.readouterr().out
        assert "coverage" in printed

    def test_config_error_exit_code(self, workspace):
        out = workspace["dir"] / "out2"
        args = base_args(workspace, out)
        args[args.index("nc")] = "ssc"
        args += ["--norm", "l0"]
        assert main(args) == 2

    def test_missing_refs_exit_code(self, workspace):
        out = workspace["dir"] / "out3"
        args = base_args(workspace, out)
        args[args.index(str(workspace["refs"]))] = str(workspace["dir"] / "nowhere")
        assert main(args) == 2

    @pytest.mark.parametrize(
        "extra",
        [["--bound", "nan"], ["--timeout", "nan"], ["--quantize", "0"], ["--quantize", "-1"]],
    )
    def test_bad_numbers_exit_code(self, workspace, extra):
        out = workspace["dir"] / "out_bad"
        assert main(base_args(workspace, out, extra=extra)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_reference_dimension_mismatch_exit_code(self, workspace, with_labels):
        refs = workspace["dir"] / "refs5"
        refs.mkdir()
        np.save(refs / "inputs.npy", np.zeros((3, 5)))
        if with_labels:
            np.save(refs / "labels.npy", np.zeros(3, dtype=int))
        out = workspace["dir"] / "out_dim"
        args = base_args(workspace, out)
        args[args.index(str(workspace["refs"]))] = str(refs)
        assert main(args) == 2
        assert not out.exists()

    def test_seed_dimension_mismatch_exit_code(self, workspace):
        seeds = workspace["dir"] / "seeds3.npy"
        np.save(seeds, np.zeros(3))
        out = workspace["dir"] / "out_seed_dim"
        args = base_args(workspace, out)
        args[args.index(str(workspace["seeds"]))] = str(seeds)
        assert main(args) == 2
        assert not out.exists()

    def test_dump_lp_writes_problems(self, workspace):
        out = workspace["dir"] / "out4"
        code = main(base_args(workspace, out, extra=["--dump-lp"]))
        assert code == 0
        lp_files = list((out / "lp").glob("*.lp"))
        assert lp_files
        text = lp_files[0].read_text()
        assert text.startswith("Minimize")

    def test_lipschitz_run_writes_csv(self, workspace):
        out = workspace["dir"] / "out5"
        args = base_args(workspace, out)
        args[args.index("nc")] = "lipschitz"
        args += ["--lip-c", "0.05", "--lip-delta", "0.1", "--timeout", "120"]
        code = main(args)
        assert code == 0
        csv = (out / "lipschitz.csv").read_text().strip().splitlines()
        assert csv[0] == "seed,method,best_ratio,satisfied,forward_evals"
        assert len(csv) > 1

    @pytest.mark.parametrize(
        "extra",
        [["--lip-c", "0"], ["--lip-c", "-1"], ["--lip-c", "nan"], ["--lip-c", "inf"],
         ["--lip-delta", "0"], ["--lip-delta", "nan"], ["--lip-delta", "inf"]],
    )
    def test_bad_lipschitz_numbers_exit_code(self, workspace, extra, capsys):
        out = workspace["dir"] / "out_bad_lip"
        args = base_args(workspace, out, extra=extra)
        args[args.index("nc")] = "lipschitz"
        assert main(args) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_timeout_exit_code(self, workspace):
        out = workspace["dir"] / "out7"
        args = base_args(workspace, out, extra=["--timeout", "0.000001"])
        assert main(args) == 3

    @pytest.mark.parametrize("content", [None, "{not json", '{"input_shape": [4]}',
                                         '{"input_shape": [null], "layers": []}'])
    def test_unreadable_model_exit_code(self, workspace, content, capsys):
        model = workspace["dir"] / "bad_model.json"
        if content is not None:  # None: the file does not exist
            model.write_text(content)
        out = workspace["dir"] / "out_bad_model"
        args = base_args(workspace, out)
        args[args.index(str(workspace["model"]))] = str(model)
        assert main(args) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["seeds", "refs"])
    def test_unreadable_npy_exit_code(self, workspace, which, capsys):
        bad = workspace["dir"] / "bad.npy"
        bad.write_text("not an npy file")
        if which == "refs":
            refs = workspace["dir"] / "bad_refs"
            refs.mkdir()
            (refs / "inputs.npy").write_bytes(bad.read_bytes())
            bad = refs
        out = workspace["dir"] / "out_bad_npy"
        args = base_args(workspace, out)
        args[args.index(str(workspace[which]))] = str(bad)
        assert main(args) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_directory_input(self, workspace):
        seed_dir = workspace["dir"] / "seed_dir"
        seed_dir.mkdir()
        rng = np.random.default_rng(4)
        for i in range(2):
            np.save(seed_dir / f"s{i}.npy", rng.uniform(0, 1, 4))
        out = workspace["dir"] / "out6"
        args = base_args(workspace, out)
        args[args.index(str(workspace["seeds"]))] = str(seed_dir)
        assert main(args) == 0


def child_pythonpath():
    """PYTHONPATH under which a child interpreter imports the same
    ``concolic_dnn`` as this process: the package's parent directory first
    (``src/``, an editable install or site-packages), then the parent's own
    PYTHONPATH, if any."""
    entries = [os.path.dirname(os.path.dirname(os.path.abspath(concolic_dnn.__file__)))]
    if os.environ.get("PYTHONPATH"):
        entries.append(os.environ["PYTHONPATH"])
    return os.pathsep.join(entries)


class TestCrossProcessDeterminism:
    CHILD_TIMEOUT_S = 120

    def test_fresh_interpreters_agree_byte_for_byte(self, workspace):
        blobs = []
        for i, name in enumerate(("pa", "pb")):
            out = workspace["dir"] / name
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "concolic_dnn.cli", *base_args(workspace, out)],
                    capture_output=True,
                    env={
                        "PYTHONHASHSEED": str(i),
                        "PATH": "/usr/bin:/bin",
                        "PYTHONPATH": child_pythonpath(),
                    },
                    timeout=self.CHILD_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired as exc:
                pytest.fail(
                    f"child run with PYTHONHASHSEED={i} did not finish within "
                    f"{self.CHILD_TIMEOUT_S} s; stderr so far:\n"
                    f"{(exc.stderr or b'').decode()}"
                )
            assert proc.returncode == 0, proc.stderr.decode()
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestVerifyCommand:
    def run_first(self, workspace, out):
        assert main(base_args(workspace, out)) == 0

    def test_verify_passes_on_honest_artifacts(self, workspace, capsys):
        out = workspace["dir"] / "vout"
        self.run_first(workspace, out)
        code = main([
            "verify", "--out", str(out),
            "--model", str(workspace["model"]),
            "--refs", str(workspace["refs"]),
        ])
        assert code == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_detects_tampered_record(self, workspace):
        out = workspace["dir"] / "vout2"
        self.run_first(workspace, out)
        report = json.loads((out / "report.json").read_text())
        if not report["adversarial"]:
            pytest.skip("run produced no adversarial examples to tamper with")
        entry = report["adversarial"][0]
        ref_inputs = np.load(workspace["refs"] / "inputs.npy")
        # overwrite the stored input with its nearest reference: labels now agree
        np.save(out / "adversarial" / entry["file"], ref_inputs[entry["nearest_index"]])
        code = main([
            "verify", "--out", str(out),
            "--model", str(workspace["model"]),
            "--refs", str(workspace["refs"]),
        ])
        assert code == 1

    def verify_args(self, workspace, out, model=None):
        return ["verify", "--out", str(out), "--model", str(model or workspace["model"]),
                "--refs", str(workspace["refs"])]

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_verify_unreadable_model_exit_code(self, workspace, content, capsys):
        out = workspace["dir"] / "vout3"
        self.run_first(workspace, out)
        model = workspace["dir"] / "bad_model.json"
        if content is not None:  # None: the file does not exist
            model.write_text(content)
        assert main(self.verify_args(workspace, out, model)) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_verify_report_without_config_exit_code(self, workspace, capsys):
        out = workspace["dir"] / "vout4"
        self.run_first(workspace, out)
        report = json.loads((out / "report.json").read_text())
        del report["config"]
        (out / "report.json").write_text(json.dumps(report))
        assert main(self.verify_args(workspace, out)) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_verify_missing_suite_exit_code(self, workspace, capsys):
        out = workspace["dir"] / "vout6"
        self.run_first(workspace, out)
        shutil.rmtree(out / "suite")
        capsys.readouterr()
        assert main(self.verify_args(workspace, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read") and err.count("\n") == 1

    @pytest.mark.parametrize("content", [None, b"not an npy file"])
    def test_verify_unreadable_record_fails(self, workspace, content, capsys):
        out = workspace["dir"] / "vout5"
        self.run_first(workspace, out)
        report = json.loads((out / "report.json").read_text())
        report["adversarial"].append({"file": "adv99999.npy"})
        (out / "report.json").write_text(json.dumps(report))
        if content is not None:  # None: the record's file does not exist
            (out / "adversarial").mkdir(exist_ok=True)
            (out / "adversarial" / "adv99999.npy").write_bytes(content)
        capsys.readouterr()
        assert main(self.verify_args(workspace, out)) == 1
        printed = capsys.readouterr().out
        assert "adv99999.npy: cannot check" in printed and "-> FAIL" in printed
