import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import concolic_dnn
from concolic_dnn.cli import main
from concolic_dnn.network import Conv2D, Dense, Flatten, MaxPool, Network, forward, save_model

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

    def test_non_integer_labels_exit_code(self, workspace, capsys):
        np.save(workspace["refs"] / "labels.npy", np.full(300, 1.7))
        out = workspace["dir"] / "out_labels"
        assert main(base_args(workspace, out)) == 2
        assert "labels must be integers" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_d_seed_file_exit_code(self, workspace, capsys):
        # read as a one-entry seed, which the 4-input model rejects
        seeds = workspace["dir"] / "seed0d.npy"
        np.save(seeds, np.float64(0.5))
        out = workspace["dir"] / "out_seed_0d"
        args = base_args(workspace, out)
        args[args.index(str(workspace["seeds"]))] = str(seeds)
        assert main(args) == 2
        assert "seed 0 has 1 entries, the model takes 4" in capsys.readouterr().err
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

    @pytest.mark.parametrize("layer, field, value", [
        (None, "input_shape", [4.7, 4, 1]), (None, "input_shape", ["4", 4, 1]), (None, "input_shape", [4.0, 4, 1]),
        (0, "relu", "false"), (3, "relu", "no"), (3, "relu", 1),
        (0, "stride", [1.9, 1]), (0, "stride", [True, 1]), (1, "window", [1.5, 1]),
        (3, "rellu", True),  # an unknown key: loaded as a layer without it
    ])
    def test_malformed_model_field_exit_code(self, workspace, layer, field, value, capsys):
        # each value loaded as a valid one before the model reader stopped casting
        model = workspace["dir"] / "malformed.json"
        save_model(Network((4, 4, 1), [Conv2D(np.ones((1, 1, 1, 1)), np.zeros(1)), MaxPool((2, 2)), Flatten(),
                                       Dense(np.ones((4, 2)), np.zeros(2), relu=False)]), str(model))
        doc = json.loads(model.read_text())
        (doc if layer is None else doc["layers"][layer])[field] = value
        model.write_text(json.dumps(doc))
        out = workspace["dir"] / "out_malformed"
        args = base_args(workspace, out)
        args[args.index(str(workspace["model"]))] = str(model)
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:") and field in err[0]
        assert layer is None or f"layer {layer}: " in err[0]
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


class TestImageShapedInputs:
    """A 4x4x1 model's references and seeds as (N, 4, 4, 1) arrays: each row
    is flattened, and the run matches one on the same rows as (N, 16)."""

    @pytest.fixture
    def image_workspace(self, tmp_path):
        rng = np.random.default_rng(5)
        net = Network((4, 4, 1), [
            Conv2D(rng.normal(size=(2, 2, 1, 2)) / 2.0, rng.normal(size=2) * 0.1),
            Flatten(),
            Dense(rng.normal(size=(18, 3)) / np.sqrt(18), np.zeros(3), relu=False),
        ])
        save_model(net, str(tmp_path / "model.json"))
        images = rng.uniform(0, 1, (20, 4, 4, 1))
        for name, inputs in (("refs_image", images), ("refs_flat", images.reshape(20, 16))):
            (tmp_path / name).mkdir()
            np.save(tmp_path / name / "inputs.npy", inputs)
        np.save(tmp_path / "seeds.npy", images[:2])
        return tmp_path

    def run_args(self, ws, refs, out):
        return ["--model", str(ws / "model.json"), "--criterion", "nc", "--seeds", str(ws / "seeds.npy"),
                "--refs", str(ws / refs), "--out", str(ws / out), "--rng-seed", "3"]

    def test_run_and_verify(self, image_workspace, capsys):
        ws = image_workspace
        assert main(self.run_args(ws, "refs_image", "out_image")) == 0
        assert main(self.run_args(ws, "refs_flat", "out_flat")) == 0
        assert (ws / "out_image" / "report.json").read_bytes() == (ws / "out_flat" / "report.json").read_bytes()
        capsys.readouterr()
        assert main(["verify", "--out", str(ws / "out_image"), "--model", str(ws / "model.json"),
                     "--refs", str(ws / "refs_image")]) == 0
        assert "all good" in capsys.readouterr().out


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

    @pytest.mark.parametrize("content", [None, b"not an npy file", np.full(4, np.nan)])
    def test_verify_unreadable_record_fails(self, workspace, content, capsys):
        out = workspace["dir"] / "vout5"
        self.run_first(workspace, out)
        report = json.loads((out / "report.json").read_text())
        report["adversarial"].append({"file": "adv99999.npy"})
        (out / "report.json").write_text(json.dumps(report))
        if content is not None:  # None: the record's file does not exist
            (out / "adversarial").mkdir(exist_ok=True)
            record = out / "adversarial" / "adv99999.npy"
            if isinstance(content, bytes):
                record.write_bytes(content)
            else:  # a readable vector the network cannot forward
                np.save(record, content)
        capsys.readouterr()
        assert main(self.verify_args(workspace, out)) == 1
        printed = capsys.readouterr().out
        assert "adv99999.npy: cannot check" in printed and "-> FAIL" in printed

    @pytest.mark.parametrize("records", [[{"test_index": 0}], [{"file": 3}], ["adv00000.npy"], "x", {"file": "a"}])
    def test_verify_malformed_adversarial_list_exit_code(self, workspace, records, capsys):
        out = workspace["dir"] / "vout7"
        self.run_first(workspace, out)
        report = json.loads((out / "report.json").read_text())
        report["adversarial"] = records
        (out / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert main(self.verify_args(workspace, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "malformed adversarial" in err and err.count("\n") == 1

    @pytest.mark.parametrize("bound, flag", [("0.3", None), (None, None), (True, None), (-0.1, None),
                                             (0.3, "0"), (0.3, "nan"), (0.3, "inf")])
    def test_verify_bad_bound_exit_code(self, workspace, bound, flag, capsys):
        out = workspace["dir"] / "vout8"
        self.run_first(workspace, out)
        report = json.loads((out / "report.json").read_text())
        report["config"]["bound"] = bound
        (out / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        extra = [] if flag is None else ["--bound", flag]
        assert main(self.verify_args(workspace, out) + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "bound" in err and err.count("\n") == 1
