import csv
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fsrecon.cli
from fsrecon.cli import main as cli_main
from fsrecon.grid import ImageGrid, SamplingMask
from fsrecon.imgio import read_image, write_pgm
from fsrecon.pipeline import (
    METHODS,
    ExperimentConfig,
    psnr,
    run_experiment,
    run_method,
)
from fsrecon.weighting import FsrParams


def read_records(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def test_image(tmp_path_factory):
    rng = np.random.default_rng(99)
    r, c = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    smooth = 120 + 60 * np.sin(2 * np.pi * r / 16) * np.cos(2 * np.pi * c / 12)
    img = ImageGrid(np.clip(smooth + rng.normal(0, 5, (32, 32)), 0, 255))
    path = tmp_path_factory.mktemp("data") / "img.pgm"
    write_pgm(path, img)
    return str(path)


class TestPsnr:
    def test_identical_is_inf(self):
        img = ImageGrid(np.full((4, 4), 8.0))
        assert psnr(img, img) == math.inf

    def test_opposite_extremes(self):
        a = ImageGrid(np.zeros((4, 4)))
        b = ImageGrid(np.full((4, 4), 255.0))
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mse(self):
        a = ImageGrid(np.zeros((4, 4)))
        b = ImageGrid(np.ones((4, 4)))
        assert psnr(a, b) == pytest.approx(48.1308036086791, abs=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(ImageGrid(np.zeros((4, 4))), ImageGrid(np.zeros((4, 5))))


class TestRunExperiment:
    def test_determinism(self, test_image, tmp_path):
        cfg = ExperimentConfig(
            images=[test_image],
            densities=[0.5],
            seeds=[1],
            methods=["nn"],
            output_dir=str(tmp_path),
        )
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert [row.psnr_db for row in r1] == [row.psnr_db for row in r2]

    def test_csv_round_trip(self, test_image, tmp_path):
        cfg = ExperimentConfig(
            images=[test_image],
            densities=[0.3, 0.6],
            seeds=[1, 2],
            methods=["nn", "lin", "fsr-ap"],
            params=FsrParams(block_size=4, border=4, iterations=5),
            output_dir=str(tmp_path),
        )
        rows = run_experiment(cfg)
        with open(tmp_path / "report.csv", newline="") as fh:
            header, *records = csv.reader(fh)
        assert header == "image,density,seed,method,tau,psnr_db,seconds,fallback_blocks".split(",")
        assert len(records) == len(rows) == 12
        assert any(row.tau is None for row in rows)
        for row, record in zip(rows, records):
            assert record == ["" if v is None else str(v) for v in dataclasses.astuple(row)]

    def test_unreadable_input_recorded_and_continues(self, test_image, tmp_path):
        cfg = ExperimentConfig(
            images=["/nonexistent/nope.pgm", test_image],
            densities=[0.5],
            seeds=[1],
            methods=["nn"],
            output_dir=str(tmp_path),
        )
        rows = run_experiment(cfg)
        assert len(rows) == 1

    def test_psnr_non_decreasing_in_density(self, test_image, tmp_path):
        cfg = ExperimentConfig(
            images=[test_image],
            densities=[0.2, 0.5, 0.8],
            seeds=[1, 2, 3],
            methods=["lin"],
            output_dir=str(tmp_path),
        )
        rows = run_experiment(cfg)
        means = [
            np.mean([r.psnr_db for r in rows if (r.method, r.density) == ("lin", d)])
            for d in cfg.densities
        ]
        assert means == sorted(means)


class TestSweepTau:
    def test_single_tau_matches_direct_run(self, test_image, tmp_path):
        params = FsrParams(block_size=4, border=4, iterations=5)
        cfg = ExperimentConfig(
            images=[test_image],
            densities=[0.4],
            seeds=[1],
            methods=["fsr-ap"],
            params=params,
            output_dir=str(tmp_path),
        )
        direct = run_experiment(cfg)
        swept = run_experiment(dataclasses.replace(cfg, taus=[params.tau]))
        assert swept[0].psnr_db == direct[0].psnr_db
        assert swept[0].tau == params.tau

        # tau is the outermost axis: two taus over two readable images with
        # an unreadable one between them give, for fsr-ap, the per-tau
        # direct runs in tau order; the other listed methods run at every tau
        flipped = tmp_path / "flipped.pgm"
        write_pgm(flipped, ImageGrid(read_image(test_image).samples[::-1]))
        cfg = dataclasses.replace(
            cfg,
            images=[test_image, "/nonexistent/nope.pgm", str(flipped)],
            densities=[0.3, 0.5],
            seeds=[1, 2],
            methods=["nn", "fsr-ap"],
        )
        taus = [1.0, 3.0]
        swept = run_experiment(dataclasses.replace(cfg, taus=taus))
        records = read_records(tmp_path / "report.csv")
        direct = []
        for tau in taus:
            one = dataclasses.replace(
                cfg, methods=["fsr-ap"], params=dataclasses.replace(params, tau=tau)
            )
            direct += run_experiment(one)
        nn_once = run_experiment(dataclasses.replace(cfg, methods=["nn"]))

        def untimed(rows):
            return [dataclasses.replace(r, seconds=0.0) for r in rows]

        assert len(swept) == 32
        assert untimed(r for r in swept if r.method == "fsr-ap") == untimed(direct)
        assert [r.tau for r in swept if r.method == "fsr-ap"] == [1.0] * 8 + [3.0] * 8
        nn_rows = [r for r in swept if r.method == "nn"]
        assert untimed(nn_rows) == untimed(nn_once) * 2
        assert [r.method for r in swept] == ["nn", "fsr-ap"] * 16
        assert [(r["method"], r["tau"]) for r in records] == [
            (r.method, "" if r.tau is None else str(r.tau)) for r in swept
        ]
        assert not (tmp_path / "tau_sweep.csv").exists()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [-1.0, 255.5, 1000.0])
def test_known_sample_out_of_range_raises_for_every_method(method, bad):
    samples = np.full((8, 8), 100.0)
    samples[3, 5] = bad
    mask = SamplingMask(np.arange(64).reshape(8, 8) % 3 == 2)  # (3, 5) is known
    params = FsrParams(block_size=4, border=2, iterations=5)
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        run_method(method, ImageGrid(samples), mask, params)


def test_mask_size_mismatch_raises_for_every_method():
    image = ImageGrid(np.zeros((8, 8)))
    mask = SamplingMask(np.ones((9, 8), dtype=bool))
    params = FsrParams(block_size=4, border=2, iterations=5)
    for method in METHODS:
        with pytest.raises(ValueError, match="dimensions differ"):
            run_method(method, image, mask, params)


@pytest.mark.parametrize("taus", [[-1.0], [1.0, -1.0], [2.0, 0.0], [float("nan")]])
def test_config_rejects_a_non_positive_tau_before_running(taus):
    with pytest.raises(ValueError, match=f"tau must be positive, got {taus[-1]}"):
        ExperimentConfig(
            images=["img.pgm"], densities=[0.5], seeds=[1], methods=["nn"], taus=taus
        )


def test_config_defaults_to_seed_0_and_every_method():
    cfg = ExperimentConfig(images=["img.pgm"], densities=[0.5])
    assert (cfg.seeds, cfg.methods, cfg.taus) == ([0], list(METHODS), None)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"seeds": [1.5]}, "each of seeds must be an integer, got 1.5"),
        ({"seeds": [True]}, "each of seeds must be an integer, got True"),
        ({"densities": [True]}, "each of densities must be a real number, got True"),
        ({"densities": ["0.3"]}, "each of densities must be a real number, got '0.3'"),
        ({"images": [5]}, "each of images must be a string, got 5"),
        ({"methods": [5]}, "unknown method 5"),
        ({"taus": [True]}, "tau must be a real number, got True"),
        ({"densities": 0.5}, "densities must be a list, got 0.5"),
        ({"images": "img.pgm"}, "images must be a list, got 'img.pgm'"),
        ({"taus": (1.0,)}, "taus must be a list, got (1.0,)"),
        ({"output_dir": None}, "output_dir must be a string, got None"),
        ({"params": {}}, "params must be an FsrParams, got {}"),
    ],
)
def test_config_rejects_a_mistyped_value(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**{"images": ["img.pgm"], "densities": [0.5], **kwargs})


@pytest.mark.parametrize("seeds", [[-1], [1, -1], [0, 2, -3]])
def test_config_rejects_a_negative_seed_before_running(seeds):
    with pytest.raises(ValueError, match=f"seeds must be non-negative, got {seeds[-1]}"):
        ExperimentConfig(images=["img.pgm"], densities=[0.5], seeds=seeds, methods=["nn"])


class TestCli:
    def test_reconstruct_round_trip(self, test_image, tmp_path):
        out = tmp_path / "out.pgm"
        rc = cli_main(
            [
                "reconstruct",
                "--input", test_image,
                "--density", "0.5",
                "--seed", "3",
                "--method", "nn",
                "--output", str(out),
            ]
        )
        assert rc == 0
        img = read_image(out)
        assert (img.height, img.width) == (32, 32)

    @pytest.mark.parametrize(
        "source", [["--mask", "m.pbm", "--density", "0.5"], []], ids=["both", "neither"]
    )
    def test_reconstruct_takes_exactly_one_mask_source(self, test_image, tmp_path, capsys, source):
        out = tmp_path / "out.pgm"
        argv = ["reconstruct", "--input", test_image, *source, "--method", "nn", "--output", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert not out.exists()
        assert "--mask" in capsys.readouterr().err

    def test_reconstruct_rejects_seed_without_density(self, test_image, tmp_path, capsys):
        mask = tmp_path / "m.pbm"
        mask.write_bytes(b"P4\n32 32\n" + bytes(128))
        out = tmp_path / "out.pgm"
        argv = ["reconstruct", "--input", test_image, "--mask", str(mask), "--seed", "7",
                "--method", "nn", "--output", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert not out.exists()
        assert "--seed" in capsys.readouterr().err

    def test_bad_density_exits_nonzero(self, test_image, tmp_path):
        rc = cli_main(
            [
                "reconstruct",
                "--input", test_image,
                "--density", "1.5",
                "--method", "nn",
                "--output", str(tmp_path / "x.pgm"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tau", "nan"], "tau must be positive, got nan"),
            (["--seed", "-1"], "seed must be non-negative, got -1"),
        ],
    )
    def test_reconstruct_bad_value_exits_with_message(
        self, test_image, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "out.pgm"
        rc = cli_main(
            [
                "reconstruct",
                "--input", test_image,
                "--density", "0.5",
                "--method", "fsr-ap",
                "--output", str(out),
                *flags,
            ]
        )
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    # one valid non-default value and one rejected value per FsrParams field
    PARAM_VALUES = {
        "rho_hat": ("0.5", "1.5"),
        "delta": ("0.25", "0"),
        "gamma": ("0.75", "2"),
        "tau": ("3", "-1"),
        "block_size": ("2", "0"),
        "border": ("3", "-1"),
        "iterations": ("7", "0"),
    }

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(FsrParams)])
    def test_reconstruct_flag_per_param_field(self, test_image, tmp_path, capsys, monkeypatch, name):
        seen = []

        def run_nn(method, image, mask, params):
            seen.append(params)
            return run_method("nn", image, mask, params)

        monkeypatch.setattr(fsrecon.cli, "run_method", run_nn)
        flag = "--" + name.replace("_", "-")
        good, bad = self.PARAM_VALUES[name]
        kind = type(getattr(FsrParams(), name))
        out = tmp_path / "out.pgm"
        argv = ["reconstruct", "--input", test_image, "--density", "0.5", "--method", "fsr-ap",
                "--output", str(out)]
        assert cli_main([*argv, flag, good]) == 0
        assert seen == [FsrParams(**{name: kind(good)})]
        assert type(getattr(seen[0], name)) is kind
        out.unlink()

        assert cli_main([*argv, flag, bad]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert name in err

        if kind is int:  # a float is a usage error naming the flag
            with pytest.raises(SystemExit) as exc:
                cli_main([*argv, flag, "2.5"])
            assert exc.value.code == 2
            assert f"argument {flag}: invalid int value" in capsys.readouterr().err
        assert len(seen) == 1

    def test_reconstruct_rejects_the_old_iters_flag(self, test_image, tmp_path):
        out = tmp_path / "out.pgm"
        with pytest.raises(SystemExit) as exc:
            cli_main(["reconstruct", "--input", test_image, "--density", "0.5", "--method", "nn",
                      "--output", str(out), "--iters", "5"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_reconstruct_16bit_pgm_exits_with_message(self, tmp_path, capsys):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n4 4\n65535\n" + np.full(16, 1000, dtype=">u2").tobytes())
        out = tmp_path / "out.pgm"
        rc = cli_main(
            [
                "reconstruct",
                "--input", str(path),
                "--density", "0.5",
                "--method", "fsr-ap",
                "--output", str(out),
            ]
        )
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "maxval 65535" in err

    def test_reconstruct_sample_above_maxval_exits_with_message(self, tmp_path, capsys):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 7, 15, 200]))
        out = tmp_path / "out.pgm"
        rc = cli_main(
            ["reconstruct", "--input", str(path), "--density", "0.5", "--method", "nn",
             "--output", str(out)]
        )
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "sample 200 exceeds maxval 15" in err

    @pytest.mark.parametrize("truncated", ["input", "mask"])
    def test_reconstruct_truncated_file_exits_with_message(
        self, test_image, tmp_path, capsys, truncated
    ):
        short_pgm = tmp_path / "short.pgm"
        short_pgm.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        short_pbm = tmp_path / "short.pbm"
        short_pbm.write_bytes(b"P4\n32 32\n" + bytes(100))  # 128 bytes expected
        inputs = {
            "input": ["--input", str(short_pgm), "--density", "0.5"],
            "mask": ["--input", test_image, "--mask", str(short_pbm)],
        }[truncated]
        out = tmp_path / "out.pgm"
        rc = cli_main(["reconstruct", *inputs, "--method", "nn", "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "truncated pixel data" in err

    def test_reconstruct_png_input_exits_with_message(self, tmp_path, capsys):
        png = tmp_path / "x.png"
        png.write_bytes(b"\x89PNG\r\n\x1a\n")
        out = tmp_path / "out.pgm"
        argv = ["reconstruct", "--input", str(png), "--density", "0.5", "--method", "nn",
                "--output", str(out)]
        assert cli_main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "only PGM images" in err

    def test_bench_png_image_logged_and_skipped(self, test_image, tmp_path, caplog):
        png = tmp_path / "x.png"
        png.write_bytes(b"\x89PNG\r\n\x1a\n")
        cfg = {"images": [str(png), test_image], "densities": [0.5], "seeds": [1],
               "methods": ["nn"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        records = read_records(tmp_path / "out" / "report.csv")
        assert [r["image"] for r in records] == [test_image]
        assert f"skipping {png}" in caplog.text
        assert "only PGM images" in caplog.text

    def test_bench_json_config(self, test_image, tmp_path):
        cfg = {
            "images": [test_image],
            "densities": [0.5],
            "seeds": [1],
            "methods": ["nn", "lin"],
            "iterations": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert len(read_records(tmp_path / "out" / "report.csv")) == 2

    def test_bench_taus_axis_runs_every_method(self, test_image, tmp_path):
        cfg = {
            "images": [test_image],
            "densities": [0.5],
            "seeds": [1],
            "methods": ["fsr-ap", "nn"],
            "block_size": 4,
            "border": 4,
            "iterations": 5,
            "taus": [1.0, 2.0],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "sweep")]) == 0
        records = read_records(tmp_path / "sweep" / "report.csv")
        assert [(r["method"], r["tau"]) for r in records] == [
            ("fsr-ap", "1.0"), ("nn", ""), ("fsr-ap", "2.0"), ("nn", "")
        ]
        assert not (tmp_path / "sweep" / "tau_sweep.csv").exists()

    def test_bench_without_out_writes_into_the_working_directory(
        self, test_image, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        cfg = {"images": [test_image], "densities": [0.5], "seeds": [1],
               "methods": ["fsr-ap", "nn"], "iterations": 2}
        Path("cfg.json").write_text(json.dumps(cfg))
        assert cli_main(["bench", "--config", "cfg.json"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "report.csv"]
        records = read_records(tmp_path / "report.csv")
        assert [r["tau"] for r in records] == ["2.0", ""]  # taus defaults to [2.0]
        assert capsys.readouterr().out == "2 runs written to .\n"

    @pytest.mark.parametrize(
        "text",
        [
            "images=img.pgm\ndensities=0.5\nmethods=nn\n",  # the old flat syntax
            '["img.pgm"]',
            '{"images": ["img.pgm"],',
        ],
        ids=["flat", "not-an-object", "truncated"],
    )
    def test_bench_non_json_object_config_exits_with_message(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        before = sorted(tmp_path.iterdir())
        assert cli_main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(cfg_path) in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("axis", ["densities", "seeds", "taus"])
    def test_bench_empty_axis_exits_with_message(self, test_image, tmp_path, capsys, axis):
        cfg = {"images": [test_image], "densities": [0.5], "seeds": [1], "methods": ["nn"]}
        cfg[axis] = []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{axis} must not be empty" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("missing", ["images", "densities"])
    def test_bench_config_missing_key_exits_with_message(
        self, test_image, tmp_path, capsys, missing
    ):
        cfg = {"images": [test_image], "densities": [0.5], "methods": ["nn"]}
        del cfg[missing]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["bench", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"lacks required key(s): {missing}" in err

    @pytest.mark.parametrize(
        "entry, key",
        [
            pytest.param('"seed": 5', "seed", id="seed=5-seed"),  # a typo for seeds
            ('"prior_kind": "otf"', "prior_kind"),  # not a key: the method sets the prior
            ('"densities": 0.3', "densities"),
            ('"densities": null', "densities"),
            ('"seeds": [1.7]', "seeds"),
            ('"iterations": true', "iterations"),
            pytest.param('"iterations": 2.5', "iterations", id="iterations=2.5-iterations"),
            ('"iterations": 2.0', "iterations"),
            ('"tau": "2"', "tau"),
            ('"densities": ["0.3"]', "densities"),
            ('"params": {}', "params"),
            # tau is set only by taus, and the directory only by --out
            pytest.param('"tau": 3.0', "unknown key(s): tau", id="tau"),
            pytest.param('"tau": 3.0, "taus": [1.0]', "unknown key(s): tau", id="tau-and-taus"),
            pytest.param('"output_dir": "elsewhere"', "unknown key(s): output_dir", id="output_dir"),
        ],
    )
    def test_bench_malformed_config_exits_with_message(
        self, test_image, tmp_path, capsys, monkeypatch, entry, key
    ):
        monkeypatch.chdir(tmp_path)
        cfg = {"images": [test_image], "densities": [0.5], "methods": ["fsr-ap"]}
        cfg.update(json.loads("{" + entry + "}"))
        Path("cfg.json").write_text(json.dumps(cfg))
        assert cli_main(["bench", "--config", "cfg.json", "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert key in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
