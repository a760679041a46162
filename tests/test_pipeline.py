import dataclasses
import json
import math

import numpy as np
import pytest

from fsrecon.cli import main as cli_main
from fsrecon.grid import ImageGrid, SamplingMask
from fsrecon.imgio import read_pgm, write_pgm
from fsrecon.pipeline import (
    METHODS,
    ExperimentConfig,
    RunReport,
    psnr,
    run_experiment,
    run_method,
)
from fsrecon.weighting import FsrParams


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
        assert [row.psnr_db for row in r1.rows] == [row.psnr_db for row in r2.rows]

    def test_csv_round_trip(self, test_image, tmp_path):
        cfg = ExperimentConfig(
            images=[test_image],
            densities=[0.3, 0.6],
            seeds=[1, 2],
            methods=["nn", "lin", "fsr-ap"],
            params=FsrParams(block_size=4, border=4, iterations=5),
            output_dir=str(tmp_path),
        )
        report = run_experiment(cfg)
        back = RunReport.read_csv(tmp_path / "report.csv")
        assert len(back.rows) == len(report.rows) == 12
        for a, b in zip(report.rows, back.rows):
            assert a == b

    def test_unreadable_input_recorded_and_continues(self, test_image, tmp_path):
        cfg = ExperimentConfig(
            images=["/nonexistent/nope.pgm", test_image],
            densities=[0.5],
            seeds=[1],
            methods=["nn"],
            output_dir=str(tmp_path),
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 1

    def test_psnr_non_decreasing_in_density(self, test_image, tmp_path):
        cfg = ExperimentConfig(
            images=[test_image],
            densities=[0.2, 0.5, 0.8],
            seeds=[1, 2, 3],
            methods=["lin"],
            output_dir=str(tmp_path),
        )
        report = run_experiment(cfg)
        means = [
            np.mean([r.psnr_db for r in report.rows if (r.method, r.density) == ("lin", d)])
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
        assert swept.rows[0].psnr_db == direct.rows[0].psnr_db
        assert swept.rows[0].tau == params.tau

        # tau is the outermost axis: two taus over two readable images with
        # an unreadable one between them give the per-tau direct runs in
        # tau order, fsr-ap only whatever the methods
        flipped = tmp_path / "flipped.pgm"
        write_pgm(flipped, ImageGrid(read_pgm(test_image).samples[::-1]))
        cfg = dataclasses.replace(
            cfg,
            images=[test_image, "/nonexistent/nope.pgm", str(flipped)],
            densities=[0.3, 0.5],
            seeds=[1, 2],
            methods=["nn", "fsr-ap"],
        )
        taus = [1.0, 3.0]
        swept = run_experiment(dataclasses.replace(cfg, taus=taus))
        direct = []
        for tau in taus:
            one = dataclasses.replace(
                cfg, methods=["fsr-ap"], params=dataclasses.replace(params, tau=tau)
            )
            direct += run_experiment(one).rows

        def untimed(rows):
            return [dataclasses.replace(r, seconds=0.0) for r in rows]

        assert len(swept.rows) == 16
        assert untimed(swept.rows) == untimed(direct)
        assert [r.tau for r in swept.rows] == [1.0] * 8 + [3.0] * 8


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
        img = read_pgm(out)
        assert (img.height, img.width) == (32, 32)

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

    def test_bench_json_config(self, test_image, tmp_path):
        cfg = {
            "images": [test_image],
            "densities": [0.5],
            "seeds": [1],
            "methods": ["nn", "lin"],
            "iterations": 5,
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["bench", "--config", str(cfg_path)]) == 0
        report = RunReport.read_csv(tmp_path / "out" / "report.csv")
        assert len(report.rows) == 2

    def test_bench_flat_config_with_tau_sweep(self, test_image, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            "\n".join(
                [
                    f"images={test_image}",
                    "densities=0.5",
                    "seeds=1",
                    "block_size=4",
                    "border=4",
                    "iterations=5",
                    "taus=1.0,2.0",
                    f"output_dir={tmp_path / 'sweep'}",
                ]
            )
        )
        assert cli_main(["bench", "--config", str(cfg_path)]) == 0
        report = RunReport.read_csv(tmp_path / "sweep" / "tau_sweep.csv")
        assert sorted({r.tau for r in report.rows}) == [1.0, 2.0]

    @pytest.mark.parametrize("axis", ["densities", "seeds", "taus"])
    def test_bench_empty_axis_exits_with_message(self, test_image, tmp_path, capsys, axis):
        lines = [f"images={test_image}", "densities=0.5", "seeds=1", "methods=nn"]
        lines = [ln for ln in lines if not ln.startswith(axis)] + [f"{axis}="]
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("\n".join(lines + [f"output_dir={tmp_path / 'out'}"]))
        assert cli_main(["bench", "--config", str(cfg_path)]) == 1
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
            ("seed=5", "seed"),  # a typo for seeds
            ('"prior_kind": "otf"', "prior_kind"),  # the method sets the prior
            ('"densities": 0.3', "densities"),
            ('"densities": null', "densities"),
            ('"seeds": [1.7]', "seeds"),
            ('"iterations": true', "iterations"),
            ("iterations=2.5", "iterations"),
        ],
    )
    def test_bench_malformed_config_exits_with_message(
        self, test_image, tmp_path, capsys, entry, key
    ):
        out = tmp_path / "out"
        if "=" in entry:
            lines = [f"images={test_image}", "densities=0.5", "methods=nn", entry]
            cfg_path = tmp_path / "cfg.txt"
            cfg_path.write_text("\n".join(lines + [f"output_dir={out}"]))
        else:
            cfg = {"images": [test_image], "densities": [0.5], "methods": ["fsr-ap"]}
            cfg.update(json.loads("{" + entry + "}"))
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({**cfg, "output_dir": str(out)}))
        assert cli_main(["bench", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert key in err
        assert not out.exists()
