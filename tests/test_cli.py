import json

import numpy as np
import pytest

from tcdm.cli import _config_from, build_parser, main
from tcdm.config import MetricConfig
from tcdm.pointcloud import load_ply, save_ply
from tcdm.synthetic import sphere_cloud

CONFIG_FLAGS = ["--seeds", "12", "--k", "8", "--threads", "1"]


@pytest.fixture(scope="module")
def ply_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    ref = sphere_cloud(900, 4, radius=120.0)
    save_ply(ref, tmp / "a.ply")
    rng = np.random.default_rng(0)
    noisy = ref.positions + rng.normal(0, 1.0, size=ref.positions.shape)
    save_ply(type(ref)(noisy, ref.colors), tmp / "b.ply")
    return tmp


class TestScoreCommand:
    def test_self_pair_prints_finite_q(self, ply_pair, capsys):
        code = main(["score", str(ply_pair / "a.ply"), str(ply_pair / "a.ply")]
                    + CONFIG_FLAGS)
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert np.isfinite(float(out))

    def test_alpha_one_json_q_equals_f1(self, ply_pair, capsys):
        code = main(["score", str(ply_pair / "a.ply"), str(ply_pair / "b.ply"),
                     "--alpha", "1.0", "--json"] + CONFIG_FLAGS)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["q"] == payload["f1"]
        assert "per_patch" not in payload

    def test_verbose_json_includes_patches(self, ply_pair, capsys):
        code = main(["score", str(ply_pair / "a.ply"), str(ply_pair / "b.ply"),
                     "--json", "--verbose"] + CONFIG_FLAGS)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["per_patch"]) == 12

    def test_missing_file_exits_two(self, ply_pair, capsys):
        code = main(["score", str(ply_pair / "a.ply"), str(ply_pair / "missing.ply")])
        err = capsys.readouterr().err
        assert code == 2
        assert "missing.ply" in err

    def test_malformed_header_exits_two(self, ply_pair, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 1\nproperty\nend_header\n")
        code = main(["score", str(ply_pair / "a.ply"), str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: malformed property line (line 4)" in err

    def test_property_declared_twice_exits_two(self, ply_pair, tmp_path, capsys):
        bad = tmp_path / "twice.ply"
        bad.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 1\n"
                        b"property float x\nproperty float y\nproperty float z\n"
                        b"property float x\nproperty uchar red\nproperty uchar green\n"
                        b"property uchar blue\nend_header\n0 0 0 0 1 2 3\n")
        code = main(["score", str(ply_pair / "a.ply"), str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: vertex property 'x' is declared more than once" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_stability_exits_two(self, ply_pair, capsys, value):
        code = main(["score", str(ply_pair / "a.ply"), str(ply_pair / "a.ply"),
                     "--t", value] + CONFIG_FLAGS)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "stability must be finite and > 0" in captured.err

    def test_unknown_flag_exits_one(self, ply_pair):
        with pytest.raises(SystemExit) as exc:
            main(["score", str(ply_pair / "a.ply"), str(ply_pair / "a.ply"),
                  "--bogus-flag"])
        assert exc.value.code == 1

    def test_idempotent_output(self, ply_pair, capsys):
        argv = ["score", str(ply_pair / "a.ply"), str(ply_pair / "b.ply")] + CONFIG_FLAGS
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestDegradeCommand:
    def test_zero_noise_identity(self, ply_pair, capsys):
        out = ply_pair / "zero.ply"
        code = main(["degrade", str(ply_pair / "a.ply"), "geometry_gaussian",
                     "0", "1", str(out)])
        assert code == 0
        a = load_ply(ply_pair / "a.ply")
        z = load_ply(out)
        assert np.array_equal(a.positions, z.positions)
        assert np.array_equal(a.colors, z.colors)

    def test_downsample_half(self, ply_pair):
        out = ply_pair / "half.ply"
        assert main(["degrade", str(ply_pair / "a.ply"), "downsample",
                     "0.5", "1", str(out)]) == 0
        assert load_ply(out).count == int(np.ceil(0.5 * 900))

    def test_repeat_invocation_bitwise_identical(self, ply_pair):
        out1 = ply_pair / "n1.ply"
        out2 = ply_pair / "n2.ply"
        argv = ["degrade", str(ply_pair / "a.ply"), "geometry_gaussian", "0.5", "9"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("kind", ["geometry_gaussian", "color_noise"])
    def test_non_finite_level_exits_two(self, ply_pair, tmp_path, capsys, kind):
        out = tmp_path / "nan.ply"
        assert main(["degrade", str(ply_pair / "a.ply"), kind, "nan", "1", str(out)]) == 2
        assert "level must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_kind_exits_one(self, ply_pair):
        with pytest.raises(SystemExit) as exc:
            main(["degrade", str(ply_pair / "a.ply"), "melt", "0.5", "1", "x.ply"])
        assert exc.value.code == 1


class TestBatchCommand:
    def _write_manifest(self, ply_pair):
        manifest = ply_pair / "m.csv"
        lines = ["reference,distorted,distortion_type,mos"]
        for i, frac in enumerate((0.2, 1.0, 3.0)):
            out = ply_pair / f"lvl{i}.ply"
            main(["degrade", str(ply_pair / "a.ply"), "geometry_gaussian",
                  str(frac), str(i), str(out)])
            lines.append(f"a.ply,lvl{i}.ply,ggn,{-float(i)}")
        manifest.write_text("\n".join(lines) + "\n")
        return manifest

    def test_batch_writes_report(self, ply_pair, capsys):
        manifest = self._write_manifest(ply_pair)
        out = ply_pair / "report.csv"
        code = main(["batch", str(manifest), "--out", str(out)] + CONFIG_FLAGS)
        stdout = capsys.readouterr().out
        assert code == 0
        assert "srocc" in stdout
        lines = out.read_text().strip().splitlines()
        data = [l for l in lines if l and not l.startswith("summary")]
        assert len(data) == 4  # header + 3 rows

    def test_warm_cache_rerun(self, ply_pair, capsys):
        manifest = self._write_manifest(ply_pair)
        out = ply_pair / "report.csv"
        main(["batch", str(manifest), "--out", str(out)] + CONFIG_FLAGS)
        capsys.readouterr()
        assert main(["batch", str(manifest), "--out", str(out)] + CONFIG_FLAGS) == 0
        assert "cache_hits=3" in capsys.readouterr().out

    def test_seeds_override_changes_cache_key(self, ply_pair, capsys):
        manifest = self._write_manifest(ply_pair)
        out = ply_pair / "report.csv"
        main(["batch", str(manifest), "--out", str(out)] + CONFIG_FLAGS)
        capsys.readouterr()
        main(["batch", str(manifest), "--out", str(out), "--seeds", "14",
              "--k", "8", "--threads", "1"])
        assert "cache_hits=0" in capsys.readouterr().out


    def test_missing_report_directory_exits_two(self, ply_pair, capsys):
        manifest = self._write_manifest(ply_pair)
        out = ply_pair / "no_such_dir" / "report.csv"
        code = main(["batch", str(manifest), "--out", str(out)] + CONFIG_FLAGS)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"report directory {str(out.parent)!r} does not exist" in captured.err


class TestConfigFlags:
    @pytest.mark.parametrize("argv", [["score", "a", "b"], ["batch", "m.csv"]])
    def test_defaults_are_the_metric_defaults(self, argv):
        assert _config_from(build_parser().parse_args(argv)) == MetricConfig()

    def test_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["score", "--help"])
        out = capsys.readouterr().out
        assert "(default 400)" in out
        assert "(default sigmoid_proposed)" in out


class TestThreadsVariable:
    @pytest.mark.parametrize("command", ["score", "batch"])
    def test_bad_value_exits_two(self, ply_pair, capsys, monkeypatch, command):
        monkeypatch.setenv("TCDM_THREADS", "abc")
        args = ([str(ply_pair / "a.ply"), str(ply_pair / "a.ply")] if command == "score"
                else [str(ply_pair / "missing.csv")])
        assert main([command, *args, "--seeds", "12", "--k", "8"]) == 2
        err = capsys.readouterr().err
        assert "TCDM_THREADS must be an integer, got 'abc'" in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize("command", ["score", "batch"])
    @pytest.mark.parametrize("env, flag, message", [
        ("0", [], "TCDM_THREADS must be >= 1, got 0"),
        ("2", ["--threads", "-4"], "threads must be >= 1, got -4"),
    ], ids=["env_zero", "flag_negative"])
    def test_count_below_one_exits_two(self, ply_pair, capsys, monkeypatch, command, env,
                                       flag, message):
        monkeypatch.setenv("TCDM_THREADS", env)
        args = ([str(ply_pair / "a.ply"), str(ply_pair / "a.ply")] if command == "score"
                else [str(ply_pair / "missing.csv")])
        assert main([command, *args, "--seeds", "12", "--k", "8", *flag]) == 2
        assert message in capsys.readouterr().err


class TestEndToEnd:
    def test_degrade_then_score_ordering(self, ply_pair, capsys):
        """Full workflow: synthesize two noise levels, scores must rank them."""
        qs = []
        for label, level in (("lo", "0.4"), ("hi", "4.0")):
            out = ply_pair / f"e2e_{label}.ply"
            assert main(["degrade", str(ply_pair / "a.ply"), "geometry_gaussian",
                         level, "3", str(out)]) == 0
            assert main(["score", str(ply_pair / "a.ply"), str(out)]
                        + CONFIG_FLAGS) == 0
            qs.append(float(capsys.readouterr().out.strip()))
        assert qs[0] > qs[1]
