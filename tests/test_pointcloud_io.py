import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcdm.pointcloud import (DegradationSpec, PlyError, PointCloud, degrade,
                             load_ply, save_ply)

from conftest import random_cloud


def write_text(path, text):
    path.write_text(text)
    return path


SINGLE_POINT_PLY = """ply
format ascii 1.0
element vertex 1
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
0 0 0 255 0 0
"""


class TestLoadPly:
    def test_single_point_ascii(self, tmp_path):
        path = write_text(tmp_path / "one.ply", SINGLE_POINT_PLY)
        cloud = load_ply(path)
        assert cloud.count == 1
        assert np.array_equal(cloud.positions, [[0.0, 0.0, 0.0]])
        assert np.array_equal(cloud.colors, [[255.0, 0.0, 0.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ply(tmp_path / "absent.ply")

    def test_missing_color_property(self, tmp_path):
        path = write_text(tmp_path / "nocolor.ply", (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"))
        with pytest.raises(PlyError, match="missing color property"):
            load_ply(path)

    def test_big_endian_rejected(self, tmp_path):
        path = write_text(tmp_path / "be.ply", (
            "ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"))
        with pytest.raises(PlyError, match="big-endian"):
            load_ply(path)

    def test_truncated_binary_payload(self, tmp_path):
        path = tmp_path / "trunc.ply"
        cloud = PointCloud(np.zeros((3, 3)), np.zeros((3, 3)))
        save_ply(cloud, path, encoding="binary_le")
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(PlyError, match="truncated"):
            load_ply(path)

    def test_truncated_ascii_payload(self, tmp_path):
        path = write_text(tmp_path / "short.ply",
                          SINGLE_POINT_PLY.replace("element vertex 1", "element vertex 2"))
        with pytest.raises(PlyError, match="truncated|vertex 1"):
            load_ply(path)

    def test_non_finite_coordinate(self, tmp_path):
        path = write_text(tmp_path / "nan.ply",
                          SINGLE_POINT_PLY.replace("0 0 0 255", "nan 0 0 255"))
        with pytest.raises(PlyError, match="non-finite"):
            load_ply(path)

    @pytest.mark.parametrize("color", ["300 1 12", "5 -1 12", "5 1 12.7", "nan 1 12",
                                       "5 1 inf"])
    def test_ascii_color_not_a_uchar(self, tmp_path, color):
        body = SINGLE_POINT_PLY.replace("element vertex 1", "element vertex 2")
        path = write_text(tmp_path / "color.ply", body + f"1 1 1 {color}\n")
        with pytest.raises(PlyError, match=r"at vertex 1 must be an integer in \[0, 255\]"):
            load_ply(path)

    def test_ascii_color_range_ends_accepted(self, tmp_path):
        body = SINGLE_POINT_PLY.replace("element vertex 1", "element vertex 2")
        path = write_text(tmp_path / "color.ply", body + "1 1 1 0 255.0 +7\n")
        cloud = load_ply(path)
        assert np.array_equal(cloud.colors, [[255.0, 0.0, 0.0], [0.0, 255.0, 7.0]])

    def test_malformed_header(self, tmp_path):
        path = write_text(tmp_path / "bad.ply", "ply\nformat ascii 1.0\nbogus line\n")
        with pytest.raises(PlyError):
            load_ply(path)

    def test_double_coordinates_and_uint8_aliases(self, tmp_path):
        path = write_text(tmp_path / "alias.ply", (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property uint8 red\nproperty uint8 green\nproperty uint8 blue\n"
            "end_header\n1.5 -2.25 3.125 10 20 30\n"))
        cloud = load_ply(path)
        assert np.array_equal(cloud.positions, [[1.5, -2.25, 3.125]])
        assert np.array_equal(cloud.colors, [[10.0, 20.0, 30.0]])

    def test_extra_vertex_property_skipped(self, tmp_path):
        path = write_text(tmp_path / "extra.ply", (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float intensity\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n1 2 3 0.5 9 8 7\n"))
        cloud = load_ply(path)
        assert np.array_equal(cloud.positions, [[1.0, 2.0, 3.0]])
        assert np.array_equal(cloud.colors, [[9.0, 8.0, 7.0]])

    def test_element_before_vertex_is_skipped_ascii(self, tmp_path):
        path = write_text(tmp_path / "pre.ply", (
            "ply\nformat ascii 1.0\n"
            "element camera 2\nproperty float fx\n"
            "element vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n99.0\n98.0\n4 5 6 1 2 3\n"))
        cloud = load_ply(path)
        assert np.array_equal(cloud.positions, [[4.0, 5.0, 6.0]])
        assert np.array_equal(cloud.colors, [[1.0, 2.0, 3.0]])

    def test_element_before_vertex_is_skipped_binary(self, tmp_path):
        path = tmp_path / "pre_bin.ply"
        header = ("ply\nformat binary_little_endian 1.0\n"
                  "element camera 2\nproperty float fx\n"
                  "element vertex 1\n"
                  "property double x\nproperty double y\nproperty double z\n"
                  "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                  "end_header\n")
        camera = np.array([9.0, 8.0], dtype="<f4").tobytes()
        vertex = np.zeros(1, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                    ("red", "u1"), ("green", "u1"), ("blue", "u1")])
        vertex["x"], vertex["y"], vertex["z"] = 4.0, 5.0, 6.0
        vertex["red"], vertex["green"], vertex["blue"] = 1, 2, 3
        path.write_bytes(header.encode() + camera + vertex.tobytes())
        cloud = load_ply(path)
        assert np.array_equal(cloud.positions, [[4.0, 5.0, 6.0]])
        assert np.array_equal(cloud.colors, [[1.0, 2.0, 3.0]])

    def test_unknown_type_in_skipped_element_names_file(self, tmp_path):
        path = tmp_path / "camera_foo.ply"
        path.write_bytes((
            "ply\nformat binary_little_endian 1.0\n"
            "element camera 1\nproperty foo bar\n"
            "element vertex 0\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n").encode())
        with pytest.raises(PlyError, match="unknown property type 'foo' for 'bar'") as err:
            load_ply(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.ply"
        path.write_bytes(SINGLE_POINT_PLY.replace("\n", "\r\n").encode())
        cloud = load_ply(path)
        assert cloud.count == 1
        assert np.array_equal(cloud.colors, [[255.0, 0.0, 0.0]])

    def test_zero_vertex_file_loads_empty(self, tmp_path):
        path = write_text(tmp_path / "empty.ply", (
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"))
        assert load_ply(path).count == 0

    @pytest.mark.parametrize("encoding", ["ascii", "binary_little_endian"])
    @pytest.mark.parametrize("elements, bad", [
        ("element vertex -2\n", "-2"),
        ("element camera -1\nproperty float fx\nelement vertex 1\n", "-1")],
        ids=["vertex", "preceding"])
    def test_negative_element_count_rejected(self, tmp_path, encoding, elements, bad):
        # vertex -2 would load as an empty cloud (ascii) or fail in the
        # reader (binary); camera -1 would skip backwards to the vertices
        path = tmp_path / "negative.ply"
        path.write_bytes((
            f"ply\nformat {encoding} 1.0\n{elements}"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n").encode() + bytes(15))
        with pytest.raises(PlyError, match=rf"bad element count '{bad}' \(line 3\)$") as err:
            load_ply(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_list_property_in_vertex_rejected(self, tmp_path):
        path = write_text(tmp_path / "list.ply", (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property list uchar int vertex_indices\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n0 0 0 0 1 2 3\n"))
        with pytest.raises(PlyError, match="list property"):
            load_ply(path)

    @pytest.mark.parametrize("line", [
        "property", "property float", "property list", "property list uchar int"])
    def test_malformed_property_line_rejected(self, tmp_path, line):
        path = write_text(tmp_path / "prop.ply", (
            f"ply\nformat ascii 1.0\nelement vertex 1\n{line}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n0 0 0 0 1 2 3\n"))
        with pytest.raises(PlyError, match=r"malformed property line \(line 4\)$") as err:
            load_ply(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("encoding, payload", [
        ("ascii", b"0 0 0 1 2 3\n1 1 1 4 5 6\n"),
        ("binary_little_endian", bytes(30))])
    def test_declared_count_beyond_file_read_no_further(self, tmp_path, encoding, payload):
        # two vertices held, two million declared: the reader stops at the
        # end of the file instead of reading or allocating for the rest
        path = tmp_path / "huge.ply"
        path.write_bytes((
            f"ply\nformat {encoding} 1.0\nelement vertex 2000000\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n").encode() + payload)
        tracemalloc.start()
        try:
            with pytest.raises(PlyError, match="truncated payload"):
                load_ply(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("encoding", ["ascii", "binary_little_endian"])
    @pytest.mark.parametrize("twice", ["x", "red", "intensity"])
    def test_property_declared_twice_rejected(self, tmp_path, encoding, twice):
        path = tmp_path / "twice.ply"
        path.write_bytes((
            f"ply\nformat {encoding} 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "property uchar intensity\n"
            f"property {'float' if twice == 'x' else 'uchar'} {twice}\n"
            "end_header\n").encode() + (b"0 0 0 1 2 3 4 5\n" if encoding == "ascii" else bytes(20)))
        with pytest.raises(PlyError, match=f"vertex property '{twice}' is declared more "
                                           f"than once$") as err:
            load_ply(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("token", ["zz", "1.5e", "0x1f"])
    def test_ascii_bad_token_quoted_as_text(self, tmp_path, token):
        path = write_text(tmp_path / "token.ply",
                          SINGLE_POINT_PLY.replace("0 0 0 255 0 0", f"0 {token} 0 255 0 0"))
        with pytest.raises(PlyError, match=rf"bad numeric value '{token}' at vertex 0$") as err:
            load_ply(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_truncated_preceding_ascii_element(self, tmp_path):
        path = write_text(tmp_path / "pre.ply", (
            "ply\nformat ascii 1.0\n"
            "element camera 2000000\nproperty float fx\n"
            "element vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n99.0\n4 5 6 1 2 3\n"))
        with pytest.raises(PlyError, match="truncated payload, 2 of 2000000 'camera' rows"):
            load_ply(path)


class TestSavePly:
    def test_binary_roundtrip_exact(self, tmp_path, rng):
        cloud = random_cloud(1000, rng)
        path = tmp_path / "rt.ply"
        save_ply(cloud, path, encoding="binary_le")
        back = load_ply(path)
        assert np.array_equal(back.positions, cloud.positions)
        assert np.array_equal(back.colors, cloud.colors)

    def test_binary_roundtrip_three_points(self, tmp_path, rng):
        cloud = random_cloud(3, rng)
        path = tmp_path / "rt3.ply"
        save_ply(cloud, path, encoding="binary_le")
        back = load_ply(path)
        assert np.array_equal(back.positions, cloud.positions)
        assert np.array_equal(back.colors, cloud.colors)

    def test_ascii_roundtrip_tolerance(self, tmp_path, rng):
        cloud = random_cloud(1000, rng)
        path = tmp_path / "rt_ascii.ply"
        save_ply(cloud, path, encoding="ascii")
        back = load_ply(path)
        assert np.abs(back.positions - cloud.positions).max() < 1e-6
        assert np.array_equal(back.colors, cloud.colors)

    def test_new_directory_target(self, tmp_path, rng):
        sub = tmp_path / "fresh"
        sub.mkdir()
        cloud = random_cloud(5, rng)
        save_ply(cloud, sub / "c.ply", encoding="ascii")
        assert load_ply(sub / "c.ply").count == 5

    def test_unwritable_path(self, tmp_path, rng):
        cloud = random_cloud(2, rng)
        with pytest.raises(OSError):
            save_ply(cloud, tmp_path / "no_dir" / "c.ply")

    def test_fractional_colors_round(self, tmp_path):
        cloud = PointCloud(np.zeros((1, 3)), np.array([[10.6, 200.4, 0.0]]))
        path = tmp_path / "frac.ply"
        save_ply(cloud, path, encoding="binary_le")
        assert np.array_equal(load_ply(path).colors, [[11.0, 200.0, 0.0]])


class TestDegrade:
    def test_zero_sigma_is_identity(self, small_cloud):
        out = degrade(small_cloud, DegradationSpec("geometry_gaussian", 0.0, 3))
        assert np.array_equal(out.positions, small_cloud.positions)
        assert np.array_equal(out.colors, small_cloud.colors)

    def test_gaussian_variance_matches_sigma(self, rng):
        cloud = random_cloud(100_000, rng)
        sigma = 0.7
        out = degrade(cloud, DegradationSpec("geometry_gaussian", sigma, 11))
        disp = out.positions - cloud.positions
        for axis in range(3):
            assert abs(disp[:, axis].var() - sigma ** 2) < 0.05 * sigma ** 2

    def test_downsample_keep_all(self, small_cloud):
        out = degrade(small_cloud, DegradationSpec("downsample", 1.0, 5))
        assert np.array_equal(out.positions, small_cloud.positions)

    def test_downsample_is_ordered_subsequence(self, small_cloud):
        out = degrade(small_cloud, DegradationSpec("downsample", 0.35, 5))
        assert out.count == int(np.ceil(0.35 * small_cloud.count))
        # every kept row appears in the original, in the original order
        pos = {tuple(row): i for i, row in enumerate(small_cloud.positions)}
        kept = [pos[tuple(row)] for row in out.positions]
        assert kept == sorted(kept)

    def test_color_noise_clamped(self, small_cloud):
        out = degrade(small_cloud, DegradationSpec("color_noise", 120.0, 2))
        assert out.colors.min() >= 0.0
        assert out.colors.max() <= 255.0

    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           kind=st.sampled_from(["geometry_gaussian", "color_noise", "downsample"]))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_in_seed(self, seed, kind):
        rng = np.random.default_rng(99)
        cloud = random_cloud(50, rng)
        level = 0.5 if kind != "downsample" else 0.6
        spec = DegradationSpec(kind, level, seed)
        a = degrade(cloud, spec)
        b = degrade(cloud, spec)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.colors, b.colors)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            DegradationSpec("downsample", 0.0, 1)
        with pytest.raises(ValueError):
            DegradationSpec("downsample", 1.2, 1)
        with pytest.raises(ValueError):
            DegradationSpec("geometry_gaussian", -1.0, 1)
        with pytest.raises(ValueError):
            DegradationSpec("melt", 0.1, 1)
        for kind in ("geometry_gaussian", "color_noise"):
            for level in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="^level must be finite"):
                    DegradationSpec(kind, level, 1)


class TestValidation:
    def test_validate_rejects_nonfinite(self):
        cloud = PointCloud(np.array([[0.0, 0.0, np.inf]]), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            cloud.validate()

    def test_validate_rejects_nan_color(self):
        colors = np.zeros((3, 3))
        colors[1, 0] = np.nan
        cloud = PointCloud(np.arange(9.0).reshape(3, 3), colors)
        with pytest.raises(ValueError, match="non-finite color at point 1"):
            cloud.validate()

    def test_validate_rejects_out_of_range_color(self):
        cloud = PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 300.0]]))
        with pytest.raises(ValueError, match="color"):
            cloud.validate()

    def test_empty_cloud_rejected_by_validate(self):
        cloud = PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            cloud.validate()
