import struct

import numpy as np
import pytest

from lfpca import (DataPanel, ValidationError, center_panel, panel_from_csv, panel_to_csv,
                   read_panel, write_panel)
from lfpca.panel import PanelWriter, slice_starts, stream


def test_slice_starts_cover_all_rows():
    assert slice_starts(10, 3) == [0, 4, 8, 10]
    assert slice_starts(10, 1) == [0, 10]
    assert slice_starts(5, 5) == [0, 1, 2, 3, 4, 5]


def test_slices_reassemble_exactly(rng):
    arr = rng.standard_normal((17, 5))
    panel = DataPanel.from_array(arr, n_slices=4)
    rebuilt = np.vstack([block for _, block in panel.iter_slices()])
    np.testing.assert_array_equal(rebuilt, arr)


def test_file_round_trip_is_byte_exact(rng, tmp_path):
    arr = rng.standard_normal((23, 7))
    panel = DataPanel.from_array(arr, n_slices=3)
    first = tmp_path / "a.lfpb"
    second = tmp_path / "b.lfpb"
    write_panel(panel, first)
    write_panel(read_panel(first), second)
    assert first.read_bytes() == second.read_bytes()
    np.testing.assert_array_equal(read_panel(first).to_array(), arr)


def test_file_backed_reslicing_reads_same_rows(rng, tmp_path):
    arr = rng.standard_normal((31, 4))
    write_panel(DataPanel.from_array(arr, n_slices=2), tmp_path / "p.lfpb")
    panel = read_panel(tmp_path / "p.lfpb").with_slices(7)
    assert panel.n_slices == 7
    np.testing.assert_array_equal(np.vstack([b for _, b in panel.iter_slices()]), arr)
    np.testing.assert_array_equal(panel.read_rows(10, 20), arr[10:20])


def test_read_panel_rejects_bad_magic(tmp_path):
    bad = tmp_path / "bad.lfpb"
    bad.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValidationError):
        read_panel(bad)


def _header(version=1, n_slices=2):
    """An LFPB header of a 6 x 3 panel, then its slice offset table."""
    return (struct.pack("<4sIQQI", b"LFPB", version, 6, 3, n_slices)
            + np.array([0, 3, 6], dtype="<u8").tobytes())


PANEL_FILE_REFUSALS = {
    "missing": (None, "panel file not found"),
    "short-header": (b"LFPB\x01\x00", "too short for an LFPB header"),
    "version": (_header(version=2), "unsupported LFPB version 2"),
    "offset-table": (_header(n_slices=5), "truncated slice offset table"),
}


@pytest.mark.parametrize("content, message", PANEL_FILE_REFUSALS.values(),
                         ids=list(PANEL_FILE_REFUSALS))
def test_read_panel_refuses_malformed_file(tmp_path, content, message):
    path = tmp_path / "p.lfpb"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ValidationError, match=message):
        read_panel(path)


def test_read_panel_rejects_truncated_payload(rng, tmp_path):
    path = tmp_path / "p.lfpb"
    write_panel(DataPanel.from_array(rng.standard_normal((6, 3))), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        read_panel(path)


def test_writer_rejects_wrong_shape_and_incomplete(tmp_path):
    writer = PanelWriter(tmp_path / "w.lfpb", p=4, n=2, n_slices=2)
    with pytest.raises(ValidationError):
        writer.write_slice(np.zeros((3, 2)))
    writer.write_slice(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        writer.close()


def test_writer_takes_the_blocks_of_a_slice_in_order(rng, tmp_path):
    # stream writes each slice as one or more row blocks; a block may not run
    # past its slice, and the slice table is kept
    arr = rng.standard_normal((7, 2))
    path = tmp_path / "w.lfpb"
    with PanelWriter(path, p=7, n=2, row_starts=[0, 3, 3, 7]) as writer:
        writer.write_slice(arr[:2])
        with pytest.raises(ValidationError):
            writer.write_slice(arr[2:4])  # crosses into the next slice
        with pytest.raises(ValidationError):
            writer.write_slice(arr[2:3, :1])
        for a, b in ((2, 3), (3, 4), (4, 7)):
            writer.write_slice(arr[a:b])
    back = read_panel(path)
    assert back.row_starts == [0, 3, 3, 7]
    np.testing.assert_array_equal(back.to_array(), arr)


def test_center_two_columns():
    panel = DataPanel.from_array(np.array([[1.0, 3.0], [1.0, 3.0]]))
    centered = center_panel(panel, [2.0, 2.0])
    np.testing.assert_array_equal(centered.mean, [2.0, 2.0])
    np.testing.assert_array_equal(centered.to_array(), [[-1.0, 1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(panel.to_array(), [[1.0, 3.0], [1.0, 3.0]])
    assert panel.mean is None


def test_center_zero_panel():
    # a view of a view subtracts both means
    mean = np.array([1.0, -2.0, 0.5])
    once = center_panel(DataPanel.from_array(np.zeros((3, 4))), mean)
    np.testing.assert_array_equal(once.to_array(), np.tile(-mean[:, None], (1, 4)))
    np.testing.assert_array_equal(center_panel(once, -mean).to_array(), np.zeros((3, 4)))


def test_center_invariant_to_slice_count(rng):
    arr = rng.standard_normal((10, 6))
    mean = arr.mean(axis=1)
    one = center_panel(DataPanel.from_array(arr, n_slices=1), mean)
    three = center_panel(DataPanel.from_array(arr, n_slices=3), mean)
    # oracle: plain in-memory centering
    expected = arr - arr.mean(axis=1, keepdims=True)
    np.testing.assert_array_equal(one.to_array(), three.to_array())
    np.testing.assert_allclose(one.to_array(), expected, atol=1e-15)
    row_sums = np.abs(one.to_array().sum(axis=1))
    assert row_sums.max() <= 1e-8 * arr.shape[1] * np.abs(arr).max()


def test_center_file_backed_matches_memory(rng, tmp_path):
    # every read path of the view gives raw - mean, in memory and from a
    # file, for any slicing; nothing is written and the raw panel is untouched
    arr = rng.standard_normal((12, 5)) + 50.0
    mean = arr.mean(axis=1)
    expected = arr - mean[:, None]
    write_panel(DataPanel.from_array(arr), tmp_path / "raw.lfpb")
    for raw in (DataPanel.from_array(arr), read_panel(tmp_path / "raw.lfpb")):
        for slices in (1, 3):
            view = center_panel(raw.with_slices(slices), mean)
            assert view.n_slices == slices and view.file_backed == raw.file_backed
            np.testing.assert_array_equal(view.to_array(), expected)
            np.testing.assert_array_equal(np.vstack([b for _, b in view.iter_slices()]),
                                          expected)
            np.testing.assert_array_equal(view.read_rows(4, 9), expected[4:9])
            np.testing.assert_array_equal(view.with_slices(4).to_array(), expected)
        np.testing.assert_array_equal(raw.to_array(), arr)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["raw.lfpb"]
    with pytest.raises(ValidationError):
        center_panel(DataPanel.from_array(arr), mean[:5])


def test_stream_deletes_partial_outputs_on_error(rng, tmp_path):
    panel = DataPanel.from_array(rng.standard_normal((12, 3)), n_slices=4)

    def _fail_third(rows, blocks, outs):
        if rows.start >= 6:
            raise FloatingPointError("slice failed")
        outs[0][:] = blocks[0]
        outs[1][:] = blocks[0][:, 0]

    for threads in (1, 2):
        with pytest.raises(FloatingPointError):
            stream([panel], _fail_third, [(3, tmp_path / "a.lfpb"), (None, None)], threads)
        assert list(tmp_path.iterdir()) == []


def test_csv_converter_round_trip(rng, tmp_path):
    arr = rng.standard_normal((5, 3))
    panel_to_csv(DataPanel.from_array(arr), tmp_path / "p.csv")
    back = panel_from_csv(tmp_path / "p.csv")
    np.testing.assert_array_equal(back.to_array(), arr)


