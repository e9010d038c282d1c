import os

from bench.tracefs import TraceFS


def test_counts_and_durable_image_cut(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    fs = TraceFS()
    wal = fs.create(str(root / "log-1.log"))
    wal.write(b"header")
    wal.flush()
    wal.sync()                      # 6 bytes durable
    wal.write(b"acked-record")
    wal.flush()
    wal.sync()                      # 18 bytes durable
    wal.write(b"unflushed")         # written, never fsynced
    wal.flush()

    tmp = fs.create(str(root / "MANIFEST.tmp"))
    tmp.write(b"manifest")
    tmp.flush()
    tmp.sync()
    tmp.close()
    fs.replace(str(root / "MANIFEST.tmp"), str(root / "MANIFEST"))

    doomed = fs.create(str(root / "log-0.log"))
    doomed.write(b"x")
    doomed.close()
    fs.remove(str(root / "log-0.log"))

    assert fs.counts() == {"writes": 5, "bytes_written": 36, "syncs": 3}
    assert len(fs.sync_seconds) == 3
    assert fs.durable_lengths(str(root)) == {"log-1.log": 18, "MANIFEST": 8}

    image = tmp_path / "image"
    discarded = fs.materialise(str(root), str(image))
    assert discarded == len(b"unflushed")
    assert sorted(os.listdir(image)) == ["MANIFEST", "log-1.log"]
    assert (image / "log-1.log").read_bytes() == b"headeracked-record"
    assert (image / "MANIFEST").read_bytes() == b"manifest"
    # the live file still has everything
    wal.close()
    assert (root / "log-1.log").read_bytes().endswith(b"unflushed")


def test_files_from_before_the_wrapper_count_as_durable(tmp_path):
    path = tmp_path / "d" / "old.log"
    path.parent.mkdir()
    path.write_bytes(b"already on disk")
    fs = TraceFS()
    handle = fs.open_append(str(path))
    handle.write(b"+new")
    handle.flush()
    assert fs.durable_lengths(str(tmp_path / "d")) == {"old.log": 15}
    handle.sync()
    assert fs.durable_lengths(str(tmp_path / "d")) == {"old.log": 19}
    handle.close()
