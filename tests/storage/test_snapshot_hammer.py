"""Multi-threaded snapshot-isolation hammer (ISSUE 7 satellite).

Eight threads — four writer sessions, four reader sessions — hammer one
durable table through the serving layer while group commit folds
their fsyncs (each batch led by one of the waiting writers).
Invariants checked on every read:

* **atomic batches** — each writer commits its rows in tagged batches;
  no reader snapshot ever sees a partial batch (a tag's row count is
  always 0 or the full batch size);
* **stable pins** — two scans on the same session without ``refresh``
  return identical rows, no matter how many commits land in between;
* **monotonic reads** — a session's pinned snapshot version never goes
  backward across refreshes;
* **read-your-own-writes** — after a writer's insert is acknowledged,
  that writer's very next scan sees all of its own rows.
"""

import threading

from repro.engine.catalog import Database
from repro.engine.table import Column
from repro.serve import Server
from repro.storage import MemoryFileSystem

WRITERS = 4
READERS = 4
BATCH = 5
ROUNDS = 15


def build():
    fs = MemoryFileSystem()
    db = Database()
    table = db.create_table(
        "events",
        [Column.of("writer", "number"), Column.of("seq", "number"),
         Column.of("slot", "number")],
        durable="db/events", fs=fs)
    return db, table


def rows_by_tag(rows):
    counts = {}
    for row in rows:
        tag = (row["writer"], row["seq"])
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def test_snapshot_isolation_hammer():
    db, table = build()
    failures = []
    stop = threading.Event()

    with Server(db, read_workers=4, write_workers=4,
                queue_limit=512) as server:

        def writer(writer_id):
            try:
                session = server.session()
                for seq in range(ROUNDS):
                    session.insert_many("events", [
                        {"writer": writer_id, "seq": seq, "slot": slot}
                        for slot in range(BATCH)])
                    # read-your-own-writes: the acknowledged batch is
                    # visible to this session immediately
                    mine = [r for r in session.execute(
                        "SELECT writer, seq FROM events").fetchall()
                        if r["writer"] == writer_id]
                    expected = (seq + 1) * BATCH
                    if len(mine) != expected:
                        failures.append(
                            f"writer {writer_id}: sees {len(mine)} of "
                            f"its own rows after ack, expected "
                            f"{expected}")
                        return
                session.close()
            except Exception as error:  # noqa: BLE001 - surfaced via failures
                failures.append(f"writer {writer_id}: {error!r}")

        def reader(reader_id):
            try:
                session = server.session()
                last_version = -1
                while not stop.is_set():
                    session.refresh()
                    first = session.execute(
                        "SELECT writer, seq, slot FROM events").fetchall()
                    counts = rows_by_tag(first)
                    for tag, count in counts.items():
                        if count != BATCH:
                            failures.append(
                                f"reader {reader_id}: partial batch "
                                f"{tag}: {count}/{BATCH} rows visible")
                            return
                    # a second scan on the same pin is identical even
                    # though writers keep committing
                    second = session.execute(
                        "SELECT writer, seq, slot FROM events").fetchall()
                    if first != second:
                        failures.append(
                            f"reader {reader_id}: pinned snapshot moved "
                            f"between two scans")
                        return
                    version = session.snapshot_version("events")
                    if version is not None:
                        if version < last_version:
                            failures.append(
                                f"reader {reader_id}: snapshot version "
                                f"went backward {last_version} -> "
                                f"{version}")
                            return
                        last_version = version
                session.close()
            except Exception as error:  # noqa: BLE001
                failures.append(f"reader {reader_id}: {error!r}")

        writer_threads = [threading.Thread(target=writer, args=(w,))
                          for w in range(WRITERS)]
        reader_threads = [threading.Thread(target=reader, args=(r,))
                          for r in range(READERS)]
        for thread in reader_threads + writer_threads:
            thread.start()
        for thread in writer_threads:
            thread.join()
        stop.set()
        for thread in reader_threads:
            thread.join()

    assert not failures, "\n".join(failures)

    # final state: every batch fully durable
    final = rows_by_tag(table.snapshot_scan())
    assert len(final) == WRITERS * ROUNDS
    assert all(count == BATCH for count in final.values())
    table.close()
