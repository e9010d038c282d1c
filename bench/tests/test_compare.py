from bench.compare import compare_sets, device_counts_equal, verdict


def test_verdict_respects_direction_and_bound():
    assert verdict([10.0], [10.5], "lower", 0.10)[0] == "ok"
    assert verdict([10.0], [11.5], "lower", 0.10)[0] == "worse"
    assert verdict([10.0], [8.0], "lower", 0.10)[0] == "ok"
    assert verdict([100.0], [85.0], "higher", 0.10)[0] == "worse"
    assert verdict([100.0], [130.0], "higher", 0.10)[0] == "ok"


def test_wide_spread_is_unresolved_not_unchanged():
    noisy = [10.0, 14.0, 7.0, 12.0, 9.0, 15.0]
    assert verdict(noisy, [10.0] * 6, "lower", 0.10)[0] == "unresolved"


def run(workload, trace, **metrics):
    return {"workload": workload, "trace": trace,
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in metrics.items()}}


def test_compare_sets_has_one_row_per_workload_metric():
    base = [run("olap_hot", 0, stmt_p50_ms=10.0, stmts_per_s=100.0)]
    other = [run("olap_hot", 0, stmt_p50_ms=14.0, stmts_per_s=101.0)]
    lines, clean = compare_sets(base, other)
    assert len(lines) == 3 and not clean
    assert "worse" in lines[1] and "1.400" in lines[1]
    assert lines[2].rstrip().endswith("ok")


def test_device_counts_must_repeat_exactly():
    base = [run("ingest_mixed", 1, **{"storage.fs.syncs": 10})]
    same = [run("ingest_mixed", 1, **{"storage.fs.syncs": 10})]
    other = [run("ingest_mixed", 1, **{"storage.fs.syncs": 11})]
    assert device_counts_equal(base, same) == []
    assert len(device_counts_equal(base, other)) == 1
