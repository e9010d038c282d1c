from bench.spans import SpanLog, layer_of, layer_self_times, self_times


def span(ident, name, start, end, parent=None):
    return {"id": ident, "name": name, "start": start, "end": end,
            "parent": parent, "workload": "w"}


def test_self_time_is_duration_minus_children():
    spans = [span("b1", "client:statement", 0.0, 10.0),
             span("p1", "serve.query", 1.0, 9.0, "b1"),
             span("p2", "operator", 2.0, 5.0, "p1"),
             span("p3", "operator", 5.0, 6.0, "p1")]
    own = self_times(spans)
    assert own == {"b1": 2.0, "p1": 4.0, "p2": 3.0, "p3": 1.0}
    assert layer_self_times(spans) == {"serve": 4.0, "engine": 4.0}


def test_layer_of_names():
    assert layer_of("client:statement") is None
    assert layer_of("jsontext:jsontext.loads_us_per_kb") == "jsontext"
    assert layer_of("wal.commit") == "storage"
    assert layer_of("imc.segment_load") == "imc"
    assert layer_of("something.else") is None


class FakeProgramSpan:
    def __init__(self, span_id, name, start, elapsed_ms, children=()):
        self.span_id, self.name, self._start = span_id, name, start
        self.elapsed_ms, self.children = elapsed_ms, list(children)


def test_program_roots_hang_under_the_containing_benchmark_span():
    log = SpanLog("w")
    log.spans = [span("b1", "client:window", 0.0, 100.0),
                 span("b2", "client:statement", 10.0, 20.0, "b1")]
    inside = FakeProgramSpan(7, "serve.query", 11.0, 8000.0,
                             [FakeProgramSpan(8, "operator", 12.0, 1000.0)])
    # another thread's root that ran while the first was waiting for it
    nested = FakeProgramSpan(10, "commit.group", 13.5, 2000.0)
    outside = FakeProgramSpan(9, "commit.group", 200.0, 1000.0)
    log.merge_program_spans([nested, outside, inside])
    by_id = {s["id"]: s for s in log.spans}
    assert by_id["p7"]["parent"] == "b2"
    assert by_id["p8"]["parent"] == "p7"
    assert by_id["p10"]["parent"] == "p7"
    assert by_id["p9"]["parent"] is None
