"""Differential tests for the direct DOM parser.

``loads`` parses text straight to Python values; the event lexer
(``tokenize``) describes the same text as a flat stream of events, which
nothing under ``src/repro`` folds back into values any more (it is kept
for the benchmark's tokenizer metric).  Two oracles guard both:

* on generated values, ``loads`` returns what a test-local fold of
  ``tokenize``'s events builds;
* on a seeded corpus of 1–3 character mutations of generated purchase
  order and NOBENCH text, ``loads`` and ``tokenize`` accept exactly what
  the standard library's ``json.loads`` accepts (the test's oracle only;
  nothing under ``src/repro`` uses it), and ``loads`` returns an equal
  value.  ``NaN`` / ``Infinity`` are not JSON: they are left out of the
  mutation alphabet and refused by the oracle too.
"""

import json
import random

from hypothesis import given

from repro.errors import JsonParseError
from repro.jsontext import JsonEventType, dumps, loads, tokenize
from repro.workloads.nobench import NobenchGenerator
from repro.workloads.purchase_orders import PurchaseOrderGenerator
from tests.strategies import json_values

SEED = 20261019
MUTANTS = 20_000
#: characters a mutation inserts or substitutes: JSON's structural
#: characters, escape and literal letters, digits, whitespace, control
#: characters and a few that are never valid outside strings
ALPHABET = '{}[]:,"\\/ \t\n\r\x00\x1f0123456789-+.eEubfnrtalsx_é'


def same(a, b):
    """Equal values of identical types (``1`` is not ``1.0`` or
    ``True``), object members in the same order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return (list(a) == list(b)
                and all(same(a[key], b[key]) for key in a))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def oracle(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def accepts(parse, text):
    try:
        return True, parse(text)
    except JsonParseError:
        return False, None


def mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        at = rng.randrange(len(chars) + (kind == 0))
        if kind == 0:
            chars.insert(at, rng.choice(ALPHABET))
        elif kind == 1 and len(chars) > 1:
            del chars[at]
        else:
            chars[at] = rng.choice(ALPHABET)
    return "".join(chars)


def corpus():
    pos = PurchaseOrderGenerator(seed=3)
    nobench = NobenchGenerator(seed=5)
    seeds = ([dumps(pos.document(i)) for i in range(40)]
             + [dumps(nobench.document(i)) for i in range(40)])
    rng = random.Random(SEED)
    return [mutate(rng, rng.choice(seeds)) for _ in range(MUTANTS)]


def fold(event, events):
    """Build the value that starts with ``event`` from the rest of a
    ``tokenize`` stream."""
    if event.type is JsonEventType.OBJECT_START:
        obj = {}
        for name in events:
            if name.type is JsonEventType.OBJECT_END:
                return obj
            obj[name.value] = fold(next(events), events)
    if event.type is JsonEventType.ARRAY_START:
        arr = []
        for item in events:
            if item.type is JsonEventType.ARRAY_END:
                return arr
            arr.append(fold(item, events))
    return event.value


class TestEventPathParity:
    @given(json_values())
    def test_loads_matches_event_path(self, value):
        text = dumps(value)
        events = iter(tokenize(text))
        assert same(loads(text), fold(next(events), events))
        assert next(events, None) is None


class TestMutationCorpus:
    def test_accepts_exactly_what_the_oracle_accepts(self):
        accepted = rejected = 0
        mismatches = []
        for text in corpus():
            try:
                expected, ok = oracle(text), True
            except ValueError:  # JSONDecodeError and refused constants
                expected, ok = None, False
            got_ok, got = accepts(loads, text)
            events_ok, _ = accepts(lambda t: list(tokenize(t)), text)
            if (got_ok, events_ok) != (ok, ok) or (ok and not same(got, expected)):
                mismatches.append((text, ok, got_ok, events_ok))
            accepted += ok
            rejected += not ok
        assert not mismatches[:5], f"{len(mismatches)} mismatches"
        # the corpus exercises both sides of the grammar
        assert accepted > MUTANTS // 4 and rejected > MUTANTS // 4
