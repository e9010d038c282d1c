"""Synthetic twins of the twelve collections in Tables 10-12.

The paper's collections are proprietary customer data sets; only their
structural statistics are published (average document size under three
encodings, OSON segment ratios, DataGuide path counts, DMDV fan-out).
Each generator here is tuned to reproduce the *structural character* of
its namesake — nesting depth, array fan-out, field-name vocabulary size,
string-vs-number mix — so the derived statistics land in the same regime:

* small business documents (workOrder .. AcquisionDoc): hundreds of
  bytes to a few KiB, dictionary segment a large fraction;
* NOBENCHDoc / YCSBDoc: the public benchmarks;
* TwitterMsgArchive: one large document holding an array of thousands of
  repeated message structures (dictionary ratio -> ~0 %);
* SensorData: one very large document dominated by numeric arrays (tree
  segment dominates, OSON much smaller than text).

``collection(name, scale)`` returns the document list; ``scale`` shrinks
the two large single-document collections so tests stay fast.
"""

from __future__ import annotations

import random

from repro.workloads._seeds import rng_for
from typing import Any, Callable

from repro.workloads.nobench import NobenchGenerator
from repro.workloads.purchase_orders import PurchaseOrderGenerator
from repro.workloads.ycsb import YcsbGenerator

_WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet "
          "kilo lima mike november oscar papa quebec romeo sierra tango "
          "uniform victor whiskey xray yankee zulu").split()


def _sentence(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(words))


def work_orders(count: int, seed: int = 1) -> list[dict[str, Any]]:
    """Maintenance work orders: moderate nesting, small task arrays."""
    docs = []
    for i in range(count):
        rng = rng_for(seed, i)
        docs.append({
            "workOrder": {
                "id": 100000 + i,
                "status": rng.choice(["OPEN", "CLOSED", "HOLD"]),
                "priority": rng.randint(1, 5),
                "site": {"code": f"S{rng.randint(1, 40):03d}",
                         "region": rng.choice(["NA", "EU", "APAC"])},
                "assignee": {"name": _sentence(rng, 2),
                             "badge": rng.randrange(10**6)},
                "tasks": [{
                    "seq": t,
                    "action": _sentence(rng, 3),
                    "hours": round(rng.uniform(0.5, 8.0), 1),
                    "done": rng.random() < 0.5,
                } for t in range(rng.randint(2, 5))],
                "notes": _sentence(rng, rng.randint(6, 14)),
            }
        })
    return docs


def sales_orders(count: int, seed: int = 2) -> list[dict[str, Any]]:
    """Small, flat-ish orders: many field names relative to value bytes."""
    docs = []
    for i in range(count):
        rng = rng_for(seed, i)
        docs.append({
            "salesOrder": {
                "orderNumber": i,
                "customerAccountId": rng.randrange(10**8),
                "orderDate": f"201{rng.randint(3, 5)}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}",
                "currencyCode": rng.choice(["USD", "EUR", "JPY"]),
                "totalAmount": round(rng.uniform(10, 5000), 2),
                "shippingMethod": rng.choice(["GROUND", "AIR", "SEA"]),
                "lines": [{
                    "sku": f"SKU{rng.randrange(10**5):05d}",
                    "qty": rng.randint(1, 9),
                } for _ in range(rng.randint(1, 3))],
            }
        })
    return docs


def event_messages(count: int, seed: int = 3) -> list[dict[str, Any]]:
    """Deep telemetry/event envelopes with many distinct paths."""
    docs = []
    for i in range(count):
        rng = rng_for(seed, i)
        docs.append({
            "eventMessage": {
                "header": {
                    "messageId": f"MSG-{i:08d}",
                    "timestamp": f"2015-06-{rng.randint(10, 28)}T0{rng.randint(0, 9)}:15:00",
                    "source": {"system": rng.choice(["CRM", "ERP", "WMS"]),
                               "node": {"host": f"node{rng.randint(1, 64)}",
                                        "dc": rng.choice(["east", "west"])}},
                    "severity": rng.choice(["INFO", "WARN", "ERROR"]),
                },
                "payload": {
                    "kind": rng.choice(["create", "update", "delete"]),
                    "entity": {
                        "type": rng.choice(["order", "invoice", "shipment"]),
                        "key": rng.randrange(10**9),
                        "attributes": {
                            "status": rng.choice(["NEW", "DONE"]),
                            "amount": round(rng.uniform(1, 10000), 2),
                            "metadata": {
                                "origin": _sentence(rng, 2),
                                "traceId": f"{rng.randrange(16**12):012x}",
                                "tags": [_sentence(rng, 1)
                                         for _ in range(rng.randint(1, 4))],
                            },
                        },
                    },
                    "deltas": [{
                        "field": rng.choice(["status", "amount", "owner"]),
                        "old": _sentence(rng, 1),
                        "new": _sentence(rng, 1),
                    } for _ in range(rng.randint(2, 6))],
                },
                "context": {
                    "userId": rng.randrange(10**6),
                    "sessionId": f"{rng.randrange(16**8):08x}",
                    "ipAddress": f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
                },
            }
        })
    return docs


def purchase_orders(count: int, seed: int = 42) -> list[dict[str, Any]]:
    return list(PurchaseOrderGenerator(seed=seed).documents(count))


def book_orders(count: int, seed: int = 5) -> list[dict[str, Any]]:
    """Book store orders: wide documents, several sibling arrays."""
    docs = []
    for i in range(count):
        rng = rng_for(seed, i)
        docs.append({
            "bookOrder": {
                "orderId": i,
                "placedAt": f"2015-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                "buyer": {
                    "name": _sentence(rng, 2),
                    "email": f"user{rng.randrange(10**6)}@example.com",
                    "address": {"street": _sentence(rng, 3),
                                "city": rng.choice(["Springfield", "Rivertown"]),
                                "zip": f"{rng.randrange(10**5):05d}",
                                "country": rng.choice(["US", "DE", "JP"])},
                    "loyalty": {"tier": rng.choice(["gold", "silver"]),
                                "points": rng.randrange(10**4)},
                },
                "books": [{
                    "isbn": f"978{rng.randrange(10**10):010d}",
                    "title": _sentence(rng, rng.randint(2, 5)).title(),
                    "authors": [_sentence(rng, 2).title()
                                for _ in range(rng.randint(1, 2))],
                    "price": round(rng.uniform(5, 80), 2),
                    "format": rng.choice(["hardcover", "paperback", "ebook"]),
                } for _ in range(rng.randint(1, 4))],
                "coupons": [{
                    "code": f"CPN{rng.randrange(10**4):04d}",
                    "discountPct": rng.choice([5, 10, 15]),
                } for _ in range(rng.randint(0, 2))],
                "giftWrap": rng.random() < 0.3,
            }
        })
    return docs


def loan_notes(count: int, seed: int = 6) -> list[dict[str, Any]]:
    """Loan servicing notes: a very large field-name vocabulary relative
    to tiny values — the dictionary-segment-heavy row of Table 11."""
    categories = ["underwriting", "escrow", "servicing", "collections",
                  "insurance", "appraisal", "title", "closing"]
    docs = []
    for i in range(count):
        rng = rng_for(seed, i)
        doc: dict[str, Any] = {"loanNote": {
            "loanApplicationNumber": i,
            "borrowerPrimaryIdentifier": rng.randrange(10**9),
        }}
        note = doc["loanNote"]
        # many distinct, verbose field names with one- or two-char values
        for category in categories:
            section: dict[str, Any] = {}
            for k in range(rng.randint(8, 14)):
                field = (f"{category}ReviewStatusCode{k:02d}"
                         if k % 2 == 0 else
                         f"{category}ExceptionIndicatorFlag{k:02d}")
                section[field] = (rng.choice(["Y", "N"]) if k % 2
                                  else rng.randint(0, 9))
            note[f"{category}NotesSection"] = section
        docs.append(doc)
    return docs


def twitter_messages(count: int, seed: int = 7) -> list[dict[str, Any]]:
    """Twitter-like statuses: many optional paths, medium size."""
    docs = []
    for i in range(count):
        rng = rng_for(seed, i)
        doc: dict[str, Any] = {
            "created_at": f"Mon Jun {rng.randint(10, 28)} 12:{rng.randint(10, 59)}:00 +0000 2015",
            "id": 600000000000 + i,
            "id_str": str(600000000000 + i),
            "text": _sentence(rng, rng.randint(5, 18)),
            "truncated": False,
            "lang": rng.choice(["en", "es", "ja", "de"]),
            "retweet_count": rng.randrange(1000),
            "favorite_count": rng.randrange(500),
            "user": {
                "id": rng.randrange(10**9),
                "screen_name": f"user_{rng.randrange(10**6)}",
                "name": _sentence(rng, 2).title(),
                "followers_count": rng.randrange(10**5),
                "friends_count": rng.randrange(5000),
                "verified": rng.random() < 0.05,
                "location": rng.choice(["", "SF", "NYC", "Tokyo"]),
            },
            "entities": {
                "hashtags": [{"text": rng.choice(_WORDS),
                              "indices": [0, 5]}
                             for _ in range(rng.randint(0, 3))],
                "urls": [{"url": f"http://t.co/{rng.randrange(16**6):06x}",
                          "expanded_url": f"http://example.com/{rng.randrange(10**6)}"}
                         for _ in range(rng.randint(0, 2))],
                "user_mentions": [{"screen_name": f"user_{rng.randrange(10**6)}",
                                   "id": rng.randrange(10**9)}
                                  for _ in range(rng.randint(0, 2))],
            },
        }
        if rng.random() < 0.3:
            doc["coordinates"] = {"type": "Point",
                                  "coordinates": [round(rng.uniform(-180, 180), 5),
                                                  round(rng.uniform(-90, 90), 5)]}
        if rng.random() < 0.2:
            doc["in_reply_to_status_id"] = 600000000000 + rng.randrange(i + 1)
        docs.append(doc)
    return docs


def acquisition_docs(count: int, seed: int = 8) -> list[dict[str, Any]]:
    """Acquisition/contract documents: long prose values dominate
    (value-segment-heavy), with a large clause fan-out."""
    docs = []
    for i in range(count):
        rng = rng_for(seed, i)
        docs.append({
            "acquisition": {
                "contractNumber": f"GS-{rng.randrange(10**5):05d}",
                "agency": rng.choice(["GSA", "DOD", "DOE"]),
                "awardAmount": round(rng.uniform(10**4, 10**7), 2),
                "summary": _sentence(rng, rng.randint(25, 60)),
                "clauses": [{
                    "clauseId": f"52.2{rng.randrange(100):02d}-{rng.randrange(9)}",
                    "text": _sentence(rng, rng.randint(15, 40)),
                } for _ in range(rng.randint(10, 30))],
            }
        })
    return docs


def nobench_docs(count: int, seed: int = 11) -> list[dict[str, Any]]:
    return list(NobenchGenerator(seed=seed).documents(count))


def ycsb_docs(count: int, seed: int = 7) -> list[dict[str, Any]]:
    return list(YcsbGenerator(seed=seed).documents(count))


def twitter_msg_archive(count: int = 1, seed: int = 9,
                        messages_per_archive: int = 1500) -> list[dict[str, Any]]:
    """Message archives: each document packs thousands of repeated tweet
    structures into one array (the paper's 5 MB document; scale via
    ``messages_per_archive``)."""
    docs = []
    for i in range(count):
        messages = twitter_messages(messages_per_archive, seed=(seed + i))
        docs.append({"archive": {"day": f"2015-06-{10 + i:02d}",
                                 "messages": messages}})
    return docs


def sensor_data(count: int = 1, seed: int = 10,
                series_count: int = 40,
                readings_per_series: int = 1200) -> list[dict[str, Any]]:
    """Sensor recordings: one huge document of numeric reading arrays —
    the tree-navigation-segment-dominated row of Table 11 (the paper's
    41.5 MB document; scale via the series/readings parameters)."""
    docs = []
    for i in range(count):
        rng = rng_for(seed, i)
        series = []
        for s in range(series_count):
            base = rng.uniform(-50, 50)
            epoch = 1433000000 + s * 100000
            series.append({
                "sensorId": f"S{s:04d}",
                "unit": rng.choice(["C", "kPa", "V"]),
                "readings": [{
                    # IoT-platform style records: long field names repeated
                    # per reading are exactly where OSON's per-document
                    # dictionary beats JSON text (Table 10's SensorData row)
                    "timestampUtcMillis": epoch + t * 500,
                    "measuredValue": round(base + rng.gauss(0, 2.5), 4),
                    "qualityFlag": rng.randrange(4),
                } for t in range(readings_per_series)],
            })
        docs.append({"recording": {"deviceId": f"DEV-{i:04d}",
                                   "series": series}})
    return docs


#: name -> (generator, default document count at scale 1.0)
_COLLECTIONS: dict[str, tuple[Callable[..., list[dict[str, Any]]], int]] = {
    "workOrder": (work_orders, 100),
    "salesOrder": (sales_orders, 100),
    "eventMessage": (event_messages, 100),
    "purchaseOrder": (purchase_orders, 100),
    "bookOrder": (book_orders, 100),
    "LoanNotes": (loan_notes, 50),
    "TwitterMsg": (twitter_messages, 100),
    "AcquisionDoc": (acquisition_docs, 50),
    "NOBENCHDoc": (nobench_docs, 100),
    "YCSBDoc": (ycsb_docs, 100),
    "TwitterMsgArchive": (twitter_msg_archive, 1),
    "SensorData": (sensor_data, 1),
}

COLLECTION_NAMES = list(_COLLECTIONS)


def collection(name: str, scale: float = 1.0) -> list[dict[str, Any]]:
    """Generate one named collection at ``scale`` (document count factor,
    minimum 1 document)."""
    try:
        generator, base_count = _COLLECTIONS[name]
    except KeyError:
        raise KeyError(f"unknown collection {name!r}; "
                       f"choose from {COLLECTION_NAMES}") from None
    count = max(1, int(base_count * scale))
    return generator(count)

