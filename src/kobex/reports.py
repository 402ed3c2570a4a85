"""Line-delimited report records and CSV emission.

A report is a JSON-lines file: one header line, one line per recorded
operation, one footer line with the verdict tally.  Records hold only
plain numbers and strings so every verdict can be recomputed from the
emitted values alone.  Given a fixed seed the bytes are reproducible:
wall-clock timing is printed to the console, never written to the file.
"""

import csv
import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


def _plain(obj):
    import numpy as np
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    return obj


@dataclass
class Record:
    op: str
    verdict: bool
    value: object = None
    method: str = None
    side: str = None
    constants: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def to_json(self):
        payload = {"op": self.op}
        for key in ("verdict", "value", "method", "side"):
            v = getattr(self, key)
            if v is not None:
                payload[key] = _plain(v)
        for key in ("constants", "tolerances"):
            v = getattr(self, key)
            if v:
                payload[key] = _plain(v)
        return json.dumps(payload, sort_keys=True)


@dataclass
class Report:
    scenario: str
    seed: int
    version: str
    records: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)   # name -> (header, rows) for CSV

    def add(self, op, verdict, **kw):
        rec = Record(op=op, verdict=verdict, **kw)
        self.records.append(rec)
        return rec

    def add_table(self, name, header, rows):
        self.tables[name] = (list(header), [list(r) for r in rows])

    @property
    def passed(self):
        return all(r.verdict for r in self.records)

    @property
    def tally(self):
        return sum(1 for r in self.records if r.verdict), len(self.records)

    def to_jsonl(self):
        head = json.dumps({"schema": SCHEMA_VERSION, "scenario": self.scenario,
                           "seed": self.seed, "version": self.version},
                          sort_keys=True)
        n_pass, n_total = self.tally
        foot = json.dumps({"passed": self.passed, "verdicts_passed": n_pass,
                           "verdicts_total": n_total}, sort_keys=True)
        return "\n".join([head] + [r.to_json() for r in self.records] + [foot]) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def write_csv(self, directory):
        import os
        paths = []
        for name, (header, rows) in self.tables.items():
            path = os.path.join(directory, "%s--%s.csv" % (self.scenario, name))
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
            paths.append(path)
        return paths

    def summary(self):
        n_pass, n_total = self.tally
        lines = ["scenario %s: %d/%d checks passed"
                 % (self.scenario, n_pass, n_total)]
        for r in self.records:
            lines.append("  [%s] %s" % ("PASS" if r.verdict else "FAIL", r.op))
        return "\n".join(lines)

