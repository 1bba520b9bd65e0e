"""The six workloads. Each one is ``setup()`` (everything before the timed
region), ``repeat()`` (one timed unit of work, run again until the run's
seconds are used) and what the harness needs to check answers and to probe a
refresh. Why each exists is recorded in BENCHMARK.json and README.md.

Load comes from this one process; client threads and worker processes never
exceed 2, so the numbers measure the engine and not the scheduler.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import socket
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter

from repro import EngineContext, ViDa
from repro.server import TenantQuota, ViDaServer
from repro.workloads import HBPConfig, generate_datasets, make_workload
from repro.workloads.runner import normalize_result, run_baseline

from .clock import timed
from .datagen import Dataset, QueryStream

#: HBP at a size whose 150-query session takes ~2 s here (Table 2's shape:
#: Genetics much wider than Patients, BrainRegions nested)
HBP = HBPConfig(patients_rows=2000, patients_proteins=48, genetics_rows=1500,
                genetics_snps=500, brain_objects=800, regions_per_object=8)
#: the query mix is the paper-shaped sequence of this fixed seed on every
#: run; ``--seed`` drives the data. A mix drawn per seed moves the number of
#: cold-attribute queries by +-16% and ``wall_s`` with it.
HBP_MIX_SEED = 42
#: about half of the 3.9 MB of columns the session touches, so the cache is
#: the binding constraint (the "larger than the cache" workload)
HBP_CACHE_BYTES = 2 << 20

COLD_ROWS, COLD_DIMS = 20_000, 10_000      # 1.7 MB CSV, 1.6 MB JSON
WARM_ROWS, WARM_DIMS = 20_000, 200         # fits the default 256 MB cache
EVOLVING_ROWS = 10_000
# sized so that a repeat takes ~2 s here and a run of 8 s sees four of them
STREAM_QUERIES = 1000
EVOLVING_STEPS = 200
REFRESH_PROBES = 9


@dataclass
class Op:
    kind: str        # query | first | refresh | asof
    seconds: float
    ok: bool


@dataclass
class Repeat:
    wall_s: float
    ops: list[Op]
    before: dict = field(default_factory=dict)   # engine counters around it
    after: dict = field(default_factory=dict)
    appended_bytes: int = 0                      # what the harness appended


def register(db: ViDa, sources) -> None:
    for fmt, name, path in sources:
        (db.register_csv if fmt == "csv" else db.register_json)(name, path)


class Workload:
    """Base: files under ``workdir``; ``side_ops`` collects operations timed
    outside the repeats' wall-clock (first answers during set-up, refresh
    probes after the run)."""

    name = ""
    #: (source, integer column, threshold) the refresh probe counts over
    probe = ("T", "a", 990_000)
    #: report the repeats' times in nominal-machine seconds (see clock.py)
    normalize_repeats = True

    def __init__(self, workdir: str, seed: int, quick: bool):
        self.workdir = workdir
        self.seed = seed
        self.quick = quick
        self.side_ops: list[Op] = []
        self.db: ViDa | None = None
        os.makedirs(workdir, exist_ok=True)

    def scaled(self, count: int) -> int:
        return max(1, count // 4) if self.quick else count

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed, untraced work a repeat needs done first."""

    def repeat(self) -> Repeat:
        raise NotImplementedError

    def sources(self) -> list[tuple[str, str, str]]:
        """(format, name, path) of every raw file; the probed CSV first."""
        return [("csv", "T", self.data.csv), ("json", "D", self.data.json)]

    def sample(self) -> list[str]:
        """A few of the workload's comprehensions (jit-vs-static probe)."""
        raise NotImplementedError

    def register(self) -> None:
        register(self.db, self.sources())

    def ask(self, text: str):
        """One query the way this workload's user would send it."""
        return self.db.query(text).value

    def matches(self, value, expected) -> bool:
        return value == expected

    def first_answer(self, text: str, expected) -> None:
        """Register never-seen files and wait for the first answer: the
        paper's "no load step", as one operation."""
        t0 = perf_counter()
        self.register()
        value = self.ask(text)
        self.side_ops.append(Op("first", perf_counter() - t0,
                                self.matches(value, expected)))

    def snapshot(self) -> dict:
        return self.db.engine_context.stats_snapshot()

    def verify(self) -> bool:
        """Checks too slow for the timed region; run once after it."""
        return True

    def extras(self, repeats: list[Repeat]) -> dict[str, float]:
        """Per-layer numbers only this workload can measure (traced run);
        ``repeats`` are the untraced ones."""
        return {}

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def refresh_probe(self) -> None:
        """After everything else: grow the probed CSV by ~1% (its own last
        rows again) and time the first query that must see the new rows."""
        source, column, lo = self.probe
        path = self.sources()[0][2]
        with open(path) as fh:
            header, *lines = fh.read().splitlines(keepends=True)
        col = header.strip().split(",").index(column)
        tail = lines[-max(1, len(lines) // 100):]
        expected = sum(1 for ln in lines if int(ln.split(",")[col]) >= lo)
        grow = sum(1 for ln in tail if int(ln.split(",")[col]) >= lo)
        text = f"for {{ r <- {source}, r.{column} >= {lo} }} yield count 1"
        ok = self.matches(self.ask(text), expected)   # structures exist now
        self.side_ops.append(Op("query", 0.0, ok))
        for _ in range(self.scaled(REFRESH_PROBES)):
            Dataset.write(path, "".join(tail), "a")
            expected += grow
            seconds, value = timed(self.ask, text)
            self.side_ops.append(
                Op("refresh", seconds, self.matches(value, expected)))


class FreshSessions(Workload):
    """Workloads whose every repeat starts on an engine that has seen
    nothing: the session is built (and its pool started) outside the timed
    region and used for one repeat."""

    used = False

    def new_session(self) -> ViDa:
        return ViDa()

    def prepare(self) -> None:
        if self.used or self.db is None:
            self.close()
            self.db = self.new_session()
            self.db.prestart()
            self.used = False

    def texts(self) -> list[str]:
        raise NotImplementedError

    def check(self, values: list) -> list[bool]:
        raise NotImplementedError

    def sample(self):
        return self.texts()[:12]

    def repeat(self) -> Repeat:
        self.used = True
        query, texts = self.db.query, self.texts()
        before = self.snapshot()
        seconds, values = [], []
        t_start = t0 = perf_counter()
        self.register()                       # part of the first answer
        for text in texts:
            values.append(query(text).value)
            t1 = perf_counter()
            seconds.append(t1 - t0)
            t0 = t1
        wall = perf_counter() - t_start
        ops = [Op("query", s, ok) for s, ok in zip(seconds, self.check(values))]
        ops[0].kind = "first"
        return Repeat(wall, ops, before, self.snapshot())


class HbpSession(FreshSessions):
    name = "hbp_session"
    probe = ("Patients", "age", 90)

    def new_session(self) -> ViDa:
        return ViDa(cache_budget_bytes=HBP_CACHE_BYTES)

    def setup(self) -> None:
        config = dataclasses.replace(
            HBP, seed=self.seed, n_queries=self.scaled(HBP.n_queries))
        self.datasets = generate_datasets(self.workdir, config)
        self.queries = make_workload(
            dataclasses.replace(config, seed=HBP_MIX_SEED))
        #: the first repeat's answers: the reference for later repeats,
        #: themselves checked against the static engine in verify()
        self.reference: list | None = None
        self.prepare()

    def sources(self):
        d = self.datasets
        return [("csv", "Patients", d.patients_csv),
                ("csv", "Genetics", d.genetics_csv),
                ("json", "BrainRegions", d.brain_json)]

    def texts(self):
        return [q.comprehension for q in self.queries]

    def check(self, values):
        values = [normalize_result(v) for v in values]
        if self.reference is None:
            self.reference = values
        return [v == r for v, r in zip(values, self.reference)]

    def verify(self) -> bool:
        static = ViDa()
        try:
            register(static, self.sources())
            return all(
                normalize_result(static.query(text, engine="static").value)
                == answer
                for text, answer in zip(self.texts(), self.reference))
        finally:
            static.close()

    def extras(self, repeats):
        # the paper's yardstick: load-then-query column store, same queries
        timing, _ = run_baseline("colstore", self.datasets, self.queries,
                                 os.path.join(self.workdir, "warehouse"))
        wall = statistics.median(r.wall_s for r in repeats)
        return {"warehouse.colstore_prep_s": timing.prep_s,
                "warehouse.colstore_total_s": timing.total_s,
                "warehouse.vs_vida_x": timing.total_s / wall}


class ColdScan(FreshSessions):
    name = "cold_scan"

    def setup(self) -> None:
        self.data = d = Dataset(self.workdir, self.seed, COLD_ROWS, COLD_DIMS)
        # three queries, each on columns nothing has touched before it
        self.queries = [
            ("for { t <- T, t.c0 >= 950 } yield sum t.c1",
             d.sum_where(d.c[1], d.c[0], 950)),
            ("for { d <- D, i <- d.items, i.q >= 90 } yield sum i.v",
             d.items_sum_v(90)),
            ("for { t <- T, d <- D, t.fk = d.k, t.c2 >= 950 } yield sum d.w",
             d.join_sum_w(d.c[2], 950)),
        ]
        self.prepare()

    def texts(self):
        return [text for text, _ in self.queries]

    def check(self, values):
        return [v == e for v, (_, e) in zip(values, self.queries)]


class ParallelScan(ColdScan):
    name = "parallel_scan"

    def new_session(self) -> ViDa:
        return ViDa(parallelism=2, backend="process")

    def extras(self, repeats):
        """Serial wall over (2 x parallel wall) on the same bytes."""
        serial = ColdScan(self.workdir, self.seed, self.quick)
        serial.data, serial.queries = self.data, self.queries
        try:
            serial.prepare()
            serial_wall = serial.repeat().wall_s
        finally:
            serial.close()
        wall = statistics.median(r.wall_s for r in repeats)
        return {"core.executor.procpool.efficiency": serial_wall / (2 * wall)}


class WarmAdhoc(Workload):
    name = "warm_adhoc"

    def setup(self) -> None:
        self.data = Dataset(self.workdir, self.seed, WARM_ROWS, WARM_DIMS)
        self.pool = QueryStream(self.data)
        self.streams = 0
        self.open()
        warm = [self.pool.make(t, random.Random(self.seed))
                for t in QueryStream.TEMPLATES]
        self.first_answer(warm[0][0], warm[0][2])
        # until a pass over every template reads no raw byte: the posmap is
        # complete and every touched column is cached
        for _ in range(5):
            if not sum(self.raw_bytes(q) for q in warm):
                return
        raise RuntimeError("warm-up still reads raw bytes after 5 passes")

    def open(self) -> None:
        self.db = ViDa()

    def raw_bytes(self, query) -> int:
        return self.db.query(query[0]).stats.raw_bytes

    def sample(self):
        return [q[0] for q in self.next_stream()[:10]]

    def next_stream(self) -> list[tuple]:
        self.streams += 1
        return self.pool.stream(self.seed * 1000 + self.streams,
                                self.scaled(STREAM_QUERIES))

    def repeat(self) -> Repeat:
        stream = self.next_stream()
        query = self.db.query
        before = self.snapshot()
        ops = []
        t_start = perf_counter()
        for text, _sql, expected in stream:
            t0 = perf_counter()
            value = query(text).value
            ops.append(Op("query", perf_counter() - t0, value == expected))
        return Repeat(perf_counter() - t_start, ops, before, self.snapshot())


class Client:
    """One closed-loop NDJSON tenant: the next request goes out only after
    the previous reply arrived."""

    def __init__(self, address):
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.sent = 0

    def call(self, payload: dict) -> dict:
        self.sent += 1
        payload["id"] = self.sent
        self.sock.sendall(json.dumps(payload).encode() + b"\n")
        return json.loads(self.reader.readline())

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class ServerClosedLoop(WarmAdhoc):
    name = "server_closed_loop"
    normalize_repeats = False
    CLIENTS = 2
    server = None

    def open(self) -> None:
        self.replies: list[dict] = []
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="vida-server-loop")
        self.thread.start()
        self.context = EngineContext()
        # a closed loop never has two requests of one tenant in flight, so
        # nothing is refused by design and a refusal counts as a failure
        self.server = ViDaServer(context=self.context,
                                 max_workers=self.CLIENTS,
                                 quota=TenantQuota(max_inflight=1))
        self.on_loop(self.server.start())
        self.clients = [Client(self.server.address)
                        for _ in range(self.CLIENTS)]

    def on_loop(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(60)

    def register(self) -> None:
        for fmt, name, path in self.sources():
            self.clients[0].call({"op": "register", "name": name,
                                  "path": path, "format": fmt})

    def ask(self, text: str):
        reply = self.clients[0].call({"q": text})
        return reply["rows"] if reply.get("ok") else reply

    def matches(self, rows, expected) -> bool:
        # the wire wraps a scalar answer in a one-element list
        return rows == (expected if isinstance(expected, list)
                        else [expected])

    def raw_bytes(self, query) -> int:
        # both dialects through both tenants, as the stream will send them
        return sum(
            client.call({key: text, "stats": True})["stats"]["raw_bytes"]
            for client in self.clients
            for key, text in (("q", query[0]), ("sql", query[1])))

    def snapshot(self) -> dict:
        reply = self.clients[0].call({"op": "stats"})
        return {**reply["engine"], "server": reply["server"]}

    def replay(self, client: Client, part: list[tuple], ops: list,
               replies: list) -> None:
        for i, (text, sql, expected) in enumerate(part):
            # half of each tenant's requests are SQL, half comprehensions
            payload = {"sql": sql} if i % 2 else {"q": text}
            t0 = perf_counter()
            reply = client.call(payload)
            seconds = perf_counter() - t0
            ops.append(Op("query", seconds, bool(reply.get("ok"))
                          and self.matches(reply["rows"], expected)))
            replies.append(reply)

    def repeat(self) -> Repeat:
        stream = self.next_stream()
        before = self.snapshot()
        per_client = [([], []) for _ in self.clients]
        threads = [
            threading.Thread(target=self.replay, args=(
                client, stream[i::self.CLIENTS], *per_client[i]))
            for i, client in enumerate(self.clients)]
        t_start = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = perf_counter() - t_start
        self.replies = [r for _, replies in per_client for r in replies]
        return Repeat(wall, [op for ops, _ in per_client for op in ops],
                      before, self.snapshot())

    def extras(self, repeats):
        """Reply encoding, timed here on the payloads the server sent; and
        the same stream straight through a session of the same engine, whose
        median the wire's median is compared with."""
        t0 = perf_counter()
        for reply in self.replies:
            json.dumps(reply, default=str)
        encode_ms = (perf_counter() - t0) * 1e3 / len(self.replies)
        direct = ViDa(context=self.context)
        try:
            latencies = [
                timed(direct.sql, sql)[0] if (i // self.CLIENTS) % 2
                else timed(direct.query, text)[0]
                for i, (text, sql, _) in enumerate(self.next_stream())]
        finally:
            direct.close()
        wire_p50 = statistics.median(
            statistics.median(op.seconds for op in r.ops) for r in repeats)
        return {"server.encode_ms": encode_ms,
                "server.overhead_ms":
                    (wire_p50 - statistics.median(latencies)) * 1e3}

    def close(self) -> None:
        if self.server is None:
            return
        for client in self.clients:
            client.close()
        self.on_loop(self.server.stop())
        self.context.close()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join()
        self.loop.close()
        self.server = None


class EvolvingFiles(Workload):
    name = "evolving_files"
    FOLD = "for {{ t <- T, t.a >= {lo} }} yield sum t.b"
    COUNT = "for {{ d <- D, d.w >= {lo} }} yield count 1"
    PINNED = FOLD.format(lo=900_000)   # the one text AS OF steps replay

    steps = None

    def setup(self) -> None:
        self.prepare()

    def prepare(self) -> None:
        """Files back to their seeded content, a session that has seen and
        warmed them, and the schedule with every expected answer worked out
        ahead of the timed region."""
        if self.steps is not None:
            return
        self.close()
        self.data = d = Dataset(self.workdir, self.seed, EVOLVING_ROWS,
                                WARM_DIMS)
        self.db = ViDa()
        self.first_answer(self.PINNED, d.sum_where(d.b, d.a, 900_000))
        self.ask(self.COUNT.format(lo=50))
        self.steps = self.plan()

    def sample(self):
        return [self.PINNED, self.COUNT.format(lo=50)]

    def plan(self) -> list[tuple]:
        """60% steady, 25% append a ~1% tail then query (3 in 5 to the CSV,
        2 in 5 to the JSON file), 5% rewrite in place then query, 10% AS OF
        the generation before the last change: exact shares, order from the
        seed. Each AS OF step directly follows a CSV append, so it always
        re-scans a live prefix (after a rewrite it would be served from
        pinned state at a twentieth of the cost, and a seeded mix of the two
        put p90 on the border between them). With these shares p50 lies
        among steady queries, p90 among AS OF steps and p99 among rewrites.
        A step is (kind, file action, query, expected, pin)."""
        d, rng = self.data, random.Random(self.seed)
        n = self.scaled(EVOLVING_STEPS)
        asof, csv = n * 10 // 100, n * 15 // 100
        units = ([("append_csv", "asof")] * asof
                 + [("append_csv",)] * (csv - asof)
                 + [("append_json",)] * (n * 10 // 100)
                 + [("rewrite",)] * (n * 5 // 100))
        units += [("steady",)] * (n - sum(map(len, units)))
        rng.shuffle(units)
        kinds = [kind for unit in units for kind in unit]
        pinned = [d.sum_where(d.b, d.a, 900_000)]   # PINNED per CSV version
        steps = []
        for kind in kinds:
            action = pin = None
            if kind == "append_json":
                action = ("a", d.json, d.grow_json(max(1, len(d.w) // 100)))
            elif kind == "append_csv":
                action = ("a", d.csv, d.grow_csv(d.rows // 100))
            elif kind == "rewrite":
                action = ("w", d.csv, d.rewrite_first_row())
            if action is not None and action[1] == d.csv:
                pinned.append(d.sum_where(d.b, d.a, 900_000))
            if kind == "asof":
                pin = len(pinned) - 2   # the version before that append
                text, expected = self.PINNED, pinned[pin]
            elif action is not None and action[1] == d.json:
                lo = rng.randrange(20, 80)
                text, expected = self.COUNT.format(lo=lo), d.count_w(lo)
            else:
                lo = rng.randrange(900_000, 990_000)
                text = self.FOLD.format(lo=lo)
                expected = d.sum_where(d.b, d.a, lo)
            steps.append((kind, action, text, expected, pin))
        return steps

    def repeat(self) -> Repeat:
        steps, self.steps = self.steps, None
        db = self.db
        generations = [db.generations("T")["live"]]   # per CSV version
        appended = 0
        before = self.snapshot()
        ops = []
        t_start = perf_counter()
        for kind, action, text, expected, pin in steps:
            if action is not None:
                mode, path, payload = action
                Dataset.write(path, payload, mode)
                if mode == "a":
                    appended += len(payload)
            as_of = None if pin is None else {"T": generations[pin]}
            t0 = perf_counter()
            value = db.query(text, as_of=as_of).value
            ops.append(Op("refresh" if action else kind,
                          perf_counter() - t0, value == expected))
            if action is not None and action[1] == self.data.csv:
                generations.append(db.generations("T")["live"])
        wall = perf_counter() - t_start
        retained = [r["pinned"] for r in db.generations("T")["retained"]]
        self.pinned_frac = sum(retained) / max(1, len(retained))
        return Repeat(wall, ops, before, self.snapshot(), appended)

    def refresh_probe(self) -> None:
        """The schedule's own mutation steps are the refresh operations."""

    def extras(self, repeats):
        return {"core.generations.pinned_frac": self.pinned_frac}


WORKLOADS = {w.name: w for w in (HbpSession, ColdScan, ParallelScan,
                                 WarmAdhoc, ServerClosedLoop, EvolvingFiles)}
