"""The ad-hoc template mix (fold, point, range, IN, join) answers the same
through ``cache+index`` + rent-or-buy, the plain cached scan, the static
engine and plain Python — in process and through the server with two
tenants, before and after appends and a rewrite."""

import asyncio
import json
import random

from repro import EngineContext, ViDa
from repro.server import ViDaServer

ROWS, DIMS, SPAN = 1500, 40, 100_000


class Files:
    """CSV ``T`` (id, a, b, fk) and NDJSON ``D`` (k, w), kept in memory too
    so that every expected answer is computed in plain Python."""

    def __init__(self, directory, seed: int):
        self.rng = rng = random.Random(seed)
        self.csv = str(directory / "t.csv")
        self.json = str(directory / "d.json")
        self.w = [rng.randrange(100) for _ in range(DIMS)]
        self.rows: list[tuple] = []
        with open(self.json, "w") as fh:
            for k, w in enumerate(self.w):
                fh.write(json.dumps({"k": k, "w": w}) + "\n")
        self.rewrite()

    def _fresh(self, count: int) -> list[tuple]:
        rng, start = self.rng, len(self.rows)
        return [(start + i, rng.randrange(SPAN), rng.randrange(100),
                 rng.randrange(DIMS)) for i in range(count)]

    def rewrite(self) -> None:
        self.rows = []
        self.rows = self._fresh(ROWS)
        self.rng.shuffle(self.rows)
        with open(self.csv, "w") as fh:
            fh.write("id,a,b,fk\n" + "".join(
                "%d,%d,%d,%d\n" % r for r in self.rows))

    def append(self, count: int) -> None:
        tail = self._fresh(count)
        self.rows += tail
        with open(self.csv, "a") as fh:
            fh.write("".join("%d,%d,%d,%d\n" % r for r in tail))

    def queries(self, seed: int, per_template: int = 6) -> list[tuple]:
        """(comprehension, SQL, expected) for every template."""
        rng, rows, out = random.Random(seed), self.rows, []
        for _ in range(per_template):
            x = rng.randrange(SPAN * 90 // 100, SPAN * 99 // 100)
            out.append((
                f"for {{ t <- T, t.a >= {x} }} yield sum t.b",
                f"SELECT SUM(b) AS s FROM T WHERE a >= {x}",
                sum(b for _i, a, b, _f in rows if a >= x)))
            out.append((
                f"for {{ t <- T, d <- D, t.fk = d.k, t.a >= {x} }} "
                "yield sum d.w",
                "SELECT SUM(d.w) AS s FROM T t JOIN D d ON t.fk = d.k "
                f"WHERE t.a >= {x}",
                sum(self.w[f] for _i, a, _b, f in rows if a >= x)))
            i = rng.randrange(len(rows))
            out.append((
                f"for {{ t <- T, t.id = {i} }} yield bag (a := t.a, b := t.b)",
                f"SELECT a, b FROM T WHERE id = {i}",
                [{"a": a, "b": b} for j, a, b, _f in rows if j == i]))
            y = rng.randrange(SPAN * 9 // 10)
            out.append((
                f"for {{ t <- T, t.a >= {y}, t.a < {y + SPAN // 50} }} "
                "yield count 1",
                f"SELECT COUNT(*) AS c FROM T WHERE a >= {y} "
                f"AND a < {y + SPAN // 50}",
                sum(1 for _i, a, _b, _f in rows if y <= a < y + SPAN // 50)))
            ids = sorted(rng.sample(range(len(rows)), 3))
            lit = ", ".join(map(str, ids))
            out.append((
                f"for {{ t <- T, t.id in [{lit}] }} yield sum t.b",
                f"SELECT SUM(b) AS s FROM T WHERE id IN ({lit})",
                sum(b for j, _a, b, _f in rows if j in ids)))
        return out


def _steps(files: Files):
    """The file states every surface is checked at: as written, after each
    of three appends, after a rewrite."""
    yield "initial"
    for i in range(3):
        files.append(ROWS // 100)
        yield f"append {i}"
    files.rewrite()
    yield "rewrite"


def test_templates_agree_in_process(tmp_path):
    files = Files(tmp_path, 21)
    probed, plain = ViDa(), ViDa(enable_indexes=False)
    try:
        for db in (probed, plain):
            db.register_csv("T", files.csv)
            db.register_json("D", files.json)
        seen = set()
        for step in _steps(files):
            # each text twice: the second run is the cache-served one
            for text, _sql, expected in files.queries(5) + files.queries(5):
                assert plain.query(text).value == expected, (step, text)
                for engine in ("jit", "static"):
                    got = probed.query(text, engine=engine)
                    assert got.value == expected, (step, engine, text)
                    seen.update(
                        line.split(";")[1].split(",")[0].strip()
                        for line in got.plan_text.splitlines()
                        if "Scan(T" in line)
        assert {"access=cache+index[id]", "access=cache+index[a]"} <= seen
    finally:
        probed.close()
        plain.close()


def test_templates_agree_through_the_server_with_two_tenants(tmp_path):
    files = Files(tmp_path, 22)

    async def call(stream, payload: dict) -> dict:
        reader, writer = stream
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=60)
        assert line, "server closed the connection"
        return json.loads(line)

    async def replay(stream, part: list[tuple], step: str) -> set:
        hits = set()
        for n, (text, sql, expected) in enumerate(part):
            payload = {"sql": sql} if n % 2 else {"q": text}
            reply = await call(stream, {**payload, "stats": True})
            assert reply["ok"], reply
            # the wire wraps a scalar answer in a one-element list
            want = expected if isinstance(expected, list) else [expected]
            assert reply["rows"] == want, (step, payload)
            hits.add(reply["stats"]["index_hits"])
        return hits

    async def scenario() -> set:
        server = ViDaServer(context=EngineContext(), max_workers=2)
        await server.start()
        tenants = [await asyncio.open_connection(*server.address)
                   for _ in range(2)]
        hits = set()
        try:
            for fmt, name, path in (("csv", "T", files.csv),
                                    ("json", "D", files.json)):
                reply = await call(tenants[0], {
                    "op": "register", "name": name, "path": path,
                    "format": fmt})
                assert reply["ok"], reply
            for step in _steps(files):
                stream = files.queries(9, per_template=4) * 2
                results = await asyncio.gather(*[
                    replay(tenant, stream[i::2], step)
                    for i, tenant in enumerate(tenants)])
                hits.update(*results)
        finally:
            for _reader, writer in tenants:
                writer.close()
            await server.stop()
        return hits

    assert {0, 1} <= asyncio.run(scenario())   # probed and plain both ran
