"""The NDJSON query server: N tenants multiplexed over one EngineContext."""

import asyncio
import json

import pytest

from repro import EngineContext, ViDa
from repro.server import TenantQuota, ViDaServer

ROWS = 3000
Q = "for { t <- T, t.age > 40 } yield bag (id := t.id, s := t.score)"
SUM_Q = "for { t <- T, t.age > 40 } yield sum t.score"


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "t.csv"
    with open(path, "w") as fh:
        fh.write("id,age,score\n")
        for i in range(ROWS):
            fh.write(f"{i},{20 + i % 60},{i * 3 % 101}\n")
    return str(path)


def expected_rows(csv_path):
    db = ViDa()
    db.register_csv("T", csv_path)
    try:
        return db.query(Q, output="records").value
    finally:
        db.close()


async def send(writer, payload: dict) -> None:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def recv(reader) -> dict:
    line = await asyncio.wait_for(reader.readline(), timeout=30)
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


async def request(host, port, payload: dict) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await send(writer, payload)
        return await recv(reader)
    finally:
        writer.close()


def run(coro):
    return asyncio.run(coro)


def make_server(csv_path, **kwargs):
    """A started server with T pre-registered in the shared catalog."""

    async def setup():
        ctx = EngineContext()
        bootstrap = ViDa(context=ctx)
        bootstrap.register_csv("T", csv_path)
        bootstrap.close()
        server = ViDaServer(context=ctx, **kwargs)
        await server.start()
        return server

    return setup


# ---------------------------------------------------------------------------
# 16 concurrent tenants over one engine: shared warm state, identical rows
# ---------------------------------------------------------------------------


def test_sixteen_concurrent_clients_share_warm_state(csv_path):
    expected = expected_rows(csv_path)

    async def scenario():
        server = await make_server(csv_path, max_workers=8)()
        host, port = server.address
        try:
            # one warmup query builds posmap + cache for everyone
            warm = await request(host, port, {"id": 0, "q": Q})
            assert warm["ok"], warm
            responses = await asyncio.gather(*[
                request(host, port, {"id": i, "q": Q}) for i in range(16)
            ])
            stats = await request(host, port, {"op": "stats"})
        finally:
            await server.stop()
        return responses, stats

    responses, stats = run(scenario())
    for i, resp in enumerate(responses):
        assert resp["ok"], resp
        assert resp["id"] == i
        assert resp["rows"] == expected  # bit-identical across tenants
    assert stats["ok"]
    engine = stats["engine"]
    # cross-tenant sharing: the cold scan was paid once, everyone else hit
    assert engine["cache"]["hits"] > 0
    assert engine["posmap_adoptions"] == 1
    assert engine["queries"] >= 17
    assert engine["sessions_opened"] >= 17  # bootstrap + one per connection


def test_stats_op_reports_freshness_and_prepared_plans(csv_path):
    """Every request is a new tenant with the same knobs: after the first
    sight of each text, the engine's prepared plans serve them all."""
    sql = "SELECT SUM(score) AS s FROM T WHERE age > 40"

    async def scenario():
        server = await make_server(csv_path)()
        host, port = server.address
        try:
            for payload in [{"q": SUM_Q}, {"sql": sql}] * 4:
                assert (await request(host, port, payload))["ok"]
            return await request(host, port, {"op": "stats"})
        finally:
            await server.stop()

    engine = run(scenario())["engine"]
    prepared = engine["prepared"]
    assert prepared["entries"] == 2                       # both dialects
    assert prepared["hits"] + prepared["misses"] == 8
    assert prepared["hits"] >= 2
    # one freshness check per query, each decided by stat or by hash
    assert engine["fresh_by_stat"] + engine["fresh_by_hash"] == 8


# ---------------------------------------------------------------------------
# per-tenant admission control: structured quota errors
# ---------------------------------------------------------------------------


def test_max_inflight_quota_rejects_structured_error(csv_path):
    async def scenario():
        server = await make_server(
            csv_path, quota=TenantQuota(max_inflight=1))()
        host, port = server.address
        try:
            reader, writer = await asyncio.open_connection(host, port)
            # two queries on one tenant connection, written back to back:
            # only one slot exists, so exactly one is refused immediately
            writer.write(json.dumps({"id": 1, "q": SUM_Q}).encode() + b"\n"
                         + json.dumps({"id": 2, "q": SUM_Q}).encode() + b"\n")
            await writer.drain()
            r1 = await recv(reader)
            r2 = await recv(reader)
            writer.close()
        finally:
            await server.stop()
        return r1, r2

    r1, r2 = run(scenario())
    by_ok = sorted((r1, r2), key=lambda r: r["ok"])
    rejected, served = by_ok
    assert served["ok"]
    assert not rejected["ok"]
    assert rejected["error"]["type"] == "quota"
    assert "in flight" in rejected["error"]["message"]


def test_zero_inflight_quota_rejects_everything(csv_path):
    async def scenario():
        server = await make_server(
            csv_path, quota=TenantQuota(max_inflight=0))()
        host, port = server.address
        try:
            resp = await request(host, port, {"id": 9, "q": SUM_Q})
            stats = await request(host, port, {"op": "stats"})
        finally:
            await server.stop()
        return resp, stats

    resp, stats = run(scenario())
    assert not resp["ok"]
    assert resp["error"]["type"] == "quota"
    assert stats["server"]["quota_rejections"] >= 1


def test_cache_write_quota_surfaces_in_tenant_stats(csv_path):
    async def scenario():
        server = await make_server(
            csv_path,
            quota=TenantQuota(max_inflight=4, cache_write_bytes=0))()
        host, port = server.address
        try:
            reader, writer = await asyncio.open_connection(host, port)
            await send(writer, {"id": 1, "q": SUM_Q})
            assert (await recv(reader))["ok"]
            await send(writer, {"id": 2, "op": "stats"})
            stats = await recv(reader)
            writer.close()
        finally:
            await server.stop()
        return stats

    stats = run(scenario())
    tenant = stats["tenant"]
    assert tenant["cache_write_quota_bytes"] == 0
    assert tenant["cache_writes_denied"] >= 1
    assert tenant["queries"] == 1


# ---------------------------------------------------------------------------
# protocol and error surfaces
# ---------------------------------------------------------------------------


def test_protocol_and_parse_errors(csv_path):
    async def scenario():
        server = await make_server(csv_path)()
        host, port = server.address
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            bad_json = await recv(reader)
            await send(writer, {"id": 1, "op": "frobnicate"})
            bad_op = await recv(reader)
            await send(writer, {"id": 2, "q": "for { broken"})
            bad_query = await recv(reader)
            await send(writer, {"id": 3, "sql": 42})
            bad_type = await recv(reader)
            await send(writer, {"id": 4, "q": "for { t <- Nope } yield count 1"})
            bad_source = await recv(reader)
            writer.close()
        finally:
            await server.stop()
        return bad_json, bad_op, bad_query, bad_type, bad_source

    bad_json, bad_op, bad_query, bad_type, bad_source = run(scenario())
    assert bad_json["error"]["type"] == "protocol"
    assert bad_op["error"]["type"] == "protocol"
    assert bad_op["id"] == 1
    assert bad_query["error"]["type"] == "parse"
    assert bad_type["error"]["type"] == "protocol"
    assert bad_source["ok"] is False  # unknown source is a structured error


def test_register_explain_and_sql_ops(csv_path, tmp_path):
    extra = tmp_path / "extra.csv"
    with open(extra, "w") as fh:
        fh.write("k,v\n1,10\n2,20\n3,30\n")

    async def scenario():
        server = await make_server(csv_path)()
        host, port = server.address
        try:
            reader, writer = await asyncio.open_connection(host, port)
            await send(writer, {"id": 1, "op": "register", "name": "E",
                                "path": str(extra), "format": "csv"})
            reg = await recv(reader)
            await send(writer, {"id": 2, "sql": "SELECT v FROM E WHERE k > 1"})
            rows = await recv(reader)
            await send(writer, {"id": 3, "op": "explain", "q": SUM_Q})
            explain = await recv(reader)
            writer.close()
        finally:
            await server.stop()
        return reg, rows, explain

    reg, rows, explain = run(scenario())
    assert reg["ok"] and reg["registered"] == "E"
    assert rows["ok"]
    assert sorted(r["v"] for r in rows["rows"]) == [20, 30]
    assert explain["ok"] and "physical" in explain["text"]
